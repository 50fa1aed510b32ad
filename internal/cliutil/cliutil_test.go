package cliutil

import (
	"testing"
	"time"
)

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("0.2, 0.4,0.6")
	if err != nil || len(got) != 3 || got[0] != 0.2 || got[2] != 0.6 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := ParseFloats(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ParseFloats("a,b"); err == nil {
		t.Error("garbage accepted")
	}
	if got, _ := ParseFloats("1,,2"); len(got) != 2 {
		t.Errorf("empty elements should be skipped: %v", got)
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("4,8, 16")
	if err != nil || len(got) != 3 || got[2] != 16 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := ParseInts("1.5"); err == nil {
		t.Error("float accepted as int")
	}
	if _, err := ParseInts(" , "); err == nil {
		t.Error("blank list accepted")
	}
}

func TestParseRange(t *testing.T) {
	got, err := ParseRange("10:100:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 19 || got[0] != 10 || got[18] != 100 {
		t.Fatalf("paper's B set: %v", got)
	}
	// Falls back to comma lists.
	got, err = ParseRange("4,8,16")
	if err != nil || len(got) != 3 {
		t.Fatalf("comma fallback: %v, %v", got, err)
	}
	for _, bad := range []string{"1:2", "1:2:3:4", "a:2:1", "1:b:1", "1:9:x", "5:1:1", "1:9:0"} {
		if _, err := ParseRange(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Single-element range.
	got, _ = ParseRange("7:7:1")
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("degenerate range: %v", got)
	}
}

func TestEnvOr(t *testing.T) {
	t.Setenv("CLIUTIL_TEST_STR", "")
	if got := EnvOr("CLIUTIL_TEST_STR", "fallback"); got != "fallback" {
		t.Errorf("unset: got %q", got)
	}
	t.Setenv("CLIUTIL_TEST_STR", ":9999")
	if got := EnvOr("CLIUTIL_TEST_STR", "fallback"); got != ":9999" {
		t.Errorf("set: got %q", got)
	}
}

func TestEnvIntOr(t *testing.T) {
	t.Setenv("CLIUTIL_TEST_INT", "")
	if got, err := EnvIntOr("CLIUTIL_TEST_INT", 42); err != nil || got != 42 {
		t.Errorf("unset: got %d, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_INT", "7")
	if got, err := EnvIntOr("CLIUTIL_TEST_INT", 42); err != nil || got != 7 {
		t.Errorf("set: got %d, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_INT", "seven")
	if _, err := EnvIntOr("CLIUTIL_TEST_INT", 42); err == nil {
		t.Error("unparsable value must error, not silently fall back")
	}
}

func TestEnvFloatOr(t *testing.T) {
	t.Setenv("CLIUTIL_TEST_FLOAT", "")
	if got, err := EnvFloatOr("CLIUTIL_TEST_FLOAT", 0.5); err != nil || got != 0.5 {
		t.Errorf("unset: got %g, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_FLOAT", "0.25")
	if got, err := EnvFloatOr("CLIUTIL_TEST_FLOAT", 0.5); err != nil || got != 0.25 {
		t.Errorf("set: got %g, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_FLOAT", "half")
	if _, err := EnvFloatOr("CLIUTIL_TEST_FLOAT", 0.5); err == nil {
		t.Error("unparsable float must error, not silently fall back")
	}
}

func TestEnvDurationOr(t *testing.T) {
	t.Setenv("CLIUTIL_TEST_DUR", "")
	if got, err := EnvDurationOr("CLIUTIL_TEST_DUR", time.Minute); err != nil || got != time.Minute {
		t.Errorf("unset: got %v, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_DUR", "250ms")
	if got, err := EnvDurationOr("CLIUTIL_TEST_DUR", time.Minute); err != nil || got != 250*time.Millisecond {
		t.Errorf("set: got %v, %v", got, err)
	}
	t.Setenv("CLIUTIL_TEST_DUR", "soon")
	if _, err := EnvDurationOr("CLIUTIL_TEST_DUR", time.Minute); err == nil {
		t.Error("unparsable duration must error")
	}
}
