package bench

import (
	"bytes"
	"strings"
	"testing"

	"vdbscan/internal/data"
)

// tinySuite runs experiments at a very small scale so every test finishes
// in well under a second per experiment.
func tinySuite() (*Suite, *bytes.Buffer) {
	var buf bytes.Buffer
	s := NewSuite(0.0005, &buf)
	s.Threads = 4
	return s, &buf
}

func TestParseSynthName(t *testing.T) {
	cases := []struct {
		in    string
		class data.SynthClass
		n     int
		noise float64
	}{
		{"cF_1M_5N", data.ClassCF, 1_000_000, 0.05},
		{"cF_100k_30N", data.ClassCF, 100_000, 0.30},
		{"cV_10k_15N", data.ClassCV, 10_000, 0.15},
		{"cV_5000_5N", data.ClassCV, 5000, 0.05},
	}
	for _, c := range cases {
		class, n, noise, err := parseSynthName(c.in)
		if err != nil {
			t.Errorf("parse(%q): %v", c.in, err)
			continue
		}
		if class != c.class || n != c.n || noise != c.noise {
			t.Errorf("parse(%q) = %v %d %g", c.in, class, n, noise)
		}
	}
	for _, bad := range []string{"XX_1M_5N", "cF1M5N", "cF_1M", "cF_xx_5N", "cF_1M_xxN"} {
		if _, _, _, err := parseSynthName(bad); err == nil {
			t.Errorf("parse(%q) should fail", bad)
		}
	}
}

func TestDatasetCacheAndNaming(t *testing.T) {
	s, _ := tinySuite()
	a, err := s.Dataset("cF_1M_5N")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "cF_1M_5N" {
		t.Errorf("name = %q", a.Name)
	}
	if a.Len() != 500 { // 1M * 0.0005
		t.Errorf("scaled |D| = %d, want 500", a.Len())
	}
	b, _ := s.Dataset("cF_1M_5N")
	if a != b {
		t.Error("dataset not cached")
	}
	sw, err := s.Dataset("SW1")
	if err != nil {
		t.Fatal(err)
	}
	scale := s.Scale
	swWant := int(float64(1_864_620) * scale)
	if sw.Len() != swWant {
		t.Errorf("SW1 scaled = %d", sw.Len())
	}
	if _, err := s.Dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestEpsFactor(t *testing.T) {
	s := NewSuite(0.01, nil)
	if got := s.EpsFactor(); got != 10 {
		t.Errorf("EpsFactor(0.01) = %g, want 10", got)
	}
	if got := s.scaleEps(0.5); got != 5 {
		t.Errorf("scaleEps = %g", got)
	}
	all := s.scaleEpsAll([]float64{0.2, 0.4})
	if all[0] != 2 || all[1] != 4 {
		t.Errorf("scaleEpsAll = %v", all)
	}
}

func TestS2VariantCount(t *testing.T) {
	s, _ := tinySuite()
	if got := len(s.s2Variants()); got != 24 {
		t.Errorf("|V| S2 = %d, want 24", got)
	}
}

func TestS3VariantCounts(t *testing.T) {
	s, _ := tinySuite()
	for _, name := range []string{"V1", "V2", "V3"} {
		if got := len(s.s3Variants(name)); got != 57 {
			t.Errorf("|%s| = %d, want 57", name, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown set should panic")
		}
	}()
	s.s3Variants("V9")
}

func TestTable1(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "cF_1M_5N", "SW4", "N/A"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Clusters (measured)") {
		t.Error("missing measured clusters column")
	}
}

func TestTables3And4(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Table3(); err != nil {
		t.Fatal(err)
	}
	if err := s.Table4(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "24") || !strings.Contains(out, "57") {
		t.Error("scenario sizes missing from output")
	}
}

func TestFig4(t *testing.T) {
	s, buf := tinySuite()
	// Restrict to one small dataset for speed: shrink the spec table via a
	// scale so tiny that even 1M-named datasets are 2000 points.
	if err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Speedup") {
		t.Error("Fig4 output malformed")
	}
	// All r values present.
	for _, r := range []string{" 1 ", " 70", " 256"} {
		if !strings.Contains(out, r) {
			t.Errorf("missing r row %q", r)
		}
	}
}

func TestFig5And6(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	if err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CLUSDEFAULT", "CLUSDENSITY", "CLUSPTSSQUARED", "FracReused", "MeanFracReused"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig7(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MeanQuality", "cV_1M_30N", "SW1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig8(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SW1", "SW4", "V1", "V2", "V3", "SCHEDGREEDY", "SCHEDMINPTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig9(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"makespan", "lowerBound", "slowdownOverLB", "fromScratch"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	s, _ := tinySuite()
	if err := s.Run("table3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, id := range Experiments {
		if id == "" {
			t.Error("empty experiment id")
		}
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable("A", "LongHeader")
	tab.add("x", 3.14159)
	tab.add("yyyy", 42)
	tab.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {12345, "12345"}, {123.456, "123.5"}, {3.14159, "3.14"}, {0.1234, "0.1234"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTrialsAveraging(t *testing.T) {
	s, buf := tinySuite()
	s.Trials = 3
	if err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Speedup") {
		t.Error("trials run produced no table")
	}
}

func TestFig1(t *testing.T) {
	s, buf := tinySuite()
	if err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "+---") {
		t.Error("Fig1 did not render a map frame")
	}
}
