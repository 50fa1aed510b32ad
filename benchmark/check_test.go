package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdbscan"
)

func TestFactsIgnoreNumberingButNotMembership(t *testing.T) {
	a := factsOf(2, []int32{1, 1, 2, 2, -1, -1})
	renumbered := factsOf(2, []int32{2, 2, 1, 1, -1, -1})
	if a != renumbered {
		t.Errorf("renumbering changed the facts: %+v vs %+v", a, renumbered)
	}
	if a.Clusters != 2 || a.Noise != 2 {
		t.Errorf("facts = %+v", a)
	}
	moved := factsOf(2, []int32{1, 1, 2, -1, 2, -1}) // same counts, different noise set
	if a.NoiseSHA == moved.NoiseSHA {
		t.Error("a different noise set hashed the same")
	}
}

// A deliberately wrong label set — one border point turned into noise — must
// fail the check against the reference.
func TestWrongLabelsAreCaught(t *testing.T) {
	pts, err := genPoints(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := vdbscan.Params{Eps: 0.4 * epsFactor(len(pts)), MinPts: 4}
	refs, err := buildReferences(pts, vdbscan.IndexGrid, []vdbscan.Params{p})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vdbscan.NewIndex(pts).Cluster(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFacts(refs[0], factsOf(got.NumClusters, got.Labels)); err != nil {
		t.Fatalf("correct labels rejected: %v", err)
	}
	if q, err := checkQuality(refs[0], got, minQuality); err != nil || q < minQuality {
		t.Fatalf("correct labels scored %g: %v", q, err)
	}
	wrong := append([]int32(nil), got.Labels...)
	for i, l := range wrong {
		if l != vdbscan.Noise {
			wrong[i] = vdbscan.Noise
			break
		}
	}
	if err := checkFacts(refs[0], factsOf(got.NumClusters, wrong)); err == nil {
		t.Error("a clustered point relabelled as noise passed the facts check")
	}
	// Merging everything into one cluster keeps the noise set but not the
	// cluster count, and wrecks the Jaccard score.
	merged := append([]int32(nil), got.Labels...)
	for i, l := range merged {
		if l != vdbscan.Noise {
			merged[i] = 1
		}
	}
	if got.NumClusters > 1 {
		if err := checkFacts(refs[0], factsOf(1, merged)); err == nil {
			t.Error("merged clusters passed the facts check")
		}
		if _, err := checkQuality(refs[0], &vdbscan.Clustering{Labels: merged, NumClusters: 1}, minQuality); err == nil {
			t.Error("merged clusters passed the quality check")
		}
	}
}

func TestGoldenPinsTheDefaultSeed(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("VDBENCH_DIR", dir)
	refs := []reference{{Params: vdbscan.Params{Eps: 1, MinPts: 4}, Facts: facts{Clusters: 3, Noise: 5, NoiseSHA: "ab"}}}
	if err := checkGolden("w", 100, defaultSeed, refs); err != nil {
		t.Fatalf("no golden file must not fail a run: %v", err)
	}
	if err := writeGolden("w", 100, defaultSeed, refs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "testdata", "golden.json")); err != nil {
		t.Fatal(err)
	}
	if err := checkGolden("w", 100, defaultSeed, refs); err != nil {
		t.Errorf("matching facts rejected: %v", err)
	}
	drifted := []reference{{Params: refs[0].Params, Facts: facts{Clusters: 4, Noise: 5, NoiseSHA: "ab"}}}
	if err := checkGolden("w", 100, defaultSeed, drifted); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("drifted reference passed the golden check: %v", err)
	}
	if err := checkGolden("w", 100, defaultSeed+1, drifted); err != nil {
		t.Errorf("another seed has no pin, yet: %v", err)
	}
	if err := checkGolden("w", 999, defaultSeed, drifted); err != nil {
		t.Errorf("another size has no pin, yet: %v", err)
	}
}

func TestParseLabelsCSV(t *testing.T) {
	got, err := parseLabelsCSV([]byte("# clusters: 2\n0,1\n1,-1\n2,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 2 || len(got.Labels) != 3 || got.Labels[1] != vdbscan.Noise || got.Labels[2] != 2 {
		t.Errorf("parsed %+v", got)
	}
	for _, bad := range []string{"0,1\n2,1\n", "0;1\n", "0,x\n"} {
		if _, err := parseLabelsCSV([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
