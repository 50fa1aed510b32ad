package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

func randomPoints(n int, extent float64, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * extent, Y: rnd.Float64() * extent}
	}
	return pts
}

// linearCandidates returns the indices of points whose coordinates fall in q,
// i.e. the exact answer the R-tree's candidate search must be a superset of
// (and equal to when r=1).
func linearCandidates(pts []geom.Point, q geom.MBB) []int32 {
	var out []int32
	for i, p := range pts {
		if q.ContainsPoint(p) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortedCopy(xs []int32) []int32 {
	c := append([]int32(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// candidates is SearchCandidates without the node count.
func candidates(f *Flat, q geom.MBB) []int32 {
	out, _ := f.SearchCandidates(q, nil)
	return out
}

// checkFlat validates a bulk-loaded tree's structure: FlatFromParts
// accepts its parts (forward child references, every node reached once,
// uniform leaf depth, leaf ranges in bounds), the leaf entries are the
// consecutive runs 0..n-1 in entry order, every point lies in its leaf
// box, and every interior box covers its child's entries.
func checkFlat(f *Flat) error {
	x, y := f.Coords()
	if _, err := FlatFromParts(f.Parts(), x, y, f.Points()); err != nil {
		return err
	}
	next := int32(0)
	for ni := int32(0); ni < int32(len(f.nodeEnt)-1); ni++ {
		for e := f.nodeEnt[ni]; e < f.nodeEnt[ni+1]; e++ {
			box := f.entMBB(e)
			if ni >= f.firstLeaf {
				if f.entRef[e] != next || f.entCnt[e] <= 0 {
					return fmt.Errorf("leaf entry %d covers [%d, +%d), want start %d", e, f.entRef[e], f.entCnt[e], next)
				}
				next += f.entCnt[e]
				for i := f.entRef[e]; i < next; i++ {
					if !box.ContainsPoint(f.pts[i]) {
						return fmt.Errorf("point %d outside its leaf box", i)
					}
				}
				continue
			}
			c := f.entRef[e]
			for ce := f.nodeEnt[c]; ce < f.nodeEnt[c+1]; ce++ {
				if !box.ContainsMBB(f.entMBB(ce)) {
					return fmt.Errorf("entry %d does not cover child entry %d", e, ce)
				}
			}
		}
	}
	if int(next) != f.Len() {
		return fmt.Errorf("leaves cover %d points, size is %d", next, f.Len())
	}
	return nil
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, nil, nil, Options{})
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := checkFlat(tr); err != nil {
		t.Fatal(err)
	}
	got := candidates(tr, geom.MBB{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1})
	if len(got) != 0 {
		t.Fatalf("search on empty tree returned %v", got)
	}
}

func TestBulkLoadSinglePoint(t *testing.T) {
	pts := []geom.Point{{X: 5, Y: 5}}
	tr := BulkLoad(pts, nil, nil, Options{R: 4})
	if err := checkFlat(tr); err != nil {
		t.Fatal(err)
	}
	got := candidates(tr, geom.QueryMBB(geom.Point{X: 5, Y: 5}, 0.1))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
	if got := candidates(tr, geom.QueryMBB(geom.Point{X: 50, Y: 50}, 0.1)); len(got) != 0 {
		t.Fatalf("distant query returned %v", got)
	}
}

func TestBulkLoadInvariantsAcrossR(t *testing.T) {
	for _, r := range []int{1, 2, 7, 16, 64, 100, 1000} {
		pts, _ := grid.Sort(randomPoints(1234, 50, 1), 1)
		tr := BulkLoad(pts, nil, nil, Options{R: r})
		if err := checkFlat(tr); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if tr.Len() != 1234 {
			t.Fatalf("r=%d: Len = %d", r, tr.Len())
		}
	}
}

func TestSearchMatchesLinearScanR1(t *testing.T) {
	// With r=1 every leaf MBB is a point, so candidates == exact containment.
	pts, _ := grid.Sort(randomPoints(800, 40, 2), 1)
	tr := BulkLoad(pts, nil, nil, Options{R: 1})
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		c := geom.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40}
		q := geom.QueryMBB(c, rnd.Float64()*5)
		got := sortedCopy(candidates(tr, q))
		want := sortedCopy(linearCandidates(pts, q))
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d candidates, want %d", q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %v: candidate mismatch at %d", q, j)
			}
		}
	}
}

func TestSearchSupersetForLargerR(t *testing.T) {
	// For r>1 the candidate set must contain every point actually inside q.
	pts, _ := grid.Sort(randomPoints(2000, 60, 4), 1)
	for _, r := range []int{4, 32, 128} {
		tr := BulkLoad(pts, nil, nil, Options{R: r})
		rnd := rand.New(rand.NewSource(int64(r)))
		for i := 0; i < 50; i++ {
			c := geom.Point{X: rnd.Float64() * 60, Y: rnd.Float64() * 60}
			q := geom.QueryMBB(c, 1+rnd.Float64()*3)
			got := candidates(tr, q)
			inGot := make(map[int32]bool, len(got))
			for _, idx := range got {
				inGot[idx] = true
			}
			for _, idx := range linearCandidates(pts, q) {
				if !inGot[idx] {
					t.Fatalf("r=%d: point %d inside %v missing from candidates", r, idx, q)
				}
			}
		}
	}
}

func TestHigherRShrinksTree(t *testing.T) {
	pts, _ := grid.Sort(randomPoints(10000, 100, 5), 1)
	s1 := BulkLoad(pts, nil, nil, Options{R: 1}).Stats()
	s100 := BulkLoad(pts, nil, nil, Options{R: 100}).Stats()
	if s100.Nodes >= s1.Nodes {
		t.Errorf("r=100 nodes %d should be < r=1 nodes %d", s100.Nodes, s1.Nodes)
	}
	if s100.Height > s1.Height {
		t.Errorf("r=100 height %d should be <= r=1 height %d", s100.Height, s1.Height)
	}
	if s1.LeafEntries != 10000 {
		t.Errorf("r=1 should have one leaf entry per point, got %d", s1.LeafEntries)
	}
	if want := 100; s100.LeafEntries != want {
		t.Errorf("r=100 leaf entries = %d, want %d", s100.LeafEntries, want)
	}
}

func TestHigherRVisitsFewerNodes(t *testing.T) {
	pts, _ := grid.Sort(randomPoints(20000, 100, 6), 1)
	t1 := BulkLoad(pts, nil, nil, Options{R: 1})
	t100 := BulkLoad(pts, nil, nil, Options{R: 100})
	q := geom.QueryMBB(geom.Point{X: 50, Y: 50}, 2)
	_, v1 := t1.SearchCandidates(q, nil)
	_, v100 := t100.SearchCandidates(q, nil)
	if v100 >= v1 {
		t.Errorf("r=100 visited %d nodes, r=1 visited %d; expected fewer", v100, v1)
	}
}

func TestSearchCandidatesAppendsToDst(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	tr := BulkLoad(pts, nil, nil, Options{})
	dst := make([]int32, 0, 8)
	dst = append(dst, 99)
	got, _ := tr.SearchCandidates(geom.MBB{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}, dst)
	if len(got) != 3 || got[0] != 99 {
		t.Fatalf("expected append semantics, got %v", got)
	}
}

func TestStatsAndString(t *testing.T) {
	pts, _ := grid.Sort(randomPoints(1000, 50, 11), 1)
	tr := BulkLoad(pts, nil, nil, Options{R: 10, Fanout: 8})
	s := tr.Stats()
	if s.Points != 1000 || s.R != 10 || s.Fanout != 8 {
		t.Errorf("stats = %+v", s)
	}
	if s.LeafEntries != 100 {
		t.Errorf("leaf entries = %d, want 100", s.LeafEntries)
	}
	if tr.String() == "" {
		t.Error("String() empty")
	}
}
