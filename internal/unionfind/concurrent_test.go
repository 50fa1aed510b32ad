package unionfind

import (
	"math/rand"
	"sync"
	"testing"
)

func TestConcurrentDSUSequentialAgreesWithDSU(t *testing.T) {
	const n = 500
	rnd := rand.New(rand.NewSource(7))
	ref := NewDSU(n)
	got := NewConcurrent(n)
	for e := 0; e < 2000; e++ {
		a, b := int32(rnd.Intn(n)), int32(rnd.Intn(n))
		if ref.Union(a, b) != got.Union(a, b) {
			t.Fatalf("edge %d (%d,%d): Union novelty disagrees", e, a, b)
		}
	}
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j += 7 {
			if ref.Same(i, j) != got.Same(i, j) {
				t.Fatalf("partition disagrees at (%d,%d)", i, j)
			}
		}
	}
}

func TestConcurrentDSURepresentativeIsMin(t *testing.T) {
	d := NewConcurrent(10)
	d.Union(9, 4)
	d.Union(4, 7)
	d.Union(2, 7)
	for _, x := range []int32{2, 4, 7, 9} {
		if r := d.Find(x); r != 2 {
			t.Errorf("Find(%d) = %d, want min member 2", x, r)
		}
	}
	if d.Find(3) != 3 {
		t.Error("singleton moved")
	}
	// Attach under the set's minimum keeps it the representative.
	d.Attach(8, 2)
	if r, p := d.Find(8), d.Parent(8); r != 2 || p != 2 || d.Parent(2) != 2 {
		t.Errorf("after Attach(8, 2): Find(8) = %d, Parent(8) = %d, Parent(2) = %d", r, p, d.Parent(2))
	}
}

// TestConcurrentDSUHammer unions a fixed edge set from many goroutines and
// checks the final partition against a sequential DSU over the same edges.
// Run under -race this exercises the lock-free Find/Union paths.
func TestConcurrentDSUHammer(t *testing.T) {
	const n = 4000
	const workers = 8
	rnd := rand.New(rand.NewSource(42))
	type edge struct{ a, b int32 }
	edges := make([]edge, 20000)
	for i := range edges {
		edges[i] = edge{int32(rnd.Intn(n)), int32(rnd.Intn(n))}
	}

	got := NewConcurrent(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += workers {
				got.Union(edges[i].a, edges[i].b)
				got.Find(edges[i].b) // interleave reads
			}
		}(w)
	}
	wg.Wait()

	ref := NewDSU(n)
	for _, e := range edges {
		ref.Union(e.a, e.b)
	}
	// Same partition: the root maps must be a bijection in both directions
	// (ref→got catches splits, got→ref catches spurious merges).
	refToGot := make(map[int32]int32)
	gotToRef := make(map[int32]int32)
	for i := int32(0); i < n; i++ {
		rr, gr := ref.Find(i), got.Find(i)
		if want, ok := refToGot[rr]; ok && gr != want {
			t.Fatalf("element %d: concurrent root %d, want %d (set split)", i, gr, want)
		}
		refToGot[rr] = gr
		if want, ok := gotToRef[gr]; ok && rr != want {
			t.Fatalf("element %d: sequential root %d, want %d (sets merged)", i, rr, want)
		}
		gotToRef[gr] = rr
	}
}
