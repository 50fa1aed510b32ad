package rtree

import (
	"encoding/binary"
	"math"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

// FuzzSearch drives bulk-loaded trees with fuzzer-chosen point sets, leaf
// occupancies, fanouts and query boxes, checking them against linear-scan
// oracles:
//
//   - SearchCandidates returns the leaf-run oracle's stream exactly;
//   - every point inside the query box appears among the candidates
//     (the superset property the distance filter relies on);
//   - EpsSearch returns exactly the linear-scan ε-neighborhood.
//
// Run with `go test -fuzz FuzzSearch ./internal/rtree` to explore; the
// seed corpus alone runs as a regular test.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(70), uint8(16), float64(10), float64(10), float64(3))
	f.Add([]byte{}, uint8(1), uint8(2), float64(0), float64(0), float64(0))
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16}, uint8(110), uint8(4), float64(50), float64(50), float64(100))

	f.Fuzz(func(t *testing.T, raw []byte, rSel, fanoutSel uint8, qx, qy, qr float64) {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(qr) ||
			math.IsInf(qx, 0) || math.IsInf(qy, 0) || math.IsInf(qr, 0) {
			return
		}
		// Decode two bytes per coordinate into a bounded grid, so the
		// fuzzer controls the spatial distribution deterministically.
		var pts []geom.Point
		for i := 0; i+3 < len(raw) && len(pts) < 2048; i += 4 {
			x := float64(binary.LittleEndian.Uint16(raw[i:])) / 655.36
			y := float64(binary.LittleEndian.Uint16(raw[i+2:])) / 655.36
			pts = append(pts, geom.Point{X: x, Y: y})
		}
		r := int(rSel)%128 + 1
		fanout := int(fanoutSel)%30 + 2
		sorted, _, _, _ := grid.Sort(pts, 1)
		fl := BulkLoad(sorted, nil, nil, Options{R: r, Fanout: fanout})
		if err := checkFlat(fl); err != nil {
			t.Fatal(err)
		}

		q := geom.QueryMBB(geom.Point{X: math.Mod(math.Abs(qx), 120), Y: math.Mod(math.Abs(qy), 120)},
			math.Mod(math.Abs(qr), 60))
		want := runCandidates(sorted, r, q)
		got, _ := fl.SearchCandidates(q, nil)
		if !equalIDs(got, want) {
			t.Fatalf("candidates: %d vs leaf-run oracle %d (r=%d fanout=%d n=%d)",
				len(got), len(want), r, fanout, len(sorted))
		}
		seen := make(map[int32]bool, len(got))
		for _, id := range got {
			seen[id] = true
		}
		for i, p := range sorted {
			if q.ContainsPoint(p) && !seen[int32(i)] {
				t.Fatalf("point %d inside query box missing from candidates", i)
			}
		}

		eps := math.Mod(math.Abs(qr), 60)
		if eps > 0 {
			p := geom.Point{X: math.Mod(math.Abs(qx), 120), Y: math.Mod(math.Abs(qy), 120)}
			neighbors, candidates, _ := fl.EpsSearch(p, eps, nil)
			if candidates != len(want) {
				t.Fatalf("EpsSearch examined %d candidates, SearchCandidates found %d", candidates, len(want))
			}
			epsSq := eps * eps
			j := 0
			for i, sp := range sorted {
				if p.DistSq(sp) <= epsSq {
					if j >= len(neighbors) || neighbors[j] != int32(i) {
						t.Fatalf("EpsSearch disagrees with linear scan at oracle neighbor %d", i)
					}
					j++
				}
			}
			if j != len(neighbors) {
				t.Fatalf("EpsSearch returned %d neighbors, oracle %d", len(neighbors), j)
			}
		}
	})
}
