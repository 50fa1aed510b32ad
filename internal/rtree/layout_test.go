package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

var updateLayout = flag.Bool("update-layout", false, "rewrite testdata/flat_layout.golden")

// buildFlat is the one place this test calls the builder, so a change of
// builder API touches nothing else here.
func buildFlat(pts []geom.Point, r, fanout int) *Flat {
	return BulkLoad(pts, nil, nil, Options{R: r, Fanout: fanout})
}

// digest is the hex sha256 of v's little-endian encoding.
func digest(v any) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layoutLine renders one Flat's Parts as a golden line: the shape
// scalars, then the sha256 of every structural array.
func layoutLine(n, r, fanout int, p FlatParts) string {
	return fmt.Sprintf("n=%d r=%d fanout=%d height=%d size=%d firstLeaf=%d entMinX=%s entMinY=%s entMaxX=%s entMaxY=%s entRef=%s entCnt=%s nodeEnt=%s",
		n, r, fanout, p.Height, p.Size, p.FirstLeaf,
		digest(p.EntMinX), digest(p.EntMinY), digest(p.EntMaxX), digest(p.EntMaxY),
		digest(p.EntRef), digest(p.EntCnt), digest(p.NodeEnt))
}

// TestFlatLayoutPinned pins the byte content of every Parts() array —
// the arrays persist writes to disk and the ε-search walks — over a grid
// of sizes around the leaf and node boundaries, leaf occupancies and
// fanouts. Any change to how BulkLoad packs the layout shows up here.
// Regenerate with `go test ./internal/rtree -run TestFlatLayoutPinned
// -update-layout` only when a layout change is intended.
func TestFlatLayoutPinned(t *testing.T) {
	var lines []string
	for _, n := range []int{0, 1, 15, 16, 17, 257, 5000} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		raw := make([]geom.Point, n)
		for i := range raw {
			raw[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		pts, _, _, _ := grid.Sort(raw, 1)
		for _, r := range []int{1, 7, 70} {
			for _, fanout := range []int{2, 3, 16} {
				lines = append(lines, layoutLine(n, r, fanout, buildFlat(pts, r, fanout).Parts()))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "flat_layout.golden")
	if *updateLayout {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("layout line %d differs:\n got %s\nwant %s", i, line, w)
		}
	}
	if got != string(want) {
		t.Fatalf("golden has %d lines, layout has %d", len(wantLines)-1, len(lines))
	}
}
