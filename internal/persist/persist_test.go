package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/metrics"
)

func testPoints(n int, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 50, Y: rnd.Float64() * 50}
	}
	return pts
}

func buildFrozen(t testing.TB, pts []geom.Point, kind dbscan.IndexKind, eps float64) (*dbscan.Index, dbscan.FrozenParts) {
	t.Helper()
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: kind})
	if kind == dbscan.IndexGrid {
		if err := ix.EnsureGrid(eps); err != nil {
			t.Fatalf("EnsureGrid: %v", err)
		}
	}
	parts, err := ix.FrozenParts()
	if err != nil {
		t.Fatalf("FrozenParts: %v", err)
	}
	return ix, parts
}

// TestSaveLoadRoundTrip pins the exactness bar of the snapshot store: a
// dataset loaded back from disk must produce byte-identical DBSCAN labels
// to the index it was saved from, for both index kinds.
func TestSaveLoadRoundTrip(t *testing.T) {
	params := dbscan.Params{Eps: 1.5, MinPts: 4}
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		for _, n := range []int{0, 1, 37, 3000} {
			pts := testPoints(n, int64(n)+3)
			ix, parts := buildFrozen(t, pts, kind, params.Eps)
			path := filepath.Join(t.TempDir(), "snapshot")
			if err := Save(path, parts, 42); err != nil {
				t.Fatalf("kind=%v n=%d: Save: %v", kind, n, err)
			}
			loaded, info, err := Load(path)
			if err != nil {
				t.Fatalf("kind=%v n=%d: Load: %v", kind, n, err)
			}
			if info.Points != n || info.Sequence != 42 || info.Kind != kind {
				t.Fatalf("kind=%v n=%d: info %+v", kind, n, info)
			}
			st, _ := os.Stat(path)
			if info.Bytes != st.Size() || info.Bytes%PageSize != 0 {
				t.Fatalf("kind=%v n=%d: Bytes=%d file=%d", kind, n, info.Bytes, st.Size())
			}
			// A grid-kind snapshot carries no R-tree section, yet keeps r.
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h, err := decodeHeader(img)
			if err != nil {
				t.Fatal(err)
			}
			noTrees := h.flags&flagNoLow != 0 && h.flags&flagHasHigh == 0 && h.secs[secLowRef].n == 0
			if noTrees != (kind == dbscan.IndexGrid) || info.R != dbscan.DefaultR {
				t.Fatalf("kind=%v n=%d: flags %b, low refs %d bytes, r=%d", kind, n, h.flags, h.secs[secLowRef].n, info.R)
			}
			if n == 0 {
				continue
			}
			want, err := dbscan.Run(ix, params, &metrics.Counters{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := dbscan.Run(loaded, params, &metrics.Counters{})
			if err != nil {
				t.Fatalf("mapped run: %v", err)
			}
			for i := range want.Labels {
				if want.Labels[i] != got.Labels[i] {
					t.Fatalf("kind=%v n=%d: label %d: %d vs %d", kind, n, i, want.Labels[i], got.Labels[i])
				}
			}
		}
	}
}

// TestSaveAtomic checks that Save leaves no temp droppings and that a
// save over an existing snapshot fully replaces it.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot")
	_, parts := buildFrozen(t, testPoints(500, 7), dbscan.IndexRTree, 1.5)
	if err := Save(path, parts, 1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	_, parts2 := buildFrozen(t, testPoints(900, 11), dbscan.IndexRTree, 1.5)
	if err := Save(path, parts2, 2); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "snapshot" {
		t.Fatalf("directory not clean after saves: %v", ents)
	}
	_, info, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if info.Points != 900 || info.Sequence != 2 {
		t.Fatalf("old snapshot survived: %+v", info)
	}
}

// stamp recomputes and patches the whole-file checksum so a mutation
// reaches the structural validators instead of tripping the CRC.
func stamp(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.NativeEndian.PutUint32(b[offChecksum:], checksumOf(b))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCorruption is the corruption matrix: every damaged file must
// come back as a typed error — ErrSnapshotCorrupt or ErrSnapshotVersion —
// and never a panic or a silently wrong index.
func TestLoadCorruption(t *testing.T) {
	_, parts := buildFrozen(t, testPoints(2000, 13), dbscan.IndexGrid, 1.5)
	good := filepath.Join(t.TempDir(), "good")
	if err := Save(good, parts, 9); err != nil {
		t.Fatalf("Save: %v", err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		restamp bool
		want    error
	}{
		{"truncated_half", func(b []byte) []byte {
			return b[:len(b)/2]
		}, false, ErrSnapshotCorrupt},
		{"truncated_header", func(b []byte) []byte {
			return b[:100]
		}, false, ErrSnapshotCorrupt},
		{"flipped_payload_byte", func(b []byte) []byte {
			b[PageSize+5] ^= 0x40
			return b
		}, false, ErrSnapshotCorrupt},
		{"flipped_checksum_byte", func(b []byte) []byte {
			b[offChecksum+1] ^= 0x01
			return b
		}, false, ErrSnapshotCorrupt},
		{"bad_magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, true, ErrSnapshotCorrupt},
		{"future_version", func(b []byte) []byte {
			binary.NativeEndian.PutUint32(b[offVersion:], FormatVersion+1)
			return b
		}, true, ErrSnapshotVersion},
		{"swapped_endianness", func(b []byte) []byte {
			// A file written on the opposite-endian host carries the mark
			// byte-swapped.
			b[offEndian], b[offEndian+1], b[offEndian+2], b[offEndian+3] =
				b[offEndian+3], b[offEndian+2], b[offEndian+1], b[offEndian]
			return b
		}, true, ErrSnapshotVersion},
		{"lying_total_size", func(b []byte) []byte {
			binary.NativeEndian.PutUint64(b[offTotal:], uint64(len(b))*2)
			return b
		}, true, ErrSnapshotCorrupt},
		{"negative_npoints", func(b []byte) []byte {
			binary.NativeEndian.PutUint64(b[offNPoints:], ^uint64(0))
			return b
		}, true, ErrSnapshotCorrupt},
		{"section_out_of_bounds", func(b []byte) []byte {
			binary.NativeEndian.PutUint64(b[offSections:], uint64(len(b)))
			return b
		}, true, ErrSnapshotCorrupt},
		{"restamped_structural_damage", func(b []byte) []byte {
			// Corrupt the Fwd permutation but fix the CRC: only the
			// structural validators stand between this file and a panic.
			binary.NativeEndian.PutUint64(b[PageSize*4+8:], binary.NativeEndian.Uint64(b[PageSize*4:]))
			return b
		}, true, ErrSnapshotCorrupt},
		{"empty_file", func(b []byte) []byte {
			return nil
		}, false, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap")
			b := tc.mutate(append([]byte(nil), img...))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.restamp {
				stamp(t, path)
			}
			ix, _, err := Load(path)
			if err == nil {
				t.Fatalf("damaged snapshot loaded (ix=%v)", ix != nil)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err=%v, want errors.Is(%v)", err, tc.want)
			}
		})
	}

	if _, _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatalf("missing snapshot loaded")
	}
}

// The Fwd-corruption case above depends on the Fwd section landing at
// page 4 for a small snapshot; pin that assumption.
func TestFwdSectionPlacement(t *testing.T) {
	_, parts := buildFrozen(t, testPoints(64, 3), dbscan.IndexRTree, 1.5)
	h, _ := layout(parts, 0)
	if h.secs[secFwd].off != PageSize*4 {
		t.Fatalf("secFwd moved to %d; update TestLoadCorruption", h.secs[secFwd].off)
	}
}

// TestLoadRejectsMismatchedGrid doctors a valid grid-kind image the two
// ways a grid section can disagree with its index. An installed grid is
// the only thing an ε-search consults, so a grid over fewer points than the
// index would drop neighbours silently, and one on an R-tree-kind header
// would be searched by an index that never builds one. Both images are
// well-formed section by section and carry a correct checksum: only
// IndexFromFrozen stands between them and wrong answers.
func TestLoadRejectsMismatchedGrid(t *testing.T) {
	_, parts := buildFrozen(t, testPoints(2000, 13), dbscan.IndexGrid, 1.5)
	n := len(parts.Pts)

	prefix, err := gridindex.Freeze(parts.X[:n-1], parts.Y[:n-1], 1.5)
	if err != nil {
		t.Fatal(err)
	}
	prefixParts := prefix.Parts()
	short := parts
	short.Grid = &prefixParts
	shortPath := filepath.Join(t.TempDir(), "short")
	if err := Save(shortPath, short, 1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, _, err := Load(shortPath); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("grid over %d of %d points: err=%v, want ErrSnapshotCorrupt", n-1, n, err)
	}

	kindPath := filepath.Join(t.TempDir(), "kind")
	if err := Save(kindPath, parts, 1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, _, err := Load(kindPath); err != nil {
		t.Fatalf("undoctored image: %v", err)
	}
	img, err := os.ReadFile(kindPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.NativeEndian.PutUint32(img[offKind:], KindCode(dbscan.IndexRTree))
	if err := os.WriteFile(kindPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	stamp(t, kindPath)
	if _, _, err := Load(kindPath); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("grid section on an R-tree header: err=%v, want ErrSnapshotCorrupt", err)
	}
}

// TestWALRoundTrip appends batches and replays them back in order.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	var want []geom.Point
	for _, n := range []int{1, 3, 0, 128} {
		batch := testPoints(n, int64(n))
		if err := w.Append(batch); err != nil {
			t.Fatalf("Append(%d): %v", n, err)
		}
		want = append(want, batch...)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Reopen and append more: the log is append-only across opens.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	more := testPoints(5, 99)
	if err := w2.Append(more); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	w2.Close()
	got, err = ReplayWAL(path)
	if err != nil {
		t.Fatalf("ReplayWAL after reopen: %v", err)
	}
	if len(got) != len(want)+5 {
		t.Fatalf("replayed %d points, want %d", len(got), len(want)+5)
	}
}

// TestWALPartialTail simulates a crash mid-append: every truncation point
// inside the final record must yield the full earlier prefix plus
// ErrWALPartial, and a corrupted tail CRC likewise.
func TestWALPartialTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	first := testPoints(10, 1)
	second := testPoints(7, 2)
	if err := w.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(second); err != nil {
		t.Fatal(err)
	}
	w.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := 4 + len(first)*16 + 4

	for cut := firstLen + 1; cut < len(img); cut += 13 {
		p := filepath.Join(dir, "cut")
		if err := os.WriteFile(p, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReplayWAL(p)
		if !errors.Is(err, ErrWALPartial) {
			t.Fatalf("cut=%d: err=%v, want ErrWALPartial", cut, err)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("cut=%d: ErrWALPartial must wrap ErrSnapshotCorrupt", cut)
		}
		if len(got) != len(first) {
			t.Fatalf("cut=%d: prefix %d points, want %d", cut, len(got), len(first))
		}
	}

	// Flip a payload byte in the tail record: prefix survives, tail drops.
	bad := append([]byte(nil), img...)
	bad[firstLen+6] ^= 0x20
	p := filepath.Join(dir, "flip")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWAL(p)
	if !errors.Is(err, ErrWALPartial) {
		t.Fatalf("flipped tail: err=%v", err)
	}
	if len(got) != len(first) {
		t.Fatalf("flipped tail: prefix %d points, want %d", len(got), len(first))
	}

	// A record claiming an absurd count must not drive an allocation.
	huge := append([]byte(nil), img[:firstLen]...)
	var cnt [4]byte
	binary.NativeEndian.PutUint32(cnt[:], 1<<31)
	huge = append(huge, cnt[:]...)
	p = filepath.Join(dir, "huge")
	if err := os.WriteFile(p, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReplayWAL(p)
	if !errors.Is(err, ErrWALPartial) || len(got) != len(first) {
		t.Fatalf("huge count: got %d points, err=%v", len(got), err)
	}

	// Missing file: empty history, no error.
	if pts, err := ReplayWAL(filepath.Join(dir, "absent")); pts != nil || err != nil {
		t.Fatalf("missing wal: %v, %v", pts, err)
	}
}

// FuzzLoadSnapshot mutates a valid snapshot image, re-stamps the
// checksum so mutations reach the structural validators, and requires
// Load to either succeed or fail typed — never panic.
func FuzzLoadSnapshot(f *testing.F) {
	_, parts := buildFrozen(f, testPoints(200, 5), dbscan.IndexGrid, 1.5)
	seedPath := filepath.Join(f.TempDir(), "seed")
	if err := Save(seedPath, parts, 3); err != nil {
		f.Fatalf("Save: %v", err)
	}
	img, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), 0, byte(0xff))
	f.Add(int64(2), len(img)/2, byte(0x01))
	f.Fuzz(func(t *testing.T, seed int64, pos int, x byte) {
		rnd := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), img...)
		if pos >= 0 && pos < len(b) {
			b[pos] ^= x
		}
		for i := 0; i < 8; i++ {
			b[rnd.Intn(len(b))] ^= byte(1 << rnd.Intn(8))
		}
		if rnd.Intn(2) == 0 {
			b = b[:rnd.Intn(len(b)+1)]
		}
		if len(b) >= offChecksum+4 {
			binary.NativeEndian.PutUint32(b[offChecksum:], checksumOf(b))
		}
		path := filepath.Join(t.TempDir(), "fuzz")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, _, err := Load(path)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// A mutation that survives every check must still be servable.
		if ix.Len() >= 0 {
			_ = ix.NeighborSearch(geom.Point{X: 25, Y: 25}, 1.5, &metrics.Counters{}, nil)
		}
	})
}

// benchSizes are the restart-economics scales EXPERIMENTS.md reports: the
// repo's usual 1%-scale working set and a full paper-scale 1M-point set.
var benchSizes = []int{100_000, 1_000_000}

func BenchmarkSave(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := dbscan.BuildIndex(testPoints(n, 21), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
			parts, err := ix.FrozenParts()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "snapshot")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Save(path, parts, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoad(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := dbscan.BuildIndex(testPoints(n, 21), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
			parts, err := ix.FrozenParts()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "snapshot")
			if err := Save(path, parts, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Load(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdStart is what a restart costs WITHOUT a snapshot: re-parse
// the dataset's CSV, re-freeze the index, and run the first clustering
// job — the upload path a warm restart skips.
func BenchmarkColdStart(b *testing.B) {
	params := dbscan.Params{Eps: 0.4, MinPts: 4}
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			ds := &data.Dataset{Name: "bench", Points: testPoints(n, 21)}
			if err := dataio.WriteCSV(&buf, ds); err != nil {
				b.Fatal(err)
			}
			csv := buf.Bytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parsed, err := dataio.ReadCSV(bytes.NewReader(csv))
				if err != nil {
					b.Fatal(err)
				}
				ix := dbscan.BuildIndex(parsed.Points, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
				if _, err := dbscan.Run(ix, params, &metrics.Counters{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmStart is the same time-to-first-labels through the durable
// store: mmap + validate the snapshot, then run the first job against the
// mapped arrays.
func BenchmarkWarmStart(b *testing.B) {
	params := dbscan.Params{Eps: 0.4, MinPts: 4}
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := dbscan.BuildIndex(testPoints(n, 21), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
			parts, err := ix.FrozenParts()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "snapshot")
			if err := Save(path, parts, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, _, err := Load(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dbscan.Run(loaded, params, &metrics.Counters{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
