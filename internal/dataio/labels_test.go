package dataio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"vdbscan/internal/cluster"
)

// labelsOf returns n labels cycling through raw's little-endian int32s, or
// all noise when raw holds none.
func labelsOf(raw []byte, n int) []int32 {
	vals := []int32{cluster.Noise}
	if len(raw) >= 4 {
		vals = vals[:0]
		for ; len(raw) >= 4; raw = raw[4:] {
			vals = append(vals, int32(binary.LittleEndian.Uint32(raw)))
		}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = vals[i%len(vals)]
	}
	return labels
}

func int32s(vs ...int32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// FuzzWriteLabelsCSVMatchesReference: for any int32 labels and any
// NumClusters, WriteLabelsCSV writes the reference encoder's bytes, and
// LabelsCSVLen is their count. The body has 10^(decade%7) + off labels, so
// the seeds put it on both sides of every index decade up to 10^6.
func FuzzWriteLabelsCSVMatchesReference(f *testing.F) {
	mixed := int32s(-1, 1, 2, 0, 4094, 4095, -2, math.MinInt32, math.MaxInt32, 17)
	for decade := uint8(0); decade <= 6; decade++ {
		for _, off := range []int16{-2, -1, 0, 1} {
			f.Add(decade, off, 3, mixed)
		}
	}
	f.Add(uint8(0), int16(-1), 0, []byte(nil))                        // no labels
	f.Add(uint8(3), int16(0), -5, int32s(-1, -1, 0))                  // NumClusters below -1
	f.Add(uint8(4), int16(0), 4094, int32s(4094, 4095, 1, -1))        // the table's top entry and the next
	f.Add(uint8(4), int16(0), math.MaxInt32, int32s(5000, 1, 70, -1)) // the table bounded under a huge K
	f.Add(uint8(2), int16(7), math.MinInt64, int32s(math.MinInt32))
	f.Add(uint8(2), int16(7), math.MaxInt64, int32s(math.MaxInt32))
	f.Fuzz(func(t *testing.T, decade uint8, off int16, k int, raw []byte) {
		n := max(0, int(math.Pow10(int(decade%7)))+int(off))
		res := &cluster.Result{Labels: labelsOf(raw, n), NumClusters: k}
		var got, want bytes.Buffer
		if err := WriteLabelsCSV(&got, res); err != nil {
			t.Fatal(err)
		}
		if err := writeLabelsCSVReference(&want, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("n=%d k=%d: bytes differ from the reference at offset %d of %d (got %d)", n, k, i, want.Len(), got.Len())
		}
		if l := LabelsCSVLen(res); l != int64(want.Len()) {
			t.Fatalf("n=%d k=%d: LabelsCSVLen = %d, body is %d bytes", n, k, l, want.Len())
		}
	})
}

// maxWriter discards what it is given and records the largest write.
type maxWriter struct{ max int }

func (w *maxWriter) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return len(p), nil
}

// TestLabelsCSVAllocs: WriteLabelsCSV and LabelsCSVLen allocate the same
// few objects, and no more than one buffer and a full label table, whatever
// the number of labels and NumClusters: a body is streamed, never built
// whole, and the table stops growing at labelTableMax. No write is over
// 32 KiB.
func TestLabelsCSVAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var writeAllocs, lenAllocs float64
	for _, n := range []int{10000, 512 << 10} {
		for _, k := range []int{40, math.MaxInt32} {
			res := &cluster.Result{Labels: make([]int32, n), NumClusters: k}
			for i := range res.Labels {
				res.Labels[i] = int32(rng.Intn(5000)) - 1
			}
			var w maxWriter
			wa := testing.AllocsPerRun(3, func() {
				if err := WriteLabelsCSV(&w, res); err != nil {
					t.Fatal(err)
				}
			})
			la := testing.AllocsPerRun(3, func() { LabelsCSVLen(res) })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			WriteLabelsCSV(&w, res)
			LabelsCSVLen(res)
			runtime.ReadMemStats(&after)
			if b, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<10+2*8*(labelTableMax+2)+4<<10); b > limit {
				t.Errorf("n=%d k=%d: WriteLabelsCSV and LabelsCSVLen allocate %d B, want at most %d", n, k, b, limit)
			}
			if writeAllocs == 0 {
				writeAllocs, lenAllocs = wa, la
			}
			if wa != writeAllocs || la != lenAllocs || wa > 2 || la > 1 {
				t.Errorf("n=%d k=%d: WriteLabelsCSV %v allocs, LabelsCSVLen %v; want at most 2 and 1, the same at every n and k",
					n, k, wa, la)
			}
			if w.max > 32<<10 {
				t.Errorf("n=%d k=%d: a write of %d B, want at most 32 KiB", n, k, w.max)
			}
		}
	}
}

// TestNextIndex steps the encoder's packed row index across every decade
// up to 10^8, where it hands over to strconv at width 9, against
// strconv.Itoa.
func TestNextIndex(t *testing.T) {
	for p := 1; p <= 1e8; p *= 10 {
		i := max(0, p-12)
		s := strconv.Itoa(i)
		var idx uint64
		for _, c := range []byte(s) {
			idx = idx<<8 | uint64(c)
		}
		for width := len(s); width <= 8 && i < p+12; i++ {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], bits.ReverseBytes64(idx)>>(64-8*width))
			if got := string(b[:width]); got != strconv.Itoa(i) {
				t.Fatalf("index %d reads %q", i, got)
			}
			idx, width = nextIndex(idx, width)
			if i+1 == 1e8 && width != 9 {
				t.Fatalf("after 99999999 the width is %d, want 9", width)
			}
		}
	}
}
