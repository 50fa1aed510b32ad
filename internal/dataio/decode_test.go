package dataio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
)

// matchReference fails t unless ReadCSV and readCSVReference give the
// same error string, or the same provenance, the same nil-ness of Points
// and the same bits in every coordinate. mkReader returns a fresh reader
// over the same bytes on each call.
func matchReference(t testing.TB, what string, mkReader func() io.Reader) {
	t.Helper()
	got, gotErr := ReadCSV(mkReader())
	want, wantErr := readCSVReference(mkReader())
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, reference %v", what, gotErr, wantErr)
		}
		return
	}
	if got.Name != want.Name || got.SynthClusters != want.SynthClusters || got.Seed != want.Seed ||
		math.Float64bits(got.NoiseFrac) != math.Float64bits(want.NoiseFrac) {
		t.Fatalf("%s: provenance %q %v %d %d, reference %q %v %d %d", what,
			got.Name, got.NoiseFrac, got.SynthClusters, got.Seed,
			want.Name, want.NoiseFrac, want.SynthClusters, want.Seed)
	}
	if (got.Points == nil) != (want.Points == nil) || len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points (nil %v), reference %d (nil %v)", what,
			len(got.Points), got.Points == nil, len(want.Points), want.Points == nil)
	}
	for i, p := range got.Points {
		q := want.Points[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			t.Fatalf("%s: point %d = %v, reference %v", what, i, p, q)
		}
	}
}

type reader struct {
	name string
	wrap func(io.Reader) io.Reader
}

// readers are the ways a body reaches the decoder: whole reads, one byte
// at a time, half of each read, and the last data together with io.EOF.
var readers = []reader{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// matchReferenceAllReaders runs matchReference on body through every
// reader of readers.
func matchReferenceAllReaders(t testing.TB, what string, body []byte) {
	t.Helper()
	matchReferenceReaders(t, what, body, readers)
}

func matchReferenceReaders(t testing.TB, what string, body []byte, rds []reader) {
	t.Helper()
	for _, rd := range rds {
		matchReference(t, what+"/"+rd.name, func() io.Reader { return rd.wrap(bytes.NewReader(body)) })
	}
}

// FuzzReadCSVMatchesReference holds the block decoder to the
// line-at-a-time parser it replaced, on arbitrary bodies and through
// every reader shape.
func FuzzReadCSVMatchesReference(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("# name: x\n# seed: 9\n1.5,2.5\r\n\n  3 , 4 \n")
	f.Add("")
	f.Add("\n\n\r\n")
	f.Add("a,b\n")
	f.Add("1,2,3\n")
	f.Add("1\n")
	f.Add("1,2\n3,")
	f.Add("# noise_frac: 0.3\n# synth_clusters: 4\nNaN,Inf\n-0,0x1p-3\n")
	f.Add("1,2\n#\n# name:\n#name:y\n5e400,1\n")
	f.Add("\t1,\v2 \n\u00851,2\n")
	f.Add(strings.Repeat("0,0\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		matchReferenceAllReaders(t, "fuzz", []byte(input))
	})
}

// mixedBody returns at least size bytes of rows of every kind the decoder
// accepts: 'g'-formatted points, padded and CRLF rows, blank lines and
// '#' headers.
func mixedBody(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.Grow(size + 64)
	for b.Len() < size {
		x := strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64)
		y := strconv.FormatFloat(rng.Float64()*360, 'g', -1, 64)
		switch rng.Intn(40) {
		case 0:
			b.WriteString("\n")
		case 1:
			fmt.Fprintf(&b, "# name: part-%d\n", b.Len())
		case 2:
			fmt.Fprintf(&b, "  # seed: %d\r\n", rng.Intn(1000))
		case 3:
			fmt.Fprintf(&b, "  %s ,\t%s  \n", x, y)
		case 4:
			fmt.Fprintf(&b, "%s,%s\r\n", x, y)
		case 5:
			b.WriteString("   \r\n")
		default:
			fmt.Fprintf(&b, "%s,%s\n", x, y)
		}
	}
	return b.Bytes()
}

// lineAt returns the bounds [lo, hi) of the line holding byte off of body,
// its '\n' excluded.
func lineAt(body []byte, off int) (lo, hi int) {
	lo = bytes.LastIndexByte(body[:off], '\n') + 1
	hi = len(body)
	if i := bytes.IndexByte(body[off:], '\n'); i >= 0 {
		hi = off + i
	}
	return lo, hi
}

// withLine returns a copy of body with the line holding byte off replaced
// by line.
func withLine(body []byte, off int, line string) []byte {
	lo, hi := lineAt(body, off)
	out := append([]byte(nil), body[:lo]...)
	out = append(out, line...)
	return append(out, body[hi:]...)
}

// errAfter reads at most k bytes of r, then fails.
type errAfter struct {
	r io.Reader
	k int
}

var errBroken = errors.New("connection reset")

func (e *errAfter) Read(p []byte) (int, error) {
	if e.k == 0 {
		return 0, errBroken
	}
	n, err := e.r.Read(p[:min(len(p), e.k)])
	e.k -= n
	return n, err
}

// TestReadCSVBlockBoundaries holds the decoder to the reference on a body
// that spans several blocks, with malformed rows, over-long lines and read
// errors placed at block edges, at the cut between parallel ranges and
// inside later blocks.
func TestReadCSVBlockBoundaries(t *testing.T) {
	body := mixedBody(3<<20+1000, 1)
	matchReferenceAllReaders(t, "clean", body)

	// Offsets of the block edges a plain reader produces (each block is
	// one full buffer, cut at its last '\n'; the buffer grows fourfold
	// from firstBlock to maxLine), the middle of the first maxLine block,
	// where two parallel ranges meet, a point later in it, and the edge
	// after it.
	edge1 := firstBlock
	edge2 := edge1 + 4*firstBlock
	big := 0 // where the first maxLine block starts
	for size := firstBlock; size < maxLine; size *= 4 {
		big += size
	}
	offs := []int{edge1, edge2, big + maxLine/2, big + maxLine*3/4, big + maxLine, len(body) - 1}
	bad := []string{"1,2,3", "x,1", "1,y", "1", "1;2", ",", "1,2,"}
	for i, off := range offs {
		for _, d := range []int{-40, -1, 0, 1, 40} {
			row := bad[(i+d+len(bad)*50)%len(bad)]
			matchReference(t, fmt.Sprintf("bad %q at %d%+d", row, off, d), func() io.Reader {
				return bytes.NewReader(withLine(body, min(off+d, len(body)-1), row))
			})
		}
		matchReferenceAllReaders(t, fmt.Sprintf("bad at %d", off), withLine(body, off, bad[i%len(bad)]))
	}
	// Two malformed rows: the first by line is reported, wherever the
	// ranges cut.
	two := withLine(withLine(body, big+maxLine*3/4, "late,1,1"), big+maxLine/4, "early")
	matchReferenceAllReaders(t, "two bad rows", two)
	if _, err := ReadCSV(bytes.NewReader(two)); err == nil || !strings.Contains(err.Error(), `"early"`) {
		t.Fatalf("two bad rows: err = %v, want the earlier row", err)
	}

	// A line of exactly the limit (its '\n' included), one byte under it
	// and one byte over it, mid-body and as the final line. One byte at a
	// time, the reference rescans the whole partial line after every
	// read, so those lines skip the one-byte reader.
	long := append(readers[:1:1], readers[2:]...)
	for _, size := range []int{maxLine - 1, maxLine, maxLine + 1} {
		line := strings.Repeat(" ", size-len("7,8\n")) + "7,8"
		mid := withLine(body, edge2+1000, line)
		matchReferenceReaders(t, fmt.Sprintf("line of %d bytes", size), mid, long)
		_, err := ReadCSV(bytes.NewReader(mid))
		if tooLong := errors.Is(err, bufio.ErrTooLong); tooLong != (size > maxLine) {
			t.Fatalf("line of %d bytes: err = %v", size, err)
		}
		last := append(append([]byte(nil), body[:edge2]...), line...)
		matchReferenceReaders(t, fmt.Sprintf("final line of %d bytes", size-1), last, long)
	}

	// A read error after k bytes, mid-line or at a line's start: the rows
	// before it are parsed first, a partial last one included, so a
	// malformed row ahead of it is what gets reported.
	for _, k0 := range []int{0, 5, edge1 - 1, edge1, edge2 + 17, big + maxLine/2, len(body) - 3} {
		start, _ := lineAt(body, k0)
		for _, k := range []int{k0, start} {
			matchReference(t, fmt.Sprintf("read error after %d", k), func() io.Reader {
				return &errAfter{r: bytes.NewReader(body), k: k}
			})
			if k > 100 {
				broken := withLine(body, k-100, "1,2,3")
				matchReference(t, fmt.Sprintf("bad row then read error after %d", k), func() io.Reader {
					return &errAfter{r: bytes.NewReader(broken), k: k}
				})
				if _, err := ReadCSV(&errAfter{r: bytes.NewReader(broken), k: k}); err == nil || errors.Is(err, errBroken) {
					t.Fatalf("bad row then read error after %d: err = %v, want the row's", k, err)
				}
			}
		}
		if _, err := ReadCSV(&errAfter{r: bytes.NewReader(body), k: start}); !errors.Is(err, errBroken) {
			t.Fatalf("read error after %d: err = %v", start, err)
		}
	}
}

var benchSink *data.Dataset

// harnessBody returns n points in the benchmark harness's 'g', -1 format.
func harnessBody(tb testing.TB, n int) []byte {
	tb.Helper()
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: n, NoiseFrac: 0.1, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	var body bytes.Buffer
	for _, p := range ds.Points {
		body.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		body.WriteByte(',')
		body.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
		body.WriteByte('\n')
	}
	return body.Bytes()
}

// TestReadCSVSmallBodyAllocs: an append's body, 256 points or ~9.5 KB, is
// read through a buffer about its own size, not a large first one.
func TestReadCSVSmallBodyAllocs(t *testing.T) {
	body := harnessBody(t, 256)
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadCSV(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 32<<10 {
		t.Errorf("a 256-point body allocates %d B per decode, want < 32 KiB", per)
	}
}

// BenchmarkReadCSV decodes a 50 000-point body, an upload's size, and a
// 256-point one, an append's, in the benchmark harness's 'g', -1 format.
func BenchmarkReadCSV(b *testing.B) {
	for _, n := range []int{50000, 256} {
		body := harnessBody(b, n)
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := ReadCSV(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ds
			}
		})
	}
}

var labelsSink int64

// BenchmarkWriteLabelsCSV encodes 10 000 labels, about a service job's
// body, and 512 Ki, scratch-512k's, over 40 clusters and noise; it
// reports ns per row. The reference encoder runs beside it.
func BenchmarkWriteLabelsCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10000, 512 << 10} {
		res := &cluster.Result{Labels: make([]int32, n), NumClusters: 40}
		for i := range res.Labels {
			res.Labels[i] = int32(rng.Intn(41))
			if res.Labels[i] == 0 {
				res.Labels[i] = cluster.Noise
			}
		}
		for _, enc := range []struct {
			name  string
			write func(io.Writer, *cluster.Result) error
		}{{"table", WriteLabelsCSV}, {"reference", writeLabelsCSVReference}} {
			b.Run(enc.name+"/labels="+strconv.Itoa(n), func(b *testing.B) {
				b.SetBytes(LabelsCSVLen(res))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := enc.write(io.Discard, res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
		b.Run("len/labels="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labelsSink = LabelsCSVLen(res)
			}
		})
	}
}
