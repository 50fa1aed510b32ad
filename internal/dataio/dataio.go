// Package dataio persists datasets and clustering results as CSV.
//
// A dataset file is one "x,y" row per point, with "# key: value" header
// comments carrying its provenance; coordinates are written in the
// shortest form that parses back to the same float64, so a file loses no
// field. The layout is interoperable with external tools and with the
// paper's published dbscandat archive. A clustering is one "index,label"
// row per point.
package dataio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/forkjoin"
	"vdbscan/internal/geom"
)

// WriteCSV writes ds as CSV with a provenance header.
func WriteCSV(w io.Writer, ds *data.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name: %s\n", ds.Name)
	fmt.Fprintf(bw, "# points: %d\n", ds.Len())
	fmt.Fprintf(bw, "# noise_frac: %g\n", ds.NoiseFrac)
	fmt.Fprintf(bw, "# synth_clusters: %d\n", ds.SynthClusters)
	fmt.Fprintf(bw, "# seed: %d\n", ds.Seed)
	for _, p := range ds.Points {
		if _, err := fmt.Fprintf(bw, "%s,%s\n",
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64)); err != nil {
			return fmt.Errorf("dataio: write csv: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV. Header comments are
// optional; bare "x,y" files load with default provenance.
//
// The body is decoded a block at a time, with no allocation per row. A
// block is one read buffer, cut at its last '\n'; the partial line after
// the cut is carried over to the next block. The buffer starts at
// firstBlock bytes and grows fourfold, up to maxLine, each time a read
// fills it, so a small body never allocates the largest buffer. A block is
// cut at newline boundaries into one range per core, of at least
// rangeBytes each, that parse in parallel into slots of one point slice;
// their points are appended and their headers applied in range order, so
// the result does not depend on the width.
//
// Results and errors are those of a line-at-a-time bufio.Scanner loop:
// blank lines are skipped, '#' lines are headers, a data line has exactly
// one comma, and the first malformed line is reported with its number. A
// line (with its '\n') longer than maxLine is refused with
// bufio.ErrTooLong. On a read error the data read before it, a final
// partial line included, is parsed first, so a malformed line ahead of the
// error is what gets reported. Points is nil when no point was read.
func ReadCSV(r io.Reader) (*data.Dataset, error) {
	d := csvDecoder{ds: &data.Dataset{Name: "unnamed", NoiseFrac: -1}}
	buf := make([]byte, firstBlock)
	end, empties := 0, 0 // buf[:end] is unparsed: a carried partial line, then fresh reads
	var rerr error
	for {
		n, err := r.Read(buf[end:])
		end += n
		if err != nil {
			rerr = err
			break
		}
		if n == 0 {
			if empties++; empties > maxEmptyReads {
				rerr = io.ErrNoProgress
				break
			}
			continue
		}
		empties = 0
		if end < len(buf) {
			continue
		}
		cut := bytes.LastIndexByte(buf, '\n') + 1
		if cut == 0 && len(buf) == maxLine {
			return nil, fmt.Errorf("dataio: read csv: %w", bufio.ErrTooLong)
		}
		if err := d.block(buf[:cut]); err != nil {
			return nil, err
		}
		if len(buf) < maxLine {
			grown := make([]byte, min(4*len(buf), maxLine))
			copy(grown, buf[cut:end])
			buf = grown
		} else {
			copy(buf, buf[cut:end])
		}
		end -= cut
	}
	if err := d.block(buf[:end]); err != nil {
		return nil, err
	}
	if rerr != io.EOF {
		return nil, fmt.Errorf("dataio: read csv: %w", rerr)
	}
	if len(d.ds.Points) == 0 {
		d.ds.Points = nil
	}
	return d.ds, nil
}

const (
	// firstBlock is the first read buffer's size; a body that fits in it
	// allocates no larger one.
	firstBlock = 4 << 10
	// maxLine is the largest read buffer, and so the longest line, with
	// its '\n', that ReadCSV accepts: bufio.Scanner's limit as it was set.
	maxLine = 1 << 20
	// rangeBytes is the fewest bytes a parallel range is given, about
	// 900 points or 0.3 ms of strconv.ParseFloat: a smaller block parses
	// on the calling goroutine.
	rangeBytes = 32 << 10
	// maxEmptyReads is how many reads in a row may return neither data nor
	// an error before ReadCSV gives up, as bufio.Scanner does.
	maxEmptyReads = 100
)

// csvDecoder carries ReadCSV's state across blocks.
type csvDecoder struct {
	ds    *data.Dataset
	lines int        // lines decoded so far: the next line is number lines+1
	parts []csvRange // one per parallel range, reused across blocks
}

// csvRange is one contiguous run of whole lines of a block and what
// parsing it produced.
type csvRange struct {
	text    []byte
	line    int      // number of the line before the range's first
	at      int      // the range's first slot among the block's, one per line
	n       int      // points parsed, into slots at..at+n
	headers [][]byte // '#' lines, in order, as slices of the block
	err     error    // the range's first malformed line
}

// block parses b, whole lines only but for the body's final partial line.
func (d *csvDecoder) block(b []byte) error {
	w := max(1, min(runtime.GOMAXPROCS(0), len(b)/rangeBytes))
	if cap(d.parts) < w {
		d.parts = make([]csvRange, w)
	}
	parts := d.parts[:w]
	lines, lo := 0, 0
	for k := range parts {
		hi := len(b)
		if k < w-1 {
			hi = max(lo, forkjoin.Cut(len(b), w, k+1))
			if i := bytes.IndexByte(b[hi:], '\n'); i >= 0 {
				hi += i + 1
			} else {
				hi = len(b)
			}
		}
		parts[k] = csvRange{text: b[lo:hi], line: d.lines + lines, at: lines, headers: parts[k].headers[:0]}
		lines, lo = lines+countLines(b[lo:hi]), hi
	}
	base := len(d.ds.Points)
	pts := slices.Grow(d.ds.Points, lines)
	slots := pts[base : base+lines]
	forkjoin.Do(w, func(k int) { parts[k].parse(slots[parts[k].at:]) })
	for k := range parts {
		p := &parts[k]
		for _, h := range p.headers {
			parseHeader(d.ds, string(h))
		}
		if p.err != nil {
			return p.err
		}
		if base+p.at == len(pts) {
			pts = pts[:len(pts)+p.n] // already in place
		} else {
			pts = append(pts, slots[p.at:p.at+p.n]...)
		}
	}
	d.ds.Points, d.lines = pts, d.lines+lines
	return nil
}

// countLines returns the number of lines in b: its '\n's, and one more
// for a final line without one.
func countLines(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// parse decodes the range's lines into pts, one slot per line, stopping
// at the first malformed one.
func (p *csvRange) parse(pts []geom.Point) {
	rest, line := p.text, p.line
	for len(rest) > 0 {
		text := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line++
		// TrimSpace also drops the '\r' of a CRLF line ending.
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		if text[0] == '#' {
			p.headers = append(p.headers, text)
			continue
		}
		comma := bytes.IndexByte(text, ',')
		if comma < 0 || bytes.IndexByte(text[comma+1:], ',') >= 0 {
			p.err = fmt.Errorf("dataio: line %d: expected x,y got %q", line, text)
			return
		}
		x, err := strconv.ParseFloat(string(bytes.TrimSpace(text[:comma])), 64)
		if err != nil {
			p.err = fmt.Errorf("dataio: line %d: bad x: %w", line, err)
			return
		}
		y, err := strconv.ParseFloat(string(bytes.TrimSpace(text[comma+1:])), 64)
		if err != nil {
			p.err = fmt.Errorf("dataio: line %d: bad y: %w", line, err)
			return
		}
		pts[p.n] = geom.Point{X: x, Y: y}
		p.n++
	}
}

func parseHeader(ds *data.Dataset, text string) {
	body := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	key, value, ok := strings.Cut(body, ":")
	if !ok {
		return
	}
	value = strings.TrimSpace(value)
	switch strings.TrimSpace(key) {
	case "name":
		ds.Name = value
	case "noise_frac":
		if f, err := strconv.ParseFloat(value, 64); err == nil {
			ds.NoiseFrac = f
		}
	case "synth_clusters":
		if n, err := strconv.Atoi(value); err == nil {
			ds.SynthClusters = n
		}
	case "seed":
		if n, err := strconv.ParseUint(value, 10, 64); err == nil {
			ds.Seed = n
		}
	}
}

// SaveDataset writes ds to path as CSV (WriteCSV).
func SaveDataset(path string, ds *data.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	if err := WriteCSV(f, ds); err != nil {
		return err
	}
	return f.Close()
}

// LoadDataset reads a CSV dataset from path (ReadCSV).
func LoadDataset(path string) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteLabelsCSV writes a clustering as "index,label" rows. Labels use the
// cluster package's convention (-1 noise, 1..K clusters). The bytes are
// those of "# clusters: %d\n" then "%d,%d\n" per label, exactly
// LabelsCSVLen(res) of them, streamed in chunks of about 32 KiB from one
// reused buffer, so the body is never held whole. The index is a decimal
// counter incremented in place, and each label's ",<l>\n" comes from
// labelTable.
func WriteLabelsCSV(w io.Writer, res *cluster.Result) error {
	// row bounds one row: a 19-digit index and ",-2147483648\n". The 8-byte
	// stores of the fast paths reach no further.
	const size, row = 32 << 10, 19 + 13
	tab := labelTable(res.NumClusters)
	buf := make([]byte, size)
	n := len(strconv.AppendInt(append(buf[:0], "# clusters: "...), int64(res.NumClusters), 10))
	buf[n] = '\n'
	n++
	idx, width := uint64('0'), 1 // the row index while it has at most 8 digits
	for i, l := range res.Labels {
		if n > size-row {
			if _, err := w.Write(buf[:n]); err != nil {
				return fmt.Errorf("dataio: write labels: %w", err)
			}
			n = 0
		}
		if width <= 8 {
			binary.LittleEndian.PutUint64(buf[n:], bits.ReverseBytes64(idx)>>(64-8*width))
			n += width
			if idx&0xff < '9' {
				idx++ // the last digit, lowest
			} else {
				idx, width = nextIndex(idx, width)
			}
		} else {
			n = len(strconv.AppendInt(buf[:n], int64(i), 10))
		}
		if j := uint(int(l) + 1); j < uint(len(tab)) {
			// The store's top byte, the length, lands past the text, where
			// the next row overwrites it or the write leaves it out.
			e := tab[j]
			binary.LittleEndian.PutUint64(buf[n:], e)
			n += int(e >> 56)
		} else {
			n = len(strconv.AppendInt(append(buf[:n], ','), int64(l), 10))
			buf[n] = '\n'
			n++
		}
	}
	if _, err := w.Write(buf[:n]); err != nil {
		return fmt.Errorf("dataio: write labels: %w", err)
	}
	return nil
}

// LabelsCSVLen returns the number of bytes WriteLabelsCSV writes for res,
// for a Content-Length set before the body streams. The index digits are
// summed per decade; the labels' lengths come from WriteLabelsCSV's table.
func LabelsCSVLen(res *cluster.Result) int64 {
	var b [20]byte // an int64's digits, for the header and any label off the table
	n := int64(len(res.Labels))
	total := int64(len("# clusters: \n")+len(strconv.AppendInt(b[:0], int64(res.NumClusters), 10))) + n
	// Every index has one digit, and one more for each power of ten,
	// from 10 on, that it reaches.
	for p := int64(10); p < n; p *= 10 {
		total += n - p
	}
	tab := labelTable(res.NumClusters)
	for _, l := range res.Labels {
		if j := uint(int(l) + 1); j < uint(len(tab)) {
			total += int64(tab[j] >> 56)
		} else {
			total += int64(2 + len(strconv.AppendInt(b[:0], int64(l), 10)))
		}
	}
	return total
}

// labelTableMax is the largest label the table holds, so a full table is
// 4096 entries, 32 KiB. The bound does not depend on NumClusters, which a
// caller may set as high as it likes; a label outside -1..labelTableMax is
// formatted by strconv.
const labelTableMax = 4094

// labelTable returns the ",<l>\n" text of each label l in -1..min(k,
// labelTableMax), at l+1, packed for one 8-byte little-endian store: the
// text in the low bytes and its length in the top one. The longest,
// ",4094\n", takes 6 of the 7 text bytes.
func labelTable(k int) []uint64 {
	hi := max(0, min(k, labelTableMax))
	tab := make([]uint64, hi+2)
	for l := -1; l <= hi; l++ {
		var b [8]byte
		t := strconv.AppendInt(append(b[:0], ','), int64(l), 10)
		b[len(t)] = '\n'
		b[7] = byte(len(t) + 1)
		tab[l+1] = binary.LittleEndian.Uint64(b[:])
	}
	return tab
}

// nextIndex returns the successor of a row index of width decimal digits,
// kept as ASCII in the low width bytes of idx, last digit lowest. Trailing
// 9s turn to 0s and the digit above them steps up, or a '1' is put in
// front; past 99999999 the width is 9 and idx is no longer used.
func nextIndex(idx uint64, width int) (uint64, int) {
	const nines, zeros = 0x3939393939393939, 0x3030303030303030
	k := uint(bits.TrailingZeros64(idx^nines)) / 8 // trailing 9s
	low := uint64(1)<<(8*k) - 1
	idx = idx&^low | zeros&low
	if int(k) == width {
		return idx | '1'<<(8*k), width + 1
	}
	return idx + 1<<(8*k), width
}
