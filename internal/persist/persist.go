package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/rtree"
)

// Info summarizes a loaded (or just-written) snapshot.
type Info struct {
	// Points is the dataset size.
	Points int
	// R is the ε-search tree's leaf occupancy.
	R int
	// Kind is the ε-search substrate the dataset was frozen with.
	Kind dbscan.IndexKind
	// Sequence is the caller-supplied monotonic tag (the registry stores
	// the dataset's install version here, pairing snapshots with WALs).
	Sequence uint64
	// Bytes is the on-disk snapshot size.
	Bytes int64
	// Mapped is true when the arrays are served from an mmap of the file
	// (false on platforms without mmap, where the file is read to heap).
	Mapped bool
}

// Save writes parts as a snapshot at path, atomically: the image is
// streamed to a temp file in the same directory, fsynced, and renamed
// over path, so a crash at any instant leaves either the old snapshot or
// the new one — never a torn file. seq is the caller's monotonic tag,
// echoed back by Load.
func Save(path string, parts dbscan.FrozenParts, seq uint64) (err error) {
	h, sections := layout(parts, seq)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	// Stream header + sections through one buffered, checksumming writer.
	// The header goes out with a zero checksum field — exactly what the
	// checksum is defined over — and the real value is patched in with
	// WriteAt afterwards, which cannot tear a 4-byte write.
	w := &checkWriter{w: bufio.NewWriterSize(tmp, 1<<20), crc: crc32.New(castagnoli)}
	if err = w.write(encodeHeader(h)); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	for i, sec := range sections {
		if len(sec) == 0 {
			continue
		}
		if err = w.padTo(h.secs[i].off); err != nil {
			return fmt.Errorf("persist: save: %w", err)
		}
		if err = w.write(sec); err != nil {
			return fmt.Errorf("persist: save: %w", err)
		}
	}
	if err = w.padTo(h.totalSize); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	if err = w.w.(*bufio.Writer).Flush(); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	var sum [4]byte
	binary.NativeEndian.PutUint32(sum[:], w.crc.Sum32())
	if _, err = tmp.WriteAt(sum[:], offChecksum); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: save: %w", err)
	}
	syncDir(dir) // make the rename itself durable; best-effort
	return nil
}

// layout computes the header and the ordered per-section byte views for
// parts. Sections are laid out in index order, each starting on a page
// boundary; empty sections get a zero span.
func layout(parts dbscan.FrozenParts, seq uint64) (header, [numSections][]byte) {
	var sections [numSections][]byte
	sections[secPts] = ptBytes(parts.Pts)
	sections[secX] = f64Bytes(parts.X)
	sections[secY] = f64Bytes(parts.Y)
	sections[secFwd] = intBytes(parts.Fwd)
	fillTree := func(base int, p rtree.FlatParts) {
		sections[base+0] = f64Bytes(p.EntMinX)
		sections[base+1] = f64Bytes(p.EntMinY)
		sections[base+2] = f64Bytes(p.EntMaxX)
		sections[base+3] = f64Bytes(p.EntMaxY)
		sections[base+4] = i32Bytes(p.EntRef)
		sections[base+5] = i32Bytes(p.EntCnt)
		sections[base+6] = i32Bytes(p.NodeEnt)
	}
	h := header{
		kind:     KindCode(parts.Kind),
		nPoints:  int64(len(parts.Pts)),
		sequence: seq,
		low:      treeMeta{r: int32(parts.R)},
	}
	if parts.Low != nil {
		fillTree(secLowMinX, *parts.Low)
		h.low = treeMeta{
			height: int32(parts.Low.Height), r: int32(parts.Low.R),
			fanout: int32(parts.Low.Fanout), firstLeaf: parts.Low.FirstLeaf,
		}
	} else {
		h.flags |= flagNoLow
	}
	if parts.High != nil {
		h.flags |= flagHasHigh
		fillTree(secHighMinX, *parts.High)
		h.high = treeMeta{
			height: int32(parts.High.Height), r: int32(parts.High.R),
			fanout: int32(parts.High.Fanout), firstLeaf: parts.High.FirstLeaf,
		}
	}
	if parts.Grid != nil {
		h.flags |= flagHasGrid
		g := *parts.Grid
		sections[secGridCell] = i32Bytes(g.CellStart)
		sections[secGridXs] = f64Bytes(g.Xs)
		sections[secGridYs] = f64Bytes(g.Ys)
		sections[secGridIDs] = i32Bytes(g.IDs)
		h.gridSide, h.gridOriginX, h.gridOriginY = g.Side, g.OriginX, g.OriginY
		h.gridCols, h.gridRows = g.Cols, g.Rows
		h.gridLen = int64(len(g.Xs))
	}

	cur := int64(PageSize)
	for i, sec := range sections {
		if len(sec) == 0 {
			continue
		}
		h.secs[i] = span{off: cur, n: int64(len(sec))}
		cur = pageCeil(cur + int64(len(sec)))
	}
	h.totalSize = cur
	return h, sections
}

func pageCeil(n int64) int64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// checkWriter streams bytes through a CRC while tracking the write
// offset, so padTo can emit zero fill up to the next section boundary.
type checkWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (c *checkWriter) write(b []byte) error {
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	c.crc.Write(b) //nolint:errcheck // hash writes cannot fail
	c.n += int64(len(b))
	return nil
}

var zeroPage [PageSize]byte

func (c *checkWriter) padTo(off int64) error {
	for c.n < off {
		chunk := off - c.n
		if chunk > PageSize {
			chunk = PageSize
		}
		if err := c.write(zeroPage[:chunk]); err != nil {
			return err
		}
	}
	return nil
}

// Load opens the snapshot at path, maps it, validates it, and
// reconstructs a servable index whose arrays alias the mapping — zero
// copies, zero deserialization. The mapping stays alive for the life of
// the process (the index and anything built from it may reference it
// indefinitely; a long-running daemon holds a handful of mappings, not a
// leak-per-request). Corrupt or truncated files return
// ErrSnapshotCorrupt; files from a newer format or foreign byte order
// return ErrSnapshotVersion; neither ever panics.
func Load(path string) (*dbscan.Index, Info, error) {
	b, mapped, err := mapFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	ix, info, err := decode(b)
	if err != nil {
		if mapped {
			unmapFile(b)
		}
		return nil, Info{}, err
	}
	info.Mapped = mapped
	return ix, info, nil
}

// decode validates the image end to end and reconstructs the index.
func decode(b []byte) (*dbscan.Index, Info, error) {
	corrupt := func(format string, args ...any) (*dbscan.Index, Info, error) {
		return nil, Info{}, fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
	}
	h, err := decodeHeader(b)
	if err != nil {
		return nil, Info{}, err
	}
	if h.totalSize != int64(len(b)) {
		return corrupt("header says %d bytes, file has %d", h.totalSize, len(b))
	}
	if got := checksumOf(b); got != h.checksum {
		return corrupt("checksum mismatch: stored %#x, computed %#x", h.checksum, got)
	}
	n := h.nPoints
	if n < 0 || n > math.MaxInt32 {
		return corrupt("point count %d out of range", n)
	}
	kind, ok := KindFromCode(h.kind)
	if !ok {
		return corrupt("unknown index kind %d", h.kind)
	}

	// Section extraction: every span must sit past the header, inside the
	// file, 8-byte aligned, and be an exact element multiple.
	sec := func(i int, elem int64) ([]byte, error) {
		sp := h.secs[i]
		if sp.n == 0 {
			if sp.off != 0 {
				return nil, fmt.Errorf("%w: empty section %d has offset %d", ErrSnapshotCorrupt, i, sp.off)
			}
			return nil, nil
		}
		if sp.off < PageSize || sp.off%8 != 0 || sp.n < 0 || sp.n%elem != 0 ||
			sp.off > h.totalSize || sp.n > h.totalSize-sp.off {
			return nil, fmt.Errorf("%w: section %d span [%d, +%d) invalid", ErrSnapshotCorrupt, i, sp.off, sp.n)
		}
		return b[sp.off : sp.off+sp.n : sp.off+sp.n], nil
	}
	fixed := func(i int, elem, want int64) ([]byte, error) {
		s, err := sec(i, elem)
		if err != nil {
			return nil, err
		}
		if int64(len(s))/elem != want {
			return nil, fmt.Errorf("%w: section %d has %d elements, want %d", ErrSnapshotCorrupt, i, int64(len(s))/elem, want)
		}
		return s, nil
	}

	var parts dbscan.FrozenParts
	parts.Kind = kind
	var secErr error
	get := func(i int, elem, want int64) []byte {
		if secErr != nil {
			return nil
		}
		var s []byte
		if want < 0 {
			s, secErr = sec(i, elem)
		} else {
			s, secErr = fixed(i, elem, want)
		}
		return s
	}
	parts.Pts = bytesPts(get(secPts, 16, n))
	parts.X = bytesF64(get(secX, 8, n))
	parts.Y = bytesF64(get(secY, 8, n))
	parts.Fwd = bytesInts(get(secFwd, 8, n))
	readTree := func(base int, m treeMeta) rtree.FlatParts {
		p := rtree.FlatParts{
			EntMinX: bytesF64(get(base+0, 8, -1)),
			EntMinY: bytesF64(get(base+1, 8, -1)),
			EntMaxX: bytesF64(get(base+2, 8, -1)),
			EntMaxY: bytesF64(get(base+3, 8, -1)),
			EntRef:  bytesI32(get(base+4, 4, -1)),
			EntCnt:  bytesI32(get(base+5, 4, -1)),
			NodeEnt: bytesI32(get(base+6, 4, -1)),
		}
		p.FirstLeaf = m.firstLeaf
		p.Height, p.R, p.Fanout = int(m.height), int(m.r), int(m.fanout)
		p.Size = int(n)
		return p
	}
	if h.flags&flagNoLow == 0 {
		lp := readTree(secLowMinX, h.low)
		parts.Low = &lp
	}
	if h.flags&flagHasHigh != 0 {
		hp := readTree(secHighMinX, h.high)
		parts.High = &hp
	}
	if h.flags&flagHasGrid != 0 {
		if h.gridLen < 0 || h.gridLen > n {
			return corrupt("grid length %d out of range", h.gridLen)
		}
		gp := gridindex.FlatParts{
			Side: h.gridSide, OriginX: h.gridOriginX, OriginY: h.gridOriginY,
			Cols: h.gridCols, Rows: h.gridRows,
			CellStart: bytesI32(get(secGridCell, 4, -1)),
			Xs:        bytesF64(get(secGridXs, 8, h.gridLen)),
			Ys:        bytesF64(get(secGridYs, 8, h.gridLen)),
			IDs:       bytesI32(get(secGridIDs, 4, h.gridLen)),
		}
		parts.Grid = &gp
	}
	if secErr != nil {
		return nil, Info{}, secErr
	}
	parts.R = int(h.low.r)

	// Full structural validation happens inside the reconstruction chain
	// (FlatFromParts, IndexFromFrozen); any rejection is corruption.
	ix, err := dbscan.IndexFromFrozen(parts)
	if err != nil {
		return corrupt("%v", err)
	}
	return ix, Info{
		Points:   int(n),
		R:        int(h.low.r),
		Kind:     parts.Kind,
		Sequence: h.sequence,
		Bytes:    int64(len(b)),
	}, nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory
		d.Close()
	}
}
