// Package persist implements the durable dataset store: a versioned,
// checksummed, page-aligned snapshot of a frozen dbscan.Index, written
// atomically and loaded back via mmap with zero deserialization, plus a
// small append-only WAL for the points staged between snapshots.
//
// A grid-kind snapshot holds the point arrays and, once built, the cell
// grid; an R-tree-kind one holds the point arrays and the trees. The
// format leans on the fact that both frozen index layouts
// (rtree.Flat and gridindex.Flat) are already offset-based
// struct-of-arrays — the same property that makes them cache-friendly in
// memory makes them directly servable from a file mapping, the
// node-as-page design of SQLite's R-tree module applied to whole arrays.
// A snapshot is one header page followed by each array as a page-aligned
// byte section in native endianness; loading is a handful of bounds
// checks and slice casts, after which the existing iterative traversals
// run over file-backed memory.
//
// Integrity is layered: a CRC32-C over the whole file catches bit rot and
// truncation, and — because a checksum can be re-stamped by an attacker
// or a fuzzer — every structural invariant the traversals rely on is
// re-validated on load (via rtree.FlatFromParts, gridindex.FlatFromParts,
// and dbscan.IndexFromFrozen), so a hostile file yields ErrSnapshotCorrupt,
// never a panic.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unsafe"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
)

// Typed failure modes, per the facade's errors.Is contract.
var (
	// ErrSnapshotCorrupt reports a snapshot or WAL that failed integrity
	// or structural validation: truncation, checksum mismatch, bad magic,
	// or any internal inconsistency. The caller's correct response is to
	// discard the file and rebuild from source data.
	ErrSnapshotCorrupt = errors.New("persist: snapshot corrupt")
	// ErrSnapshotVersion reports a well-formed snapshot this build cannot
	// read: a future format version, or a file written on a platform with
	// the opposite byte order.
	ErrSnapshotVersion = errors.New("persist: unsupported snapshot version or byte order")
	// ErrWALPartial reports a WAL whose tail record is truncated or
	// corrupt — the expected state after a crash mid-append. Replay
	// returns it alongside the valid prefix; it wraps ErrSnapshotCorrupt
	// so one errors.Is covers every integrity failure.
	ErrWALPartial = fmt.Errorf("%w: wal tail truncated or corrupt", ErrSnapshotCorrupt)
)

const (
	// PageSize is the section alignment: the header fills one page and
	// every array section starts on a page boundary, so mapped slices are
	// maximally aligned and sections never share a page.
	PageSize = 4096
	// FormatVersion is the snapshot format this build reads and writes.
	FormatVersion = 1
	// endianMark reads back byte-swapped on a host with the opposite
	// byte order, turning a cross-endian file into ErrSnapshotVersion
	// instead of silent garbage.
	endianMark = 0x01020304
)

var snapMagic = [4]byte{'V', 'D', 'B', 'S'}

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section indices of the fixed layout table. Order is also write order.
const (
	secPts     = iota // []geom.Point, n·16 bytes
	secX              // []float64, n·8
	secY              // []float64, n·8
	secFwd            // []int64, n·8
	secLowMinX        // low tree entry arrays, E·8 / E·4
	secLowMinY
	secLowMaxX
	secLowMaxY
	secLowRef
	secLowCnt
	secLowNode // (numNodes+1)·4
	secHighMinX
	secHighMinY
	secHighMaxX
	secHighMaxY
	secHighRef
	secHighCnt
	secHighNode
	secGridCell // (cols·rows+1)·4
	secGridXs
	secGridYs
	secGridIDs
	numSections
)

// Header field offsets. Scalars are native-endian at fixed offsets inside
// the first page; everything past headerUsed is zero.
const (
	offMagic    = 0
	offVersion  = 4
	offEndian   = 8
	offPageSize = 12
	offFlags    = 16
	offKind     = 20
	offChecksum = 24 // CRC32-C of the whole file with this field zeroed
	offTotal    = 32
	offNPoints  = 40
	offSequence = 48
	offLowMeta  = 56 // height, r, fanout, firstLeaf: 4×int32
	offHighMeta = 72
	offGridSide = 88
	offGridOrgX = 96
	offGridOrgY = 104
	offGridCols = 112
	offGridRows = 116
	offGridLen  = 120
	offSections = 128 // numSections × {offset int64, length int64}
	headerUsed  = offSections + numSections*16
)

// Header flag bits. flagNoLow is negative so that files written before
// T_low became optional, which always carry it, read back unchanged.
const (
	flagHasHigh = 1 << iota
	flagHasGrid
	flagNoLow
)

// kindCodes are the on-disk codes of the index kinds, fixed whatever order
// the dbscan.IndexKind constants have in Go: 0 = R-tree, 1 = grid.
var kindCodes = [...]dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid}

// KindCode is the on-disk code of an index kind. Anything that stores a
// kind outside a snapshot (a manifest) stores this code too.
func KindCode(k dbscan.IndexKind) uint32 {
	return uint32(slices.Index(kindCodes[:], k))
}

// KindFromCode is KindCode's inverse; ok is false for an unknown code.
func KindFromCode(c uint32) (k dbscan.IndexKind, ok bool) {
	if c >= uint32(len(kindCodes)) {
		return 0, false
	}
	return kindCodes[c], true
}

type treeMeta struct{ height, r, fanout, firstLeaf int32 }

type span struct{ off, n int64 }

// header is the decoded first page.
type header struct {
	flags, kind                        uint32
	checksum                           uint32
	totalSize, nPoints                 int64
	sequence                           uint64
	low, high                          treeMeta
	gridSide, gridOriginX, gridOriginY float64
	gridCols, gridRows                 int32
	gridLen                            int64
	secs                               [numSections]span
}

func encodeHeader(h header) []byte {
	b := make([]byte, PageSize)
	ne := binary.NativeEndian
	copy(b[offMagic:], snapMagic[:])
	ne.PutUint32(b[offVersion:], FormatVersion)
	ne.PutUint32(b[offEndian:], endianMark)
	ne.PutUint32(b[offPageSize:], PageSize)
	ne.PutUint32(b[offFlags:], h.flags)
	ne.PutUint32(b[offKind:], h.kind)
	ne.PutUint32(b[offChecksum:], h.checksum)
	ne.PutUint64(b[offTotal:], uint64(h.totalSize))
	ne.PutUint64(b[offNPoints:], uint64(h.nPoints))
	ne.PutUint64(b[offSequence:], h.sequence)
	putTreeMeta(b[offLowMeta:], h.low)
	putTreeMeta(b[offHighMeta:], h.high)
	ne.PutUint64(b[offGridSide:], math.Float64bits(h.gridSide))
	ne.PutUint64(b[offGridOrgX:], math.Float64bits(h.gridOriginX))
	ne.PutUint64(b[offGridOrgY:], math.Float64bits(h.gridOriginY))
	ne.PutUint32(b[offGridCols:], uint32(h.gridCols))
	ne.PutUint32(b[offGridRows:], uint32(h.gridRows))
	ne.PutUint64(b[offGridLen:], uint64(h.gridLen))
	for i, s := range h.secs {
		ne.PutUint64(b[offSections+i*16:], uint64(s.off))
		ne.PutUint64(b[offSections+i*16+8:], uint64(s.n))
	}
	return b
}

func putTreeMeta(b []byte, m treeMeta) {
	ne := binary.NativeEndian
	ne.PutUint32(b[0:], uint32(m.height))
	ne.PutUint32(b[4:], uint32(m.r))
	ne.PutUint32(b[8:], uint32(m.fanout))
	ne.PutUint32(b[12:], uint32(m.firstLeaf))
}

func getTreeMeta(b []byte) treeMeta {
	ne := binary.NativeEndian
	return treeMeta{
		height:    int32(ne.Uint32(b[0:])),
		r:         int32(ne.Uint32(b[4:])),
		fanout:    int32(ne.Uint32(b[8:])),
		firstLeaf: int32(ne.Uint32(b[12:])),
	}
}

// decodeHeader parses and gate-checks the first page: magic and geometry
// under ErrSnapshotCorrupt, version and byte order under
// ErrSnapshotVersion. Structural checks on the section table happen later
// against the actual file size.
func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < PageSize {
		return h, fmt.Errorf("%w: %d bytes is smaller than one header page", ErrSnapshotCorrupt, len(b))
	}
	ne := binary.NativeEndian
	if [4]byte(b[offMagic:offMagic+4]) != snapMagic {
		return h, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := ne.Uint32(b[offVersion:]); v != FormatVersion {
		return h, fmt.Errorf("%w: format version %d (want %d)", ErrSnapshotVersion, v, FormatVersion)
	}
	if m := ne.Uint32(b[offEndian:]); m != endianMark {
		return h, fmt.Errorf("%w: endianness mark %#x (written on an opposite-endian host?)", ErrSnapshotVersion, m)
	}
	if ps := ne.Uint32(b[offPageSize:]); ps != PageSize {
		return h, fmt.Errorf("%w: page size %d (want %d)", ErrSnapshotVersion, ps, PageSize)
	}
	h.flags = ne.Uint32(b[offFlags:])
	h.kind = ne.Uint32(b[offKind:])
	h.checksum = ne.Uint32(b[offChecksum:])
	h.totalSize = int64(ne.Uint64(b[offTotal:]))
	h.nPoints = int64(ne.Uint64(b[offNPoints:]))
	h.sequence = ne.Uint64(b[offSequence:])
	h.low = getTreeMeta(b[offLowMeta:])
	h.high = getTreeMeta(b[offHighMeta:])
	h.gridSide = math.Float64frombits(ne.Uint64(b[offGridSide:]))
	h.gridOriginX = math.Float64frombits(ne.Uint64(b[offGridOrgX:]))
	h.gridOriginY = math.Float64frombits(ne.Uint64(b[offGridOrgY:]))
	h.gridCols = int32(ne.Uint32(b[offGridCols:]))
	h.gridRows = int32(ne.Uint32(b[offGridRows:]))
	h.gridLen = int64(ne.Uint64(b[offGridLen:]))
	for i := range h.secs {
		h.secs[i].off = int64(ne.Uint64(b[offSections+i*16:]))
		h.secs[i].n = int64(ne.Uint64(b[offSections+i*16+8:]))
	}
	return h, nil
}

// checksumOf computes the file checksum: CRC32-C over the whole image
// with the 4-byte checksum field treated as zero.
func checksumOf(b []byte) uint32 {
	var zero [4]byte
	c := crc32.Update(0, castagnoli, b[:offChecksum])
	c = crc32.Update(c, castagnoli, zero[:])
	return crc32.Update(c, castagnoli, b[offChecksum+4:])
}

// ---- byte-level views of the typed arrays ----
//
// The casts below are the whole point of the format: a section written
// with f64Bytes reads back with bytesF64 over the same (mapped) memory.
// Safety rests on three facts the callers maintain: lengths are validated
// to be exact element multiples, base pointers are at least 8-byte
// aligned (sections are page-aligned in the file, and Go heap slices of
// ≥ 8 bytes are 8-byte aligned), and every reconstructed slice is treated
// as read-only — appends reallocate because len == cap.

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func ptBytes(s []geom.Point) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*16)
}

// intBytes views []int as disk bytes (int64 elements). On 32-bit hosts it
// widens through a copy.
func intBytes(s []int) []byte {
	if len(s) == 0 {
		return nil
	}
	if strconv.IntSize == 64 {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	wide := make([]int64, len(s))
	for i, v := range s {
		wide[i] = int64(v)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&wide[0])), len(wide)*8)
}

func bytesF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func bytesI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func bytesPts(b []byte) []geom.Point {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*geom.Point)(unsafe.Pointer(&b[0])), len(b)/16)
}

// bytesInts views disk bytes (int64 elements) as []int, narrowing through
// a copy on 32-bit hosts (out-of-range values become garbage there, which
// the downstream permutation validation rejects).
func bytesInts(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	if strconv.IntSize == 64 {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	wide := unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	out := make([]int, len(wide))
	for i, v := range wide {
		out[i] = int(v)
	}
	return out
}
