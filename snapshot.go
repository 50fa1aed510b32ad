package vdbscan

import (
	"vdbscan/internal/persist"
)

// SnapshotInfo summarizes a snapshot that was just loaded.
type SnapshotInfo struct {
	// Points is the dataset size.
	Points int
	// R is the ε-search tree's leaf occupancy the index was built with.
	R int
	// Kind is the ε-search substrate (IndexRTree or IndexGrid).
	Kind IndexKind
	// Sequence is the caller-supplied tag passed to SaveSnapshot.
	Sequence uint64
	// Bytes is the on-disk snapshot size.
	Bytes int64
	// Mapped is true when the index's arrays are served directly from a
	// read-only mmap of the snapshot file; false when the platform (or the
	// filesystem) forced a heap copy.
	Mapped bool
}

// SaveSnapshot writes the index to path as a durable snapshot: a
// versioned, checksummed, page-aligned image of the frozen struct-of-array
// index layouts, written atomically (temp file, fsync, rename) so a crash
// mid-save can never leave a torn file in place of an old snapshot. seq is
// an opaque caller tag — a version counter, typically — echoed back by
// LoadSnapshot.
//
// Every Index qualifies, whether built by NewIndex or loaded from a
// snapshot: the image is the index, there is no staged state to lose.
func (x *Index) SaveSnapshot(path string, seq uint64) error {
	parts, err := x.ix.FrozenParts()
	if err != nil {
		return wrapErr(err)
	}
	return wrapErr(persist.Save(path, parts, seq))
}

// LoadSnapshot maps the snapshot at path and returns a ready Index with
// zero deserialization: the coordinate arrays and frozen index layouts are
// served directly from the file mapping, so a warm restart costs a few
// page faults instead of a rebuild. Labels from a loaded index are
// byte-identical to those of the index the snapshot was saved from.
//
// Damaged or foreign files fail typed — errors.Is(err, ErrSnapshotCorrupt)
// for truncation, checksum, or structural damage, ErrSnapshotVersion for a
// future format or opposite byte order — and never panic; the caller's
// fallback is to rebuild with NewIndex from source data.
func LoadSnapshot(path string) (*Index, SnapshotInfo, error) {
	ix, info, err := persist.Load(path)
	if err != nil {
		return nil, SnapshotInfo{}, wrapErr(err)
	}
	// Rebuild the caller-order view: the snapshot stores grid-sorted
	// points plus the sorted→original permutation.
	pts := make([]Point, len(ix.Pts))
	for i, p := range ix.Pts {
		pts[ix.Fwd[i]] = p
	}
	return &Index{ix: ix, pts: pts}, SnapshotInfo{
		Points:   info.Points,
		R:        info.R,
		Kind:     info.Kind,
		Sequence: info.Sequence,
		Bytes:    info.Bytes,
		Mapped:   info.Mapped,
	}, nil
}
