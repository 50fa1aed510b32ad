package vdbscan

import (
	"fmt"
	"strings"

	"vdbscan/internal/persist"
	"vdbscan/internal/rtree"
)

// The facade's error contract (see also the package comment):
//
//   - Every error returned by an exported function or method either is, or
//     wraps (in the errors.Is/errors.As sense), one of the sentinel values
//     below, a context error (context.Canceled, context.DeadlineExceeded),
//     or an ordinary descriptive error.
//   - Every error string is prefixed "vdbscan: " exactly once; internal
//     package prefixes ("sched:", "rtree:") may follow inside the chain.

// ErrFlatTooLarge reports that a point database exceeds the flat R-tree
// layout's int32 offset space (more than ~2.1 billion entries or points).
// Index construction and streaming re-freezes panic with it, wrapped with
// size detail, rather than build an index whose offsets have wrapped; match
// a recovered value with errors.Is. No smaller layout exists to fall back
// to: every neighbour list this package returns is int32-indexed.
var ErrFlatTooLarge = rtree.ErrFlatTooLarge

// ErrSnapshotCorrupt reports a snapshot or WAL file that failed integrity
// or structural validation on load: truncation, a checksum mismatch, bad
// magic, or any internal inconsistency that would make the mapped index
// unsafe to traverse. Match it with errors.Is. The correct response is to
// discard the file and rebuild the index from source data.
var ErrSnapshotCorrupt = persist.ErrSnapshotCorrupt

// ErrSnapshotVersion reports a well-formed snapshot this build cannot
// read: a future format version, or a file written on a platform with the
// opposite byte order. Match it with errors.Is.
var ErrSnapshotVersion = persist.ErrSnapshotVersion

// wrapErr brings an internal error onto the facade's contract: nil stays
// nil, and everything else gains the "vdbscan: " prefix exactly once while
// preserving the wrapped chain for errors.Is/errors.As.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if strings.HasPrefix(err.Error(), "vdbscan: ") {
		return err
	}
	return fmt.Errorf("vdbscan: %w", err)
}
