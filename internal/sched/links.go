package sched

import (
	"errors"
	"sync"

	"vdbscan/internal/dbscan"
)

// LinkBytesPerPoint is a Links library's memory budget per indexed point.
// A Link costs 8 B per point plus 4 B per word of its non-core records
// (dbscan.Link.Bytes), so the budget holds a few ε-chains' heads of a
// typical sweep; past it the least recently used ε is dropped.
const LinkBytesPerPoint = 64

// ErrForeignLinks reports a Links library passed to a run on another index
// than the one it was made for: its Links index that index's points.
var ErrForeignLinks = errors.New("links library belongs to another index")

// Links is a per-index library of ε-chain heads: for each ε, the
// dbscan.Link of the largest MinPts any run on the index has left. It
// serves every variant of that ε with a MinPts no larger — a replay at zero
// ε-searches, the chain successor's rule applied across runs. A chain clones
// a Link it replays from here, so a Links is safe for concurrent use, and
// dropping an entry only turns a later replay back into a run from scratch:
// labels never depend on what the library holds.
type Links struct {
	ix     *dbscan.Index
	budget int64

	mu    sync.Mutex
	byEps map[float64]*libEntry
	bytes int64  // sum of the entries' Link.Bytes
	clock uint64 // LRU stamp source
}

type libEntry struct {
	link *dbscan.Link
	used uint64
}

// NewLinks returns an empty library for runs on ix, bounded by
// LinkBytesPerPoint bytes per point of ix.
func NewLinks(ix *dbscan.Index) *Links {
	return &Links{ix: ix, budget: LinkBytesPerPoint * int64(ix.Len()), byEps: map[float64]*libEntry{}}
}

// Serving returns the library's Link that serves p, marking its ε as
// recently used, or nil. A nil library serves nothing.
func (l *Links) Serving(p dbscan.Params) *dbscan.Link {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.byEps[p.Eps]
	if e == nil || !e.link.Serves(p) {
		return nil
	}
	l.clock++
	e.used = l.clock
	return e.link
}

// Offer keeps k as its ε's entry when it serves more than the entry held —
// a larger MinPts — and fits the budget, then evicts least recently used
// ε's until the library fits again. A k that serves nothing is ignored.
func (l *Links) Offer(k *dbscan.Link) {
	if l == nil || k == nil || !k.Serves(k.Params()) {
		return
	}
	p, kb := k.Params(), k.Bytes()
	if kb > l.budget {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock++
	if e := l.byEps[p.Eps]; e != nil {
		if e.link.Serves(p) {
			return
		}
		l.bytes -= e.link.Bytes()
	}
	l.byEps[p.Eps] = &libEntry{link: k, used: l.clock}
	l.bytes += kb
	for l.bytes > l.budget {
		var lru float64
		var oldest uint64
		for eps, e := range l.byEps {
			if oldest == 0 || e.used < oldest {
				lru, oldest = eps, e.used
			}
		}
		l.bytes -= l.byEps[lru].link.Bytes()
		delete(l.byEps, lru)
	}
}

// Bytes is the memory the library's Links hold; it never exceeds
// LinkBytesPerPoint times the index's point count.
func (l *Links) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}
