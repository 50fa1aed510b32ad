package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: Name is the layer (a module name, or
// "harness" for a root that frames one end-to-end operation), Op what the
// layer was doing, Parent the index of the span that caused it (-1 for a
// root). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// harnessLayer names root spans. A root's self time is end-to-end time no
// layer span covers: the unaccounted share.
const harnessLayer = "harness"

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is made.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index (-1 on a nil tracer).
// Spans are recorded after the fact, from timestamps the harness took
// around a call or read out of the program's own observability.
func (t *tracer) add(parent int, layer, op string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: layer, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution is the result of splitting every root span's interval among
// the layers.
type attribution struct {
	// Self maps "layer/op" to nanoseconds of self time on the blocking path.
	Self map[string]int64
	// Total is the summed duration of the root spans: the end-to-end time
	// the shares are taken of.
	Total int64
	// Overhang is child time that stuck out of its parent and was clipped
	// away. It would make the layers sum to more than the end-to-end time —
	// a negative unaccounted share — so more than 2 % of Total is a harness
	// bug and fails the run.
	Overhang int64
}

// attribute computes self times. A span's self time is its duration minus
// the part its children cover. Where children overlap each other (two
// workers running variants at once) the covered instant is split equally
// among the deepest active spans, so the self times of one root always sum
// to exactly that root's duration: the blocking path of an operation is its
// wall clock, and concurrent layers share the instants they share.
func attribute(spans []span) attribution {
	a := attribution{Self: map[string]int64{}}
	children := make([][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Parent < 0 {
			roots = append(roots, i)
		} else {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	clipped := append([]span(nil), spans...)
	for _, r := range roots {
		if clipped[r].End < clipped[r].Start {
			clipped[r].End = clipped[r].Start
		}
		a.Total += clipped[r].End - clipped[r].Start
		// Collect the root's tree, clipping each span into its parent.
		tree := []int{r}
		for k := 0; k < len(tree); k++ {
			p := tree[k]
			for _, c := range children[p] {
				s := &clipped[c]
				dur := s.End - s.Start
				if s.Start < clipped[p].Start {
					s.Start = clipped[p].Start
				}
				if s.End > clipped[p].End {
					s.End = clipped[p].End
				}
				if s.End < s.Start {
					s.End = s.Start
				}
				if dur > s.End-s.Start {
					a.Overhang += dur - (s.End - s.Start)
				}
				tree = append(tree, c)
			}
		}
		bounds := make([]int64, 0, 2*len(tree))
		for _, i := range tree {
			bounds = append(bounds, clipped[i].Start, clipped[i].End)
		}
		sort.Slice(bounds, func(x, y int) bool { return bounds[x] < bounds[y] })
		for k := 0; k+1 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			if hi == lo {
				continue
			}
			// Active spans with no active child are the ones doing the work
			// in [lo, hi).
			var leaves []int
			for _, i := range tree {
				if clipped[i].Start > lo || clipped[i].End < hi {
					continue
				}
				covered := false
				for _, c := range children[i] {
					if clipped[c].Start <= lo && clipped[c].End >= hi {
						covered = true
						break
					}
				}
				if !covered {
					leaves = append(leaves, i)
				}
			}
			for _, i := range leaves {
				a.Self[clipped[i].Name+"/"+clipped[i].Op] += (hi - lo) / int64(len(leaves))
			}
		}
	}
	return a
}

// share is the self time of every span whose key starts with one of the
// given "layer/op" or "layer/" prefixes, as a share of the end-to-end time.
func (a attribution) share(prefixes ...string) float64 {
	if a.Total == 0 {
		return 0
	}
	var ns int64
	for k, v := range a.Self {
		for _, p := range prefixes {
			if len(k) >= len(p) && k[:len(p)] == p {
				ns += v
				break
			}
		}
	}
	return float64(ns) / float64(a.Total)
}

// writeTable prints the layer table of one workload: self time and share
// per layer/op, largest first.
func (a attribution) writeTable(w io.Writer, workload string, ops int) {
	keys := make([]string, 0, len(a.Self))
	for k := range a.Self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return a.Self[keys[i]] > a.Self[keys[j]] })
	fmt.Fprintf(w, "# %s layer table: %d traced operations, %.3f ms end to end each\n",
		workload, ops, float64(a.Total)/1e6/float64(max(ops, 1)))
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-24s %10.3f ms/op  %6.2f %%\n",
			k, float64(a.Self[k])/1e6/float64(max(ops, 1)), 100*float64(a.Self[k])/float64(a.Total))
	}
	fmt.Fprintf(w, "#   clipped overhang %.3f %% of end to end\n", 100*float64(a.Overhang)/float64(max(a.Total, 1)))
}
