package sched

import (
	"sync"

	"vdbscan/internal/obs"
)

// donorPool implements dbscan.Helper for two-level scheduling: pool workers
// that find the variant queue empty donate themselves to the parallel
// phases of still-running variants instead of parking. This closes the two
// idle regimes the paper's one-variant-per-worker pool leaves open: |V| < T
// from the start, and the end-of-run tail where the last (often
// makespan-dominating) variants run alone while finished workers idle.
//
// Protocol: a running variant's parallel phase publishes its chunk-draining
// help function with Offer; idle workers loop in donate, invoking open help
// functions until no variant is active. A donor can only be idle once the
// queue is exhausted (or the context canceled) — both permanent — so the
// active-variant count is monotonically non-increasing by then, and
// reaching zero means no further offers can ever appear.
type donorPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	offers []*offer
	active int // variants currently executing
}

// offer is one open parallel phase accepting donated workers.
type offer struct {
	variant   int32 // the variant being helped (trace annotation)
	help      func()
	wg        sync.WaitGroup // in-flight donated invocations
	exhausted bool           // a help() invocation returned: no work left
}

func newDonorPool() *donorPool {
	p := &donorPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Offer publishes help to idle donors until the returned stop is called;
// stop blocks until every donated invocation has returned, giving the
// caller happens-before with all donated writes. variant identifies the
// offering variant execution for trace donor-join/leave events.
func (p *donorPool) Offer(variant int32, help func()) (stop func()) {
	o := &offer{variant: variant, help: help}
	p.mu.Lock()
	p.offers = append(p.offers, o)
	p.mu.Unlock()
	p.cond.Broadcast()
	return func() {
		p.mu.Lock()
		for i, e := range p.offers {
			if e == o {
				p.offers = append(p.offers[:i], p.offers[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		o.wg.Wait()
	}
}

// variantStarted and variantFinished bracket each queue unit — a variant
// execution, or a whole ε-chain of them, whose later links will still make
// offers — so donate knows when parking is final.
func (p *donorPool) variantStarted() {
	p.mu.Lock()
	p.active++
	p.mu.Unlock()
}

func (p *donorPool) variantFinished() {
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
	p.cond.Broadcast()
}

// donate serves open offers until no variant is running, then returns.
// Must only be called after the caller's take() has failed permanently.
// rec (the donating worker's trace recorder, nil when tracing is off)
// receives a donor-join/donor-leave pair around every donated phase.
func (p *donorPool) donate(rec *obs.Recorder) {
	p.mu.Lock()
	for {
		var o *offer
		for _, e := range p.offers {
			if !e.exhausted {
				o = e
				break
			}
		}
		if o == nil {
			if p.active == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		o.wg.Add(1)
		p.mu.Unlock()
		rec.Event(obs.KindDonorJoin, o.variant, 0, 0)
		o.help() // drains the phase's chunk cursor
		rec.Event(obs.KindDonorLeave, o.variant, 0, 0)
		p.mu.Lock()
		o.exhausted = true
		o.wg.Done()
	}
}
