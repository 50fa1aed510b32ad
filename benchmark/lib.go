package main

import (
	"fmt"
	"slices"
	"time"

	"vdbscan"
	"vdbscan/internal/obs"
)

// libWorkload is a workload driven through the library facade: a variant
// sweep (Index.ClusterVariants) or, with single set, one from-scratch
// variant (Index.Cluster). The operation is one such call; its output is
// every variant's labels in caller order.
type libWorkload struct {
	name    string
	n       int               // points at scale 1
	kind    vdbscan.IndexKind // the index the workload runs on; references use the other
	threads int
	single  bool
	eps     []float64 // in the paper's units, scaled to the dataset in prepare
	minpts  []int

	cfg    runConfig
	pts    []vdbscan.Point
	params []vdbscan.Params
	refs   []reference
	ix     *vdbscan.Index
}

func (w *libWorkload) prepare(cfg runConfig) error {
	w.cfg = cfg
	n := cfg.points(w.n)
	pts, err := genPoints(n, cfg.Seed)
	if err != nil {
		return err
	}
	w.pts = pts
	w.params = vdbscan.CartesianVariants(scaled(epsFactor(n), w.eps...), w.minpts)
	w.refs, err = buildReferences(pts, otherKind(w.kind), w.params)
	if err != nil {
		return err
	}
	if cfg.WriteGolden {
		return writeGolden(w.name, n, cfg.Seed, w.refs)
	}
	return checkGolden(w.name, n, cfg.Seed, w.refs)
}

func (w *libWorkload) indexOptions() []vdbscan.IndexOption {
	if w.kind == vdbscan.IndexRTree {
		return nil // sweep-s2 follows whatever the default index is
	}
	return []vdbscan.IndexOption{vdbscan.WithIndexKind(w.kind)}
}

func (w *libWorkload) setUp() error {
	w.ix = vdbscan.NewIndex(w.pts, w.indexOptions()...)
	_, _, _, err := w.call(nil) // warm-up: grid build, tile partition, page faults
	return err
}

func (w *libWorkload) tearDown() { w.ix = nil }

// call makes the workload's one facade call and returns each variant's
// clustering plus the run record (nil for a single Cluster call).
func (w *libWorkload) call(vt *vdbscan.Tracer) ([]*vdbscan.Clustering, *vdbscan.VariantRun, vdbscan.Work, error) {
	var work vdbscan.Work
	if w.single {
		res, err := w.ix.Cluster(w.params[0], vdbscan.WithThreads(w.threads), vdbscan.WithWork(&work), vdbscan.WithTracer(vt))
		if err != nil {
			return nil, nil, work, err
		}
		return []*vdbscan.Clustering{res}, nil, work, nil
	}
	opts := []vdbscan.RunOption{vdbscan.WithWork(&work), vdbscan.WithTracer(vt)}
	if w.threads != 1 {
		opts = append(opts, vdbscan.WithThreads(w.threads))
	}
	run, err := w.ix.ClusterVariants(w.params, opts...)
	if err != nil {
		return nil, nil, work, err
	}
	out := make([]*vdbscan.Clustering, len(run.Results))
	for i, r := range run.Results {
		out[i] = r.Clustering
	}
	return out, run, work, nil
}

func (w *libWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	n := len(w.pts)
	began := time.Now()
	for len(m.OpMS) == 0 || time.Since(began) < d {
		var vt *vdbscan.Tracer
		if tr != nil {
			vt = vdbscan.NewTracer()
		}
		t0 := time.Now()
		out, run, work, err := w.call(vt)
		t1 := time.Now()
		m.Attempted++
		if err != nil {
			if len(m.OpMS) == 0 {
				// Nothing to time, and looping on would never end.
				return nil, fmt.Errorf("first operation failed: %w", err)
			}
			m.failOp(fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		m.OpMS = append(m.OpMS, float64(t1.Sub(t0))/1e6)
		m.Wall += t1.Sub(t0)
		m.Work = append(m.Work, float64(work.NeighborSearches+work.CandidatesExamined))
		if w.single {
			m.Items += float64(n)
		} else {
			m.Items += float64(len(w.params))
		}

		makespan := t1.Sub(t0)
		if run != nil {
			makespan = run.Makespan
		}
		if tr != nil {
			root := tr.add(-1, harnessLayer, "op", t0, t1)
			op := "ClusterVariants"
			if w.single {
				op = "Cluster"
			}
			call := tr.add(root, "vdbscan", op, t0, t1)
			importRun(tr, call, t0, makespan, vt.Events())
		}
		w.record(m, run, work)
		if errs := w.verify(m, out); len(errs) > 0 {
			m.failOp(errs...)
		}
	}
	return m, nil
}

// record samples the workload counters the program already exposes:
// WithWork totals and the VariantRun record.
func (w *libWorkload) record(m *measurement, run *vdbscan.VariantRun, work vdbscan.Work) {
	nv := float64(len(w.params))
	m.sample("core.searches", float64(work.NeighborSearches))
	m.sample("core.searches_avoided_share", 1-float64(work.NeighborSearches)/(float64(len(w.pts))*nv))
	m.sample("core.clusters_destroyed", float64(work.ClustersDestroyed))
	if run == nil {
		m.sample("sched.scratch_share", 1)
		return
	}
	m.sample("core.reused_share", run.MeanFractionReused())
	m.sample("sched.idle_share", 1-float64(run.TotalWork)/(float64(run.Threads)*float64(run.Makespan)))
	scratch := 0
	for _, r := range run.Results {
		if r.FromScratch {
			scratch++
		}
	}
	m.sample("sched.scratch_share", float64(scratch)/nv)
}

// verify checks one operation's output against the references: the facts
// DBSCAN fixes for every variant, Jaccard quality on the first, middle and
// last, and for the single from-scratch variant byte-identical labels,
// which the library promises across index kinds and worker widths.
func (w *libWorkload) verify(m *measurement, out []*vdbscan.Clustering) (errs []string) {
	for i, res := range out {
		if err := checkFacts(w.refs[i], factsOf(res.NumClusters, res.Labels)); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	for _, i := range sampled(len(out)) {
		q, err := checkQuality(w.refs[i], out[i], w.cfg.qualityFloor())
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", w.name, err))
		}
		m.sample("core.min_quality", q)
	}
	if w.single && !slices.Equal(out[0].Labels, w.refs[0].Result.Labels) {
		errs = append(errs, w.name+": labels differ from the single-thread reference on the other index kind")
	}
	return errs
}

func (w *libWorkload) probeInput() probeInput {
	// CartesianVariants lists eps values in the ascending order given, so
	// the last variant carries the largest.
	return probeInput{pts: w.pts, params: w.params[len(w.params)/2], maxEps: w.params[len(w.params)-1].Eps, kind: w.kind}
}

// phaseLayer maps the program's tracer phases to the layer that does the
// work in them.
var phaseLayer = map[string]string{
	"expand": "core", "scratch": "core",
	"mark": "dbscan", "link": "dbscan", "label": "dbscan", "border": "dbscan",
	"tile-run": "tiling", "tile-merge": "tiling",
}

// importRun turns the events the program's own tracer recorded for one
// facade call into spans under that call: the scheduler's run, one span per
// variant, and one per phase inside it. Event offsets count from the run's
// own start instant, which the facade takes a few microseconds after the
// harness's t0; the harness aligns the two, and attribute clips what little
// sticks out.
func importRun(tr *tracer, call int, t0 time.Time, makespan time.Duration, evs []obs.Event) {
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	run := tr.add(call, "sched", "run", t0, at(makespan))
	type key struct {
		worker, variant int32
		phase           int64
	}
	started := map[int32]time.Duration{}
	variantSpan := map[int32]int{}
	for _, e := range evs {
		switch e.Kind {
		case obs.KindStarted:
			started[e.Variant] = e.At
		case obs.KindDone:
			variantSpan[e.Variant] = tr.add(run, "sched", "variant", at(started[e.Variant]), at(e.At))
		}
	}
	open := map[key]time.Duration{}
	for _, e := range evs {
		k := key{e.Worker, e.Variant, e.Arg}
		switch e.Kind {
		case obs.KindPhaseBegin:
			open[k] = e.At
		case obs.KindPhaseEnd:
			name := obs.Phase(e.Arg).String()
			layer, ok := phaseLayer[name]
			if !ok {
				layer = harnessLayer // a phase the harness does not know shows up as unaccounted
			}
			if parent, has := variantSpan[e.Variant]; has {
				tr.add(parent, layer, name, at(open[k]), at(e.At))
			}
		}
	}
}
