package server

import (
	"time"

	"vdbscan"
	"vdbscan/internal/approx"
	"vdbscan/internal/metrics"
)

// Load shedding: when the admission backlog reaches Config.ShedThreshold,
// jobs from tenants that opted in (TenantConfig.AllowApprox, or a per-job
// "allow_approx" request flag) are answered by ρ-approximate DBSCAN
// (internal/approx, Gan & Tao's grid) instead of joining the exact queue.
// A shed job still goes through the same admission gate — draining checks,
// the queue-depth bound, the tenant's caps — and still runs on the shared
// runner pool as a batch; only the clustering kernel differs. Its results
// carry `"quality": "approx"` in the job document so no caller can mistake
// a degraded answer for an exact one, and the sandwich guarantee
// DBSCAN(ε) ⊆ Approx(ε,ρ) ⊆ DBSCAN(ε(1+ρ)) bounds how degraded it is.

// indexLabelApprox is the {index} metric-label value for shed runs: the run
// used the ρ-grid, not the dataset's frozen index.
const indexLabelApprox = "approx"

// qualityApprox tags shed results in job documents. Exact jobs omit the
// field entirely, so pre-multitenancy clients never see it.
const qualityApprox = "approx"

// shouldShed decides at submission whether this job is served approximately:
// shedding is configured, the caller opted in, and the backlog has crossed
// the pressure threshold.
func (s *Server) shouldShed(tn *tenant, reqOptIn bool) bool {
	return s.cfg.ShedThreshold > 0 &&
		(tn.cfg.AllowApprox || reqOptIn) &&
		s.queueDepth() >= s.cfg.ShedThreshold
}

// runApproxBatch executes one shed batch: every union variant runs
// ρ-approximate DBSCAN over the dataset's current points. Same job
// lifecycle as the exact path — queue-slot release, running/terminal SSE
// frames, work metering, quota charging — so clients and the ledger cannot
// tell the paths apart except by the quality tag (and the latency).
func (s *Server) runApproxBatch(b *batch) {
	defer b.cancel()
	jobs, union := b.members()

	released := 0
	for _, j := range jobs {
		if j.leftQueue.CompareAndSwap(false, true) {
			released++
		}
	}
	if released > 0 {
		s.jobLeftQueue(released)
	}

	var live []*job
	for _, j := range jobs {
		if j.setRunning() {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}

	d, ok := s.registry.get(b.datasetID)
	if !ok {
		s.failBatch(live, "dataset deleted before the job ran")
		return
	}
	pts, points, version := d.pointsSnapshot()

	ob := s.mx.batchObserver(b.datasetID, indexLabelApprox, labelNA)
	runStart := time.Now()
	for _, j := range live {
		ob.queueWait.Observe(runStart.Sub(j.created).Seconds())
		j.events.publish(evRunning, runningFrame{
			Job: j.id, Batch: b.id, Points: points, Version: version,
			Variants: len(union),
		}, true, false)
	}

	s.log.Info("approx batch run starting (load shed)",
		"batch", b.id, "dataset", b.datasetID, "jobs", len(live),
		"variants", len(union), "points", points, "rho", s.cfg.ShedRho)

	slotWork := make([]vdbscan.Work, len(union))
	slotRes := make([]*vdbscan.Clustering, len(union))
	slotDur := make([]time.Duration, len(union))
	var total vdbscan.Work
	for i, p := range union {
		if err := b.ctx.Err(); err != nil {
			s.failBatch(live, "canceled: "+err.Error())
			return
		}
		var m metrics.Counters
		vStart := time.Now()
		res, err := approx.Run(pts, approx.Params{
			Eps: p.Eps, MinPts: p.MinPts, Rho: s.cfg.ShedRho,
		}, &m)
		if err != nil {
			s.failBatch(live, "approx run: "+err.Error())
			return
		}
		slotDur[i] = time.Since(vStart)
		slotRes[i] = res
		slotWork[i] = m.Snapshot()
		total = total.Add(slotWork[i])
		ob.variantRun.Observe(slotDur[i].Seconds())
		if slotWork[i].NeighborSearches > 0 {
			ob.epsSearches.Observe(float64(slotWork[i].NeighborSearches))
			ob.candPerSearch.Observe(
				float64(slotWork[i].CandidatesExamined) / float64(slotWork[i].NeighborSearches))
		}
		pf := progressFrame{
			Batch: b.id, Done: i + 1, Total: len(union),
			Variant: i, FromScratch: true,
			DurationMS: float64(slotDur[i]) / float64(time.Millisecond),
			ElapsedMS:  float64(time.Since(runStart)) / float64(time.Millisecond),
		}
		for _, j := range live {
			pf.Job = j.id
			j.events.publish(evProgress, pf, false, false)
		}
	}
	runDur := time.Since(runStart)
	ob.batchRun.Observe(runDur.Seconds())
	s.ctrs.batchesRun.Add(1)
	s.ctrs.variantsRun.Add(int64(len(union)))
	s.addWork(total)
	b.setRun(points, version, []byte(`{"traceEvents":[]}`),
		[]byte("approx (load-shed) run: no execution trace recorded\n"))

	s.log.Info("approx batch run done",
		"batch", b.id, "dataset", b.datasetID, "duration", runDur,
		"variants", len(union), "searches", total.NeighborSearches)

	for _, j := range live {
		var jw vdbscan.Work
		outcomes := make([]variantOutcome, len(j.params))
		for i, slot := range j.slots {
			outcomes[i] = variantOutcome{
				Params:      union[slot],
				Clusters:    slotRes[slot].NumClusters,
				Noise:       slotRes[slot].NumNoise(),
				FromScratch: true,
				Duration:    slotDur[slot],
				clustering:  slotRes[slot],
			}
			jw = jw.Add(slotWork[slot])
		}
		j.setOutcomeMeta(qualityApprox, jw)
		if s.finishJob(j, stateDone, "", outcomes, jw) {
			b.leave(j)
		}
	}
}
