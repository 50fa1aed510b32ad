package bench

import (
	"fmt"
	"sort"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/paper"
	"vdbscan/internal/quality"
	"vdbscan/internal/render"
)

// fig4RValues is the leaf-occupancy sweep for the indexing figure: r=1 is
// the unoptimized baseline, 70–110 is the paper's good band, and the outer
// values show the trade-off turning over.
var fig4RValues = []int{1, 16, 70, 100, 110, 256}

// Fig4 regenerates Figure 4 (scenario S1): the relative speedup of
// clustering 16 identical variants concurrently with T threads, versus the
// sequential r=1 reference, across leaf occupancies r. Work columns show
// the compute-for-memory trade directly: tree nodes visited drop with r
// while filtered candidates grow.
func (s *Suite) Fig4() error {
	section(s.Out, "Figure 4: Indexing for variant-parallel clustering (S1)")
	t := newTable("Dataset", "r", "RefTime", "VDBTime", "Speedup",
		"NodesVisited", "Candidates", "Searches")
	for _, spec := range s1Specs {
		ds, err := s.Dataset(spec.dataset)
		if err != nil {
			return err
		}
		p := dbscan.Params{Eps: s.scaleEps(spec.eps), MinPts: s1MinPts}
		vs := identicalVariants(p, s1NumVariants)
		refTime, _, err := s.refRun(ds, vs)
		if err != nil {
			return err
		}
		for _, r := range fig4RValues {
			_, wall, work, err := s.vdbRun(ds, vs, s.Threads, paper.ClusDensity,
				paper.SchedGreedy, true /* no reuse: isolate indexing */, r)
			if err != nil {
				return err
			}
			t.add(spec.dataset, r, seconds(refTime), seconds(wall),
				speedup(refTime, wall), work.NodesVisited,
				work.CandidatesExamined, work.NeighborSearches)
		}
	}
	t.write(s.Out)
	fmt.Fprintln(s.Out, "\nPaper: r=1/T=16 peaks at 2.37x; tuned r reaches 7.91x-31.96x;")
	fmt.Fprintln(s.Out, "SW1 with r=100 is 11.01x (1101%) over the reference.")
	return nil
}

// Fig5 regenerates Figure 5: per-variant response time and fraction of
// points reused on SW1 under scenario S2 with T=1, r=70, for each cluster
// reuse scheme.
func (s *Suite) Fig5() error {
	section(s.Out, "Figure 5: Per-variant response time and reuse on SW1 (S2, T=1)")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	vs := s.s2Variants()
	for _, scheme := range paper.Schemes {
		fmt.Fprintf(s.Out, "-- %v --\n", scheme)
		rr, _, _, err := s.vdbRun(ds, vs, 1, scheme, paper.SchedGreedy, false, s.R)
		if err != nil {
			return err
		}
		t := newTable("Variant", "Time", "FracReused", "FromScratch")
		for _, r := range rr.Results {
			t.add(r.Variant.Params.String(), seconds(r.Duration()),
				r.Stats.FractionReused, r.Stats.FromScratch)
		}
		t.write(s.Out)
		fmt.Fprintln(s.Out)
	}
	fmt.Fprintln(s.Out, "Paper (SW1, |V|=24): total 801.5s CLUSDEFAULT, 185.8s CLUSDENSITY,")
	fmt.Fprintln(s.Out, "1282.6s CLUSPTSSQUARED vs 1235.0s reference; high reuse <=> low time.")
	return nil
}

// Fig6 regenerates Figure 6: the response-time-versus-reuse relation from
// the Figure 5 data, grouped by ε family and scheme.
func (s *Suite) Fig6() error {
	section(s.Out, "Figure 6: Response time vs fraction reused, by eps family (S2, SW1)")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	vs := s.s2Variants()
	t := newTable("Scheme", "eps", "MeanFracReused", "MeanTime")
	for _, scheme := range paper.Schemes {
		rr, _, _, err := s.vdbRun(ds, vs, 1, scheme, paper.SchedGreedy, false, s.R)
		if err != nil {
			return err
		}
		type agg struct {
			frac, secs float64
			n          int
		}
		byEps := map[float64]*agg{}
		for _, r := range rr.Results {
			a := byEps[r.Variant.Params.Eps]
			if a == nil {
				a = &agg{}
				byEps[r.Variant.Params.Eps] = a
			}
			a.frac += r.Stats.FractionReused
			a.secs += r.Duration().Seconds()
			a.n++
		}
		var epsKeys []float64
		for e := range byEps {
			epsKeys = append(epsKeys, e)
		}
		sort.Float64s(epsKeys)
		for _, e := range epsKeys {
			a := byEps[e]
			t.add(scheme.String(), e, a.frac/float64(a.n),
				fmt.Sprintf("%.3fs", a.secs/float64(a.n)))
		}
	}
	t.write(s.Out)
	fmt.Fprintln(s.Out, "\nPaper: response times are lower when sufficient data reuse occurs;")
	fmt.Fprintln(s.Out, "in the low-reuse regime larger eps costs disproportionately more.")
	return nil
}

// Fig7 regenerates Figure 7: (a) relative speedup of VariantDBSCAN
// (SCHEDGREEDY, r=70, T=1) versus the reference across the S2 datasets and
// reuse schemes; (b) the average fraction of points reused; (c) the average
// quality score versus plain DBSCAN.
func (s *Suite) Fig7() error {
	section(s.Out, "Figure 7: Data reuse across datasets (S2, T=1, r=70)")
	t := newTable("Dataset", "Scheme", "RefTime", "VDBTime", "Speedup(a)",
		"MeanFracReused(b)", "MeanQuality(c)")
	vs := s.s2Variants()
	for _, name := range s2Datasets {
		ds, err := s.Dataset(name)
		if err != nil {
			return err
		}
		refTime, _, err := s.refRun(ds, vs)
		if err != nil {
			return err
		}
		// Quality reference: plain DBSCAN per variant on the tuned index.
		ix := s.index(ds, s.R)
		for _, scheme := range paper.Schemes {
			rr, wall, _, err := s.vdbRun(ds, vs, 1, scheme, paper.SchedGreedy, false, s.R)
			if err != nil {
				return err
			}
			var scores []float64
			for _, r := range rr.Results {
				want, err := dbscan.Run(ix, r.Variant.Params, nil)
				if err != nil {
					return err
				}
				q, err := quality.Score(want, r.Result)
				if err != nil {
					return err
				}
				scores = append(scores, q)
			}
			t.add(name, scheme.String(), seconds(refTime), seconds(wall),
				speedup(refTime, wall), rr.MeanFractionReused(), quality.Mean(scores))
		}
	}
	t.write(s.Out)
	fmt.Fprintln(s.Out, "\nPaper: synthetic speedups 6.88x-28.3x; noisiest datasets benefit least;")
	fmt.Fprintln(s.Out, "~60% mean reuse on 30%-noise sets; minimum mean quality 0.998.")
	return nil
}

// fig8Combos are the four scheduling/reuse combinations of Figure 8.
var fig8Combos = []struct {
	scheme   paper.Scheme
	strategy paper.Strategy
}{
	{paper.ClusDensity, paper.SchedGreedy},
	{paper.ClusDensity, paper.SchedMinPts},
	{paper.ClusPtsSquared, paper.SchedGreedy},
	{paper.ClusPtsSquared, paper.SchedMinPts},
}

// Fig8 regenerates Figure 8 (scenario S3): relative speedup of the full
// system (indexing + reuse + scheduling, T threads) on the SW datasets for
// each scheduling/reuse combination and variant set.
func (s *Suite) Fig8() error {
	section(s.Out, "Figure 8: Combined indexing + reuse + scheduling on SW datasets (S3)")
	t := newTable("Dataset", "Set", "Scheme", "Strategy", "RefTime", "VDBTime",
		"Speedup", "MeanFracReused")
	for _, spec := range s3Specs {
		ds, err := s.Dataset(spec.dataset)
		if err != nil {
			return err
		}
		for _, setName := range spec.sets {
			vs := s.s3Variants(setName)
			refTime, _, err := s.refRun(ds, vs)
			if err != nil {
				return err
			}
			for _, combo := range fig8Combos {
				rr, wall, _, err := s.vdbRun(ds, vs, s.Threads, combo.scheme,
					combo.strategy, false, s.R)
				if err != nil {
					return err
				}
				t.add(spec.dataset, setName, combo.scheme.String(),
					combo.strategy.String(), seconds(refTime), seconds(wall),
					speedup(refTime, wall), rr.MeanFractionReused())
			}
		}
	}
	t.write(s.Out)
	fmt.Fprintln(s.Out, "\nPaper: CLUSDENSITY beats CLUSPTSSQUARED everywhere; SCHEDGREEDY wins")
	fmt.Fprintln(s.Out, "6 of 8 CLUSDENSITY scenarios; overall 7.27x (SW4,V2) to 22.09x (SW2,V1).")
	return nil
}

// Fig9 regenerates Figure 9: the per-worker makespan of processing V3 on
// SW1 with CLUSDENSITY under each scheduling heuristic, against the
// no-idle lower bound.
func (s *Suite) Fig9() error {
	section(s.Out, "Figure 9: Makespan, SCHEDGREEDY vs SCHEDMINPTS (SW1, V3, CLUSDENSITY)")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	vs := s.s3Variants("V3")
	for _, strategy := range paper.Strategies {
		rr, _, _, err := s.vdbRun(ds, vs, s.Threads, paper.ClusDensity, strategy, false, s.R)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.Out, "-- %v --\n", strategy)
		t := newTable("Worker", "Variants", "FromScratch", "Busy", "LastEnd")
		for w, line := range rr.WorkerTimelines() {
			var busy float64
			scratch := 0
			lastEnd := 0.0
			for _, r := range line {
				busy += r.Duration().Seconds()
				if r.Stats.FromScratch {
					scratch++
				}
				if e := r.End.Seconds(); e > lastEnd {
					lastEnd = e
				}
			}
			if len(line) == 0 {
				continue
			}
			t.add(w, len(line), scratch, fmt.Sprintf("%.3fs", busy),
				fmt.Sprintf("%.3fs", lastEnd))
		}
		t.write(s.Out)
		scratchTotal := 0
		for _, r := range rr.Results {
			if r.Stats.FromScratch {
				scratchTotal++
			}
		}
		fmt.Fprintf(s.Out, "makespan=%s lowerBound=%s slowdownOverLB=%.1f%% fromScratch=%d/%d\n\n",
			seconds(rr.Makespan), seconds(rr.LowerBound()),
			rr.SlowdownOverLowerBound()*100, scratchTotal, len(vs))
	}
	fmt.Fprintln(s.Out, "Paper: SCHEDGREEDY 13.5% over the lower bound, SCHEDMINPTS 33.0%;")
	fmt.Fprintln(s.Out, "SCHEDMINPTS clusters three more variants from scratch on this workload.")
	return nil
}

// All runs every table and figure in paper order.
func (s *Suite) All() error {
	steps := []func() error{
		s.Fig1, s.Table1, s.Table2, s.Fig4, s.Table3, s.Fig5, s.Fig6, s.Fig7,
		s.Table4, s.Fig8, s.Fig9,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// Run dispatches one experiment by ID ("table1", "fig4", ..., "all").
func (s *Suite) Run(id string) error {
	switch id {
	case "fig1":
		return s.Fig1()
	case "table1":
		return s.Table1()
	case "table2":
		return s.Table2()
	case "table3":
		return s.Table3()
	case "table4":
		return s.Table4()
	case "fig4":
		return s.Fig4()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "fig7", "fig7a", "fig7b", "fig7c":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "trace":
		return s.Trace()
	case "all":
		return s.All()
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}

// Experiments lists the valid experiment IDs in paper order.
var Experiments = []string{
	"fig1", "table1", "table2", "fig4", "table3", "fig5", "fig6", "fig7",
	"table4", "fig8", "fig9", "trace",
}

// Fig1 regenerates Figure 1's content as text: the thresholded TEC map of
// (simulated) SW1 rendered as an ASCII density map, followed by the
// clustered view at the Table II parameters.
func (s *Suite) Fig1() error {
	section(s.Out, "Figure 1: TEC map of the Earth's ionosphere (simulated SW1)")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	if err := render.Density(s.Out, ds.Points, render.Options{Width: 90, Height: 24}); err != nil {
		return err
	}
	ix := s.index(ds, s.R)
	res, err := dbscan.Run(ix, dbscan.Params{Eps: s.scaleEps(0.5), MinPts: 4}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "\nclusters at (%.2g, 4): %d (largest %v); glyph view:\n\n",
		s.scaleEps(0.5), res.NumClusters, res.TopClusterSizes(3))
	return render.Clusters(s.Out, ix.Pts, res.Remap(ix.Fwd), render.Options{Width: 90, Height: 24})
}
