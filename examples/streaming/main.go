// Streaming: maintain a live clustering of TEC observations with the
// incremental API — insertions as new measurements arrive, deletions as
// old ones expire — instead of re-clustering every frame.
//
// A sliding window of observations streams through the clusterer; the
// monitor reports cluster structure and update latency after every batch,
// and periodically audits the incremental state against a batch run over
// the same live window.
//
// The audit's noise set must equal the batch run's exactly: a point is
// noise when no core lies within ε of it, whatever order the points
// arrived in, so unlike cluster membership of border points it has no
// legal ambiguity. The program exits non-zero when it differs.
package main

import (
	"fmt"
	"log"
	"time"

	"vdbscan"
	"vdbscan/internal/tec"
)

const (
	batches    = 12
	perBatch   = 1500
	windowSize = 4 * perBatch // observations kept live
	auditEvery = 4
)

func main() {
	params := vdbscan.Params{Eps: 2.5, MinPts: 8}
	inc, err := vdbscan.NewIncremental(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sliding-window monitor: %d batches x %d obs, window %d, params %v\n\n",
		batches, perBatch, windowSize, params)
	fmt.Printf("%6s %7s %9s %8s %10s %9s  %s\n",
		"batch", "live", "clusters", "noise", "latency", "dominant", "audit")

	var history []vdbscan.Point // every inserted point, in insertion order
	oldest := 0                 // next insertion index to expire
	for batch := 0; batch < batches; batch++ {
		ds, err := tec.Simulate(tec.Config{
			N: perBatch, Seed: 99, Time: float64(batch) * 0.25,
			Name: fmt.Sprintf("batch%d", batch),
		})
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		inc.InsertBatch(ds.Points)
		history = append(history, ds.Points...)
		for inc.LiveLen() > windowSize {
			if err := inc.Delete(oldest); err != nil {
				log.Fatal(err)
			}
			oldest++
		}
		latency := time.Since(start)

		res := inc.Labels()
		liveNoise := 0
		for _, l := range res.Labels[oldest:] {
			if l == vdbscan.Noise {
				liveNoise++
			}
		}
		dominant := 0
		if sizes := res.TopClusterSizes(1); len(sizes) > 0 {
			dominant = sizes[0]
		}

		audit := "-"
		if (batch+1)%auditEvery == 0 {
			batchRes, err := vdbscan.Cluster(history[oldest:], params)
			if err != nil {
				log.Fatal(err)
			}
			incLive := &vdbscan.Clustering{
				Labels:      res.Labels[oldest:],
				NumClusters: res.NumClusters,
			}
			q, err := vdbscan.Quality(batchRes, incLive)
			if err != nil {
				log.Fatal(err)
			}
			for i, l := range incLive.Labels {
				if (l == vdbscan.Noise) != (batchRes.Labels[i] == vdbscan.Noise) {
					log.Fatalf("batch %d: live point %d is noise=%v incrementally, noise=%v in the batch run",
						batch, i, l == vdbscan.Noise, batchRes.Labels[i] == vdbscan.Noise)
				}
			}
			audit = fmt.Sprintf("quality=%.4f noise-set=exact", q)
		}
		fmt.Printf("%6d %7d %9d %8d %10s %9d  %s\n",
			batch, inc.LiveLen(), res.NumClusters, liveNoise,
			latency.Round(time.Millisecond), dominant, audit)
	}
	fmt.Println("\nthe audit compares the incremental state against a fresh batch run")
	fmt.Println("over the same live window (quality 1.0 = identical partitions; the")
	fmt.Println("noise sets must match exactly).")
}
