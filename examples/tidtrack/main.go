// Tidtrack: follow Traveling Ionospheric Disturbances across TEC frames.
//
// Each frame is a thresholded TEC snapshot clustered with a variant sweep
// (VariantDBSCAN); the mid-scale variant's clusters become features that a
// greedy tracker links across frames, yielding TID propagation velocities —
// the physical quantity space-weather analysts extract from such maps.
// A spatiotemporal ST-DBSCAN pass over the stacked frames cross-checks the
// per-frame + tracking pipeline.
package main

import (
	"fmt"
	"log"
	"time"

	"vdbscan"
	"vdbscan/internal/stdbscan"
	"vdbscan/internal/tec"
	"vdbscan/internal/track"
)

const (
	frames    = 8
	perFrame  = 15_000
	cadenceHr = 0.25
)

func main() {
	params := vdbscan.CartesianVariants([]float64{1.5, 2.0, 2.5}, []int{8})
	tracker := track.NewTracker(8 /* max centroid jump, degrees */, cadenceHr*2)

	var stacked []stdbscan.Point
	start := time.Now()
	for f := 0; f < frames; f++ {
		epoch := float64(f) * cadenceHr
		ds, err := tec.Simulate(tec.Config{
			N: perFrame, Seed: 7, Time: epoch, Name: fmt.Sprintf("frame%d", f),
		})
		if err != nil {
			log.Fatal(err)
		}
		run, err := vdbscan.ClusterVariants(ds.Points, params, vdbscan.WithThreads(3))
		if err != nil {
			log.Fatal(err)
		}
		mid := run.Results[1] // the 2.0-degree variant drives tracking
		features := track.Extract(ds.Points, mid.Clustering, epoch, 200)
		tracker.Advance(features)
		fmt.Printf("frame %d (t=%.2fh): %d clusters, %d trackable features, %d active tracks\n",
			f, epoch, mid.Clustering.NumClusters, len(features), len(tracker.Active()))

		for _, p := range ds.Points {
			stacked = append(stacked, stdbscan.Point{X: p.X, Y: p.Y, T: epoch})
		}
	}

	fmt.Printf("\nTID tracks (>= 3 frames), %s total:\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("%7s %7s %7s %12s %10s %9s\n", "track", "frames", "size", "v (deg/h)", "speed", "growth/h")
	for _, trk := range tracker.All() {
		if trk.Len() < 3 {
			continue
		}
		vx, vy := trk.Velocity()
		fmt.Printf("%7d %7d %7d (%4.1f, %4.1f) %10.2f %9.2f\n",
			trk.ID, trk.Len(), trk.Last().Size, vx, vy, trk.Speed(), trk.GrowthRate())
	}

	// Cross-check: one spatiotemporal clustering over all frames. Tracks
	// spanning many frames should correspond to large ST clusters.
	stIx := stdbscan.BuildIndex(stacked)
	stRes, err := stdbscan.Run(stIx, stdbscan.Params{Eps1: 2.0, Eps2: cadenceHr * 1.5, MinPts: 8}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nST-DBSCAN cross-check over %d stacked points: %d spatiotemporal clusters, largest %v\n",
		len(stacked), stRes.NumClusters, stRes.TopClusterSizes(3))
}
