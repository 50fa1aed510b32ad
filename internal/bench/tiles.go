package bench

import (
	"context"
	"fmt"
	"time"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
)

// tileSweep is the tile-count axis: untiled, 2×2, 4×4, 8×8.
var tileSweep = []int{1, 4, 16, 64}

// Tiles sweeps tile-level parallelism (variant → tile → chunk) over the
// synthetic cF sets: one variant per run on the flat cell grid, T workers,
// tile count stepping 1 → 2×2 → 4×4 → 8×8. Columns:
//
//   - Speedup is against the untiled chunked runner (tiles=1) on the same
//     index — both paths produce byte-identical labels, so this isolates
//     the scheduling difference (whole-tile claims vs fixed-size claims of
//     consecutive cells). Both run the same two cell-major passes; there
//     is no merge step to price.
//   - Part/MaxTile report what the partitioner chose: regular k×k or kd
//     cuts, and the largest tile's point count (the balance bound).
//
// The clusters column must be constant down each dataset's rows — the
// exactness contract means tiling may only move time, never labels.
func (s *Suite) Tiles() error {
	section(s.Out, "Tiles: tile-level parallelism (WithTiles)")
	fmt.Fprintln(s.Out, "-- 1 variant, no reuse, grid index, T =", s.Threads, "--")
	t := newTable("Dataset", "Eps", "Tiles", "Part", "MaxTile", "RunTime", "Speedup", "Clusters")
	// The Table II ε for each set, plus a dense-neighborhood row on the 1M
	// set (ε=2): the tile win is a locality effect, so it scales with the
	// candidate volume per search, not with |D| alone.
	for _, spec := range []struct {
		dataset string
		eps     float64
	}{
		{"cF_100k_5N", 4},
		{"cF_1M_5N", 0.5},
		{"cF_1M_5N", 2},
	} {
		ds, err := s.Dataset(spec.dataset)
		if err != nil {
			return err
		}
		p := dbscan.Params{Eps: s.scaleEps(spec.eps), MinPts: s1MinPts}
		ix := s.indexKind(ds, s.R, dbscan.IndexGrid)
		if err := ix.EnsureGrid(p.Eps); err != nil {
			return err
		}
		var untiled time.Duration
		for _, tiles := range tileSweep {
			clusters := 0
			wall, err := s.timeTrials(func() error {
				var m metrics.Counters
				r, err := dbscan.RunParallelOpts(context.Background(), ix, p, dbscan.ParallelOptions{
					Workers: s.Threads,
					Tiles:   tiles,
				}, &m)
				if r != nil {
					clusters = r.NumClusters
				}
				return err
			})
			if err != nil {
				return err
			}
			partKind, maxTile := "-", "-"
			if part := ix.TilePartition(tiles); tiles > 1 && part != nil {
				partKind = fmt.Sprintf("%s/%d", part.Kind(), part.Len())
				maxTile = fmt.Sprint(part.MaxTilePoints())
			}
			sp := 1.0
			if tiles == 1 {
				untiled = wall
			} else {
				sp = speedup(untiled, wall)
			}
			t.add(spec.dataset, p.Eps, tiles, partKind, maxTile, seconds(wall), sp, clusters)
		}
	}
	t.write(s.Out)
	fmt.Fprintln(s.Out, "\nTiling pays when T workers can hold T tiles in cache instead of")
	fmt.Fprintln(s.Out, "striding chunk-interleaved over the whole grid.")
	return nil
}
