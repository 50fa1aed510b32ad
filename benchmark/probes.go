package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"vdbscan"
	"vdbscan/internal/dataio"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/kernel"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/persist"
	"vdbscan/internal/tiling"
)

// probeInput is what a workload hands the layer probes: its own dataset,
// one representative variant, its largest eps (the grid is sided for it)
// and the index kind it runs on.
type probeInput struct {
	pts    []vdbscan.Point
	params vdbscan.Params
	maxEps float64
	kind   vdbscan.IndexKind
}

// runProbes measures each layer from outside, by timing direct calls into
// its public functions, and stores the per-layer metrics in vals. The same
// probes run in every workload's traced run, on that workload's data, so
// each number is a real measurement everywhere and a layer change can be
// read against the workload it was meant for.
func runProbes(in probeInput, vals map[string]float64, log io.Writer, scale float64) error {
	probeKernel(vals, log, scale)
	if err := probeDBSCAN(in, vals); err != nil {
		return err
	}
	return probeStorage(in, vals)
}

// timeIt runs f once and returns seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// probeKernel measures kernel.FilterEps against a streaming read of the
// same arrays in the same run. Bytes are computed, not counted: 16 B per
// point scanned (one x and one y).
func probeKernel(vals map[string]float64, log io.Writer, scale float64) {
	l2, l3 := cacheBytes(2, "Unified"), cacheBytes(3, "Unified")
	if l2 == 0 {
		l2 = 2 << 20
	}
	// At least 4x L2; 4x the reported L3 when that is affordable. A
	// virtualised host can report a last-level cache of hundreds of MiB
	// shared with strangers; the arrays stop at 256 MiB so the probe stays
	// inside its second.
	target := 4 * l2
	if want := 4 * l3; want > target {
		target = min(want, 256<<20)
	}
	// Smoke tests shrink the arrays with everything else.
	n := int(max(float64(target)*scale, 1<<20) / 16)
	xs, ys := make([]float64, n), make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*360, rng.Float64()*180
	}
	gb := float64(n) * 16 / 1e9

	var filter, stream []float64
	var dst []int32
	var sink int
	for pass := 0; pass < 5; pass++ {
		// eps = 3 degrees keeps ~0.04 % of the points, so the pass is a
		// read of the two arrays and next to no writes.
		filter = append(filter, gb/timeIt(func() {
			dst = kernel.FilterEps(dst[:0], xs, ys, 0, 180, 90, 9)
		}))
		stream = append(stream, gb/timeIt(func() { sink += readAll(xs) + readAll(ys) }))
	}
	runtime.KeepAlive(sink)
	vals["kernel.filter_gbps"] = median(filter)
	vals["kernel.stream_gbps"] = median(stream)
	vals["kernel.roofline_share"] = median(filter) / median(stream)

	// The R-tree's leaf scan: 70 points that stay in L1.
	const leaf, calls = 70, 200_000
	lx, ly := xs[:leaf], ys[:leaf]
	sec := timeIt(func() {
		for i := 0; i < calls; i++ {
			dst = kernel.FilterEps(dst[:0], lx, ly, 0, 180, 90, 9)
		}
	})
	vals["kernel.filter_ns_per_point_leaf"] = sec * 1e9 / (leaf * calls)
	fmt.Fprintf(log, "# kernel probe: arrays 2 x %.1f MiB (L2 %.1f MiB, L3 %.1f MiB)\n",
		float64(n)*8/(1<<20), float64(l2)/(1<<20), float64(l3)/(1<<20))
}

// readAll reads every byte of v once through bytes.Count, the standard
// library's vectorised scan: nothing to compute, so it runs at the speed one
// core can read memory. That is the roofline the filter is held against.
func readAll(v []float64) int {
	return bytes.Count(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8), []byte{0})
}

// phaseSeconds sums the duration of each named phase in a tracer's events.
func phaseSeconds(evs []obs.Event) map[string]float64 {
	type key struct {
		worker int32
		phase  int64
	}
	open := map[key]time.Duration{}
	out := map[string]float64{}
	for _, e := range evs {
		k := key{e.Worker, e.Arg}
		switch e.Kind {
		case obs.KindPhaseBegin:
			open[k] = e.At
		case obs.KindPhaseEnd:
			out[obs.Phase(e.Arg).String()] += (e.At - open[k]).Seconds()
		}
	}
	return out
}

// tracedParallel runs one variant through dbscan.RunParallelOpts with the
// program's own phase recorder attached and returns wall seconds, phase
// seconds and the result.
func tracedParallel(ix *dbscan.Index, p dbscan.Params, tiles int) (float64, map[string]float64, *vdbscan.Clustering, error) {
	tr := obs.NewTracer()
	tr.StartRun(time.Now(), "probe", nil)
	var res *vdbscan.Clustering
	var err error
	sec := timeIt(func() {
		res, err = dbscan.RunParallelOpts(context.Background(), ix, p,
			dbscan.ParallelOptions{Workers: runtime.GOMAXPROCS(0), Tiles: tiles, Rec: tr.Worker(0)}, nil)
	})
	return sec, phaseSeconds(tr.Events()), res, err
}

func probeDBSCAN(in probeInput, vals map[string]float64) error {
	n := len(in.pts)
	var rt, gr *dbscan.Index
	vals["dbscan.build_rtree_s"] = timeIt(func() { rt = dbscan.BuildIndex(in.pts, dbscan.IndexOptions{}) })
	vals["dbscan.build_grid_s"] = timeIt(func() { gr = dbscan.BuildIndex(in.pts, dbscan.IndexOptions{Kind: dbscan.IndexGrid}) })
	var err error
	vals["dbscan.ensure_grid_s"] = timeIt(func() { err = gr.EnsureGrid(in.maxEps) })
	if err != nil {
		return err
	}

	// One eps-search per sampled point at the workload's eps.
	stride := max(n/20_000, 1)
	for _, k := range []struct {
		name string
		ix   *dbscan.Index
	}{{"rtree", rt}, {"grid", gr}} {
		var m metrics.Counters
		var dst []int32
		queries := 0
		sec := timeIt(func() {
			for i := 0; i < n; i += stride {
				dst = k.ix.NeighborSearch(k.ix.Pts[i], in.params.Eps, &m, dst[:0])
				queries++
			}
		})
		s := m.Snapshot()
		vals["dbscan.search_ns_"+k.name] = sec * 1e9 / float64(queries)
		vals["dbscan.candidates_per_search_"+k.name] = float64(s.CandidatesExamined) / float64(queries)
		vals["dbscan.nodes_per_search_"+k.name] = float64(s.NodesVisited) / float64(queries)
		vals["dbscan.useful_candidate_share_"+k.name] = float64(s.NeighborsFound) / float64(max(s.CandidatesExamined, 1))
	}

	// One variant per runner, on the kind the workload uses.
	ix := rt
	if in.kind == vdbscan.IndexGrid {
		ix = gr
	}
	vals["dbscan.run_seq_s"] = timeIt(func() { _, err = dbscan.RunCtx(context.Background(), ix, in.params, nil) })
	if err != nil {
		return err
	}
	sec, phases, res, err := tracedParallel(ix, in.params, 1)
	if err != nil {
		return err
	}
	vals["dbscan.run_par_s"] = sec
	vals["dbscan.par_speedup"] = vals["dbscan.run_seq_s"] / sec
	for _, ph := range []string{"mark", "link", "label", "border"} {
		vals["dbscan.phase_"+ph+"_s"] = phases[ph]
	}

	// Tiling: cut a fresh grid (the partition is cached per grid snapshot)
	// into the tile count auto mode would pick, or two where auto declines,
	// then run the same variant tiled.
	tg := dbscan.BuildIndex(in.pts, dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	if err := tg.EnsureGrid(in.maxEps); err != nil {
		return err
	}
	target := max(tiling.Auto(n, runtime.GOMAXPROCS(0)), 2)
	var part *tiling.Partition
	vals["tiling.partition_s"] = timeIt(func() { part = tg.TilePartition(target) })
	if part != nil {
		vals["tiling.tiles"] = float64(part.Len())
		vals["tiling.max_tile_share"] = float64(part.MaxTilePoints()) / float64(n)
	}
	_, phases, _, err = tracedParallel(tg, in.params, target)
	if err != nil {
		return err
	}
	vals["tiling.tile_run_s"] = phases["tile-run"]
	vals["tiling.tile_merge_s"] = phases["tile-merge"]

	var buf bytes.Buffer
	sec = timeIt(func() { err = dataio.WriteLabelsCSV(&buf, res) })
	if err != nil {
		return err
	}
	vals["dataio.write_labels_mbps"] = float64(buf.Len()) / 1e6 / sec
	return nil
}

// probeStorage times the facade's index build, CSV decode, and the persist
// layer's snapshot and WAL calls, in a scratch directory under out/.
func probeStorage(in probeInput, vals map[string]float64) error {
	n := len(in.pts)
	var ix *vdbscan.Index
	vals["vdbscan.new_index_s"] = timeIt(func() { ix = vdbscan.NewIndex(in.pts) })

	csv := pointsCSV(in.pts)
	var err error
	sec := timeIt(func() { _, err = dataio.ReadCSV(bytes.NewReader(csv)) })
	if err != nil {
		return err
	}
	vals["dataio.read_csv_mbps"] = float64(len(csv)) / 1e6 / sec

	dir, err := os.MkdirTemp(outDir(), "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "snapshot")
	vals["persist.save_s"] = timeIt(func() { err = ix.SaveSnapshot(snap, 1) })
	if err != nil {
		return err
	}
	st, err := os.Stat(snap)
	if err != nil {
		return err
	}
	vals["persist.snapshot_bytes_per_point"] = float64(st.Size()) / float64(n)
	vals["persist.load_s"] = timeIt(func() { _, _, err = vdbscan.LoadSnapshot(snap) })
	if err != nil {
		return err
	}

	walPath := filepath.Join(dir, "wal.1")
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < 64; i++ {
		batch := in.pts[(i*appendBatch)%(n-appendBatch):][:appendBatch]
		appends = append(appends, 1e3*timeIt(func() { err = wal.Append(batch) }))
		if err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	vals["persist.wal_append_ms"] = median(appends)
	vals["persist.wal_replay_s"] = timeIt(func() { _, err = persist.ReplayWAL(walPath) })
	return err
}
