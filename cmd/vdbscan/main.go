// Command vdbscan clusters a dataset file with one or many DBSCAN variants.
//
// Usage:
//
//	vdbscan -in data.csv -eps 0.5 -minpts 4                     # one variant
//	vdbscan -in data.gob -A 0.2,0.4,0.6 -B 4,8,16 -threads 8    # V = A x B
//	vdbscan -in data.csv -eps 0.5 -minpts 4 -labels out.csv     # save labels
//
// With -A/-B the full variant set is executed with VariantDBSCAN (shared
// index, ε-chains by default or a paper heuristic's cluster reuse with
// -sched greedy|minpts|tree, scheduling) and a per-variant summary is printed;
// -labels then writes one file per variant (out.v0.csv, out.v1.csv, ...)
// in CartesianVariants order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vdbscan"
	"vdbscan/internal/cliutil"
	"vdbscan/internal/dataio"
	renderpkg "vdbscan/internal/render"
)

func main() {
	in := flag.String("in", "", "input dataset (.csv or gob)")
	eps := flag.Float64("eps", 0, "epsilon for a single run")
	minpts := flag.Int("minpts", 4, "minpts for a single run")
	aList := flag.String("A", "", "comma-separated eps values (variant set A)")
	bList := flag.String("B", "", "minpts values: comma list (4,8,16) or range lo:hi:step (10:100:5)")
	threads := flag.Int("threads", 1, "worker goroutines")
	r := flag.Int("r", 70, "points per leaf MBB in the eps-search tree")
	indexKind := flag.String("index", "rtree", "eps-search index structure: rtree or grid")
	scheme := flag.String("reuse", "density", "cluster reuse scheme of a paper heuristic: default, density, ptssquared")
	strategy := flag.String("sched", "chain", "variant schedule: chain (ε-chains), or a paper heuristic running Alg. 3/4: greedy, minpts, tree")
	labelsOut := flag.String("labels", "", "write per-point labels CSV here (variant runs write one .vN file per variant)")
	top := flag.Int("top", 5, "show the k largest clusters")
	render := flag.Bool("render", false, "draw an ASCII map of the clustering (single run only)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := dataio.LoadDataset(*in)
	if err != nil {
		fail(err)
	}
	fmt.Printf("loaded %s: %d points\n", ds.Name, ds.Len())

	schemeVal, err := cliutil.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	strategyVal, err := cliutil.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}
	kindVal, err := cliutil.ParseIndexKind(*indexKind)
	if err != nil {
		fail(err)
	}

	idx := vdbscan.NewIndex(ds.Points, vdbscan.WithR(*r), vdbscan.WithIndexKind(kindVal))

	if *aList != "" || *bList != "" {
		A, err := cliutil.ParseFloats(*aList)
		if err != nil {
			fail(fmt.Errorf("bad -A: %w", err))
		}
		B, err := cliutil.ParseRange(*bList)
		if err != nil {
			fail(fmt.Errorf("bad -B: %w", err))
		}
		params := vdbscan.CartesianVariants(A, B)
		var work vdbscan.Work
		run, err := idx.ClusterVariants(params,
			vdbscan.WithThreads(*threads),
			vdbscan.WithReuseScheme(schemeVal),
			vdbscan.WithStrategy(strategyVal),
			vdbscan.WithWork(&work))
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-14s %9s %8s %8s %10s %8s\n",
			"variant", "clusters", "noise", "reused", "time", "scratch")
		for _, vr := range run.Results {
			fmt.Printf("%-14s %9d %8d %7.1f%% %10s %8v\n",
				vr.Params.String(), vr.Clustering.NumClusters, vr.Clustering.NumNoise(),
				vr.FractionReused*100, vr.Duration().Round(time.Microsecond), vr.FromScratch)
		}
		fmt.Printf("\nmakespan=%s threads=%d meanReuse=%.1f%%\n",
			run.Makespan.Round(time.Millisecond), run.Threads, run.MeanFractionReused()*100)
		fmt.Printf("work: %v\n", work)
		if *labelsOut != "" {
			for i, vr := range run.Results {
				path := variantLabelsPath(*labelsOut, i)
				if err := writeLabels(path, vr.Clustering); err != nil {
					fail(err)
				}
			}
			fmt.Printf("labels written to %s (%d variants)\n",
				variantLabelsPath(*labelsOut, 0)+" ...", len(run.Results))
		}
		return
	}

	if *eps <= 0 {
		fail(fmt.Errorf("need -eps (or -A/-B for a variant set)"))
	}
	start := time.Now()
	res, err := idx.Cluster(vdbscan.Params{Eps: *eps, MinPts: *minpts})
	if err != nil {
		fail(err)
	}
	fmt.Printf("eps=%g minpts=%d: %d clusters, %d noise points in %s\n",
		*eps, *minpts, res.NumClusters, res.NumNoise(), time.Since(start).Round(time.Microsecond))
	if res.NumClusters > 0 {
		fmt.Printf("largest clusters: %v\n", res.TopClusterSizes(*top))
	}
	if *render {
		fmt.Println()
		if err := renderpkg.Clusters(os.Stdout, ds.Points, res, renderpkg.Options{Width: 100, Height: 30}); err != nil {
			fail(err)
		}
	}
	if *labelsOut != "" {
		if err := writeLabels(*labelsOut, res); err != nil {
			fail(err)
		}
		fmt.Printf("labels written to %s\n", *labelsOut)
	}
}

func writeLabels(path string, res *vdbscan.Clustering) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataio.WriteLabelsCSV(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// variantLabelsPath derives the per-variant labels file for variant i:
// "out.csv" becomes "out.v0.csv", an extension-less base gets ".v0".
func variantLabelsPath(base string, i int) string {
	if ext := filepath.Ext(base); ext != "" {
		return fmt.Sprintf("%s.v%d%s", strings.TrimSuffix(base, ext), i, ext)
	}
	return fmt.Sprintf("%s.v%d", base, i)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vdbscan:", err)
	os.Exit(1)
}
