// Command datagen generates the evaluation datasets of Table I (or any
// custom synthetic/TEC dataset) and writes them to disk.
//
// Usage:
//
//	datagen -table1 -scale 0.01 -out ./datasets            # all 16 datasets
//	datagen -class cF -n 100000 -noise 0.05 -out ds.csv    # one synthetic
//	datagen -sw 1 -scale 0.01 -out sw1.csv                 # one TEC dataset
//
// Every file is written as CSV (dataio.WriteCSV), whatever its name; -table1
// names its files <dataset>.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
	"vdbscan/internal/tec"
)

func main() {
	table1 := flag.Bool("table1", false, "generate all Table I datasets into -out directory")
	class := flag.String("class", "", "synthetic class: cF or cV")
	n := flag.Int("n", 0, "number of points for a single synthetic dataset")
	noise := flag.Float64("noise", 0.05, "noise fraction for a single synthetic dataset")
	sw := flag.Int("sw", 0, "generate simulated space-weather dataset SW<k> (1..4)")
	scale := flag.Float64("scale", 0.01, "size scale factor in (0,1] for -table1 and -sw")
	seed := flag.Uint64("seed", 0xDB5CA7, "generation seed")
	out := flag.String("out", "datasets", "output file (single dataset) or directory (-table1)")
	flag.Parse()

	switch {
	case *table1:
		if err := writeTable1(*out, *scale, *seed); err != nil {
			fail(err)
		}
	case *sw > 0:
		ds, err := tec.SW(*sw, *scale)
		if err != nil {
			fail(err)
		}
		if err := dataio.SaveDataset(*out, ds); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d points) to %s\n", ds.Name, ds.Len(), *out)
	case *class != "":
		var c data.SynthClass
		switch *class {
		case "cF":
			c = data.ClassCF
		case "cV":
			c = data.ClassCV
		default:
			fail(fmt.Errorf("unknown class %q (want cF or cV)", *class))
		}
		ds, err := data.Generate(data.SynthConfig{Class: c, N: *n, NoiseFrac: *noise, Seed: *seed})
		if err != nil {
			fail(err)
		}
		if err := dataio.SaveDataset(*out, ds); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d points) to %s\n", ds.Name, ds.Len(), *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func writeTable1(dir string, scale float64, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	synth, err := data.Table1Synthetic(scale, seed)
	if err != nil {
		return err
	}
	for _, ds := range synth {
		path := filepath.Join(dir, ds.Name+".csv")
		if err := dataio.SaveDataset(path, ds); err != nil {
			return err
		}
		fmt.Printf("wrote %-14s %8d points -> %s\n", ds.Name, ds.Len(), path)
	}
	for k := 1; k <= 4; k++ {
		ds, err := tec.SW(k, scale)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, ds.Name+".csv")
		if err := dataio.SaveDataset(path, ds); err != nil {
			return err
		}
		fmt.Printf("wrote %-14s %8d points -> %s\n", ds.Name, ds.Len(), path)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
