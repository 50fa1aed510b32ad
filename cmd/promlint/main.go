// Command promlint validates a Prometheus text-format exposition with the
// in-tree parser (internal/obs/prom) — a promtool-style lint with no
// external dependency, used by CI against vdbscand's live /metrics output.
//
// Usage:
//
//	curl -s localhost:8714/metrics | promlint -min-histograms 5 -require-labels dataset
//	curl -s localhost:8714/metrics | promlint -require-family-labels vdbscand_tenant_:tenant
//	promlint metrics.txt
//
// -require-family-labels is repeatable and takes PREFIX:LABEL[,LABEL...]:
// at least one family (of any type) whose name starts with PREFIX must be
// present with samples, and every such family's samples must carry all the
// listed labels. Unlike -require-labels it covers counters and gauges, not
// just histograms — vdbscand's per-tenant accounting families are counters.
//
// Exit status is non-zero when the input is malformed or a requirement is
// unmet; on success it prints a one-line summary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vdbscan/internal/obs/prom"
)

func main() {
	minHist := flag.Int("min-histograms", 0, "fail unless at least this many histogram families are present")
	requireLabels := flag.String("require-labels", "",
		"comma-separated label names every histogram family must carry on its samples")
	var familyReqs []familyReq
	flag.Func("require-family-labels",
		"PREFIX:LABEL[,LABEL...] — require >=1 family named PREFIX* with samples carrying the labels (repeatable)",
		func(v string) error {
			req, err := parseFamilyReq(v)
			if err != nil {
				return err
			}
			familyReqs = append(familyReqs, req)
			return nil
		})
	flag.Parse()

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	} else if flag.NArg() > 1 {
		fatal("usage: promlint [flags] [file]")
	}

	exp, err := prom.Parse(in)
	if err != nil {
		fatal("%s: %v", name, err)
	}
	if got := exp.Histograms(); got < *minHist {
		fatal("%s: %d histogram families, want >= %d", name, got, *minHist)
	}
	if *requireLabels != "" {
		want := strings.Split(*requireLabels, ",")
		for _, fam := range exp.Families {
			if fam.Type != "histogram" || len(fam.Samples) == 0 {
				continue
			}
			for _, l := range want {
				if _, ok := fam.Samples[0].Labels[strings.TrimSpace(l)]; !ok {
					fatal("%s: histogram %s missing required label %q", name, fam.Name, l)
				}
			}
		}
	}
	for _, req := range familyReqs {
		matched := 0
		for _, fam := range exp.Families {
			if !strings.HasPrefix(fam.Name, req.prefix) || len(fam.Samples) == 0 {
				continue
			}
			matched++
			for _, l := range req.labels {
				if _, ok := fam.Samples[0].Labels[l]; !ok {
					fatal("%s: family %s missing required label %q", name, fam.Name, l)
				}
			}
		}
		if matched == 0 {
			fatal("%s: no family named %s* has samples (required labels %s)",
				name, req.prefix, strings.Join(req.labels, ","))
		}
	}
	samples := 0
	for _, fam := range exp.Families {
		samples += len(fam.Samples)
	}
	fmt.Printf("promlint: %s ok — %d families (%d histograms), %d samples\n",
		name, len(exp.Families), exp.Histograms(), samples)
}

// familyReq is one parsed -require-family-labels value.
type familyReq struct {
	prefix string
	labels []string
}

func parseFamilyReq(v string) (familyReq, error) {
	prefix, labelList, ok := strings.Cut(v, ":")
	if !ok || prefix == "" || labelList == "" {
		return familyReq{}, fmt.Errorf("want PREFIX:LABEL[,LABEL...], got %q", v)
	}
	var labels []string
	for _, l := range strings.Split(labelList, ",") {
		if l = strings.TrimSpace(l); l != "" {
			labels = append(labels, l)
		}
	}
	if len(labels) == 0 {
		return familyReq{}, fmt.Errorf("no labels in %q", v)
	}
	return familyReq{prefix: strings.TrimSpace(prefix), labels: labels}, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "promlint: "+format+"\n", args...)
	os.Exit(1)
}
