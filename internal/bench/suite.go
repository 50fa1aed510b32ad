package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"vdbscan/internal/data"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/paper"
	"vdbscan/internal/tec"
	"vdbscan/internal/variant"
)

// Suite runs the paper's experiments at a configurable dataset scale.
type Suite struct {
	// Scale multiplies every dataset's |D| (0 < Scale ≤ 1); 1 reproduces
	// the paper's sizes. ε values are multiplied by 1/√Scale to keep
	// neighborhood populations comparable as density drops (the region is
	// fixed, so density scales with |D|).
	Scale float64
	// Threads is the pool size T for the multithreaded scenarios; the
	// paper uses 16.
	Threads int
	// Seed drives all dataset generation.
	Seed uint64
	// R is the tuned ε-search leaf occupancy; the paper uses 70 for S2/S3.
	R int
	// Trials is the number of repetitions averaged for every timed
	// measurement; the paper averages 3. Default 1 keeps laptop runs fast.
	Trials int
	// Out receives the rendered tables.
	Out io.Writer
	// TracePath, when non-empty, is where Trace writes its Chrome
	// trace-event JSON (the plain-text timeline always goes to Out).
	TracePath string
	// IndexKind selects the ε-search substrate every scenario runs on;
	// NewSuite sets the paper's IndexRTree.
	IndexKind dbscan.IndexKind

	datasets map[string]*data.Dataset
	indexes  map[string]*dbscan.Index // keyed by name/r/kind
}

// NewSuite returns a Suite with the paper's defaults at the given scale.
func NewSuite(scale float64, out io.Writer) *Suite {
	return &Suite{
		Scale:     scale,
		Threads:   16,
		Trials:    1,
		Seed:      0xDB5CA7,
		R:         dbscan.DefaultR,
		IndexKind: dbscan.IndexRTree,
		Out:       out,
		datasets:  map[string]*data.Dataset{},
		indexes:   map[string]*dbscan.Index{},
	}
}

// EpsFactor is the ε multiplier compensating for dataset scaling.
func (s *Suite) EpsFactor() float64 {
	return 1 / math.Sqrt(s.Scale)
}

// scaleEps applies EpsFactor to one value.
func (s *Suite) scaleEps(eps float64) float64 { return eps * s.EpsFactor() }

// scaleEpsAll applies EpsFactor to a set of ε values.
func (s *Suite) scaleEpsAll(eps []float64) []float64 {
	out := make([]float64, len(eps))
	for i, e := range eps {
		out[i] = s.scaleEps(e)
	}
	return out
}

// Dataset returns (generating and caching on first use) the named dataset:
// Table I synthetic names (cF_1M_5N, ...) or SW1..SW4.
func (s *Suite) Dataset(name string) (*data.Dataset, error) {
	if ds, ok := s.datasets[name]; ok {
		return ds, nil
	}
	var ds *data.Dataset
	var err error
	switch name {
	case "SW1", "SW2", "SW3", "SW4":
		ds, err = tec.SW(int(name[2]-'0'), s.Scale)
	default:
		class, n, noise, perr := parseSynthName(name)
		if perr != nil {
			return nil, perr
		}
		scaled := int(float64(n) * s.Scale)
		if scaled < 1 {
			scaled = 1
		}
		// Preserve the full-size dataset's structure at reduced |D|: keep
		// the paper-rule cluster count of the FULL size and stretch every
		// length (cluster sigma) by the same 1/√scale factor the ε values
		// get, so point density per ε-ball matches the full-size run.
		fullClusters := int(float64(n) * 1e-4)
		if fullClusters < 1 {
			fullClusters = 1
		}
		ds, err = data.Generate(data.SynthConfig{
			Class:     class,
			N:         scaled,
			NoiseFrac: noise,
			Sigma:     data.DefaultSigma * s.EpsFactor(),
			Clusters:  fullClusters,
			Seed:      s.Seed + uint64(len(s.datasets))*0x9E37,
		})
		if ds != nil {
			ds.Name = name
		}
	}
	if err != nil {
		return nil, err
	}
	s.datasets[name] = ds
	return ds, nil
}

// parseSynthName decodes the paper's synthetic dataset naming
// (cF_1M_5N → ClassCF, 1e6, 0.05).
func parseSynthName(name string) (data.SynthClass, int, float64, error) {
	var class data.SynthClass
	switch {
	case len(name) > 2 && name[:2] == "cF":
		class = data.ClassCF
	case len(name) > 2 && name[:2] == "cV":
		class = data.ClassCV
	default:
		return 0, 0, 0, fmt.Errorf("bench: unknown dataset %q", name)
	}
	if len(name) < 4 || name[2] != '_' {
		return 0, 0, 0, fmt.Errorf("bench: unparseable dataset name %q", name)
	}
	var noisePct float64
	rest := name[3:]
	us := -1
	for i, c := range rest {
		if c == '_' {
			us = i
			break
		}
	}
	if us < 0 {
		return 0, 0, 0, fmt.Errorf("bench: unparseable dataset name %q", name)
	}
	sizeTag := rest[:us]
	if _, err := fmt.Sscanf(rest[us+1:], "%fN", &noisePct); err != nil {
		return 0, 0, 0, fmt.Errorf("bench: unparseable noise in %q", name)
	}
	var n int
	switch sizeTag {
	case "1M":
		n = 1_000_000
	case "100k":
		n = 100_000
	case "10k":
		n = 10_000
	default:
		if _, err := fmt.Sscanf(sizeTag, "%d", &n); err != nil {
			return 0, 0, 0, fmt.Errorf("bench: unparseable size in %q", name)
		}
	}
	return class, n, noisePct / 100, nil
}

// index returns a cached shared index for a dataset at leaf occupancy r,
// built with the suite's configured index kind.
func (s *Suite) index(ds *data.Dataset, r int) *dbscan.Index {
	key := fmt.Sprintf("%s/%d/%s", ds.Name, r, s.IndexKind)
	if ix, ok := s.indexes[key]; ok {
		return ix
	}
	ix := dbscan.BuildIndex(ds.Points, dbscan.IndexOptions{R: r, Kind: s.IndexKind})
	s.indexes[key] = ix
	return ix
}

// trials returns the effective repetition count.
func (s *Suite) trials() int {
	if s.Trials < 1 {
		return 1
	}
	return s.Trials
}

// timeTrials runs f Trials times and returns the mean wall time.
func (s *Suite) timeTrials(f func() error) (time.Duration, error) {
	times := make([]float64, 0, s.trials())
	for t := 0; t < s.trials(); t++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return time.Duration(Mean(times) * float64(time.Second)), nil
}

// refRun executes the reference implementation: sequential DBSCAN (T=1,
// r=1, no reuse) over every variant, returning the mean total response
// time over Trials repetitions and the last trial's work.
func (s *Suite) refRun(ds *data.Dataset, vs []variant.Variant) (time.Duration, metrics.Snapshot, error) {
	ix := s.index(ds, 1)
	var m metrics.Counters
	mean, err := s.timeTrials(func() error {
		m.Reset()
		for _, v := range vs {
			if _, err := dbscan.Run(ix, v.Params, &m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, metrics.Snapshot{}, err
	}
	return mean, m.Snapshot(), nil
}

// vdbRun executes VariantDBSCAN over vs with the given configuration and
// returns the run, the wall time, and the accumulated work.
func (s *Suite) vdbRun(ds *data.Dataset, vs []variant.Variant, threads int,
	scheme paper.Scheme, strategy paper.Strategy, disableReuse bool, r int,
) (*paper.RunResult, time.Duration, metrics.Snapshot, error) {
	ix := s.index(ds, r)
	var m metrics.Counters
	var rr *paper.RunResult
	mean, err := s.timeTrials(func() error {
		m.Reset()
		var err error
		rr, err = paper.Execute(ix, vs, paper.Options{
			Threads:      threads,
			Strategy:     strategy,
			Scheme:       scheme,
			DisableReuse: disableReuse,
			Metrics:      &m,
		})
		return err
	})
	if err != nil {
		return nil, 0, metrics.Snapshot{}, err
	}
	return rr, mean, m.Snapshot(), nil
}

// identicalVariants builds scenario S1's workload: n copies of one variant.
func identicalVariants(p dbscan.Params, n int) []variant.Variant {
	params := make([]dbscan.Params, n)
	for i := range params {
		params[i] = p
	}
	return variant.New(params)
}

// seconds renders a duration in seconds with millisecond precision.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// speedup is the paper's relative speedup: reference time / measured time
// (11.01x corresponds to the paper's "1101% faster").
func speedup(ref, got time.Duration) float64 {
	if got <= 0 {
		return 0
	}
	return float64(ref) / float64(got)
}
