package dataio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
)

func sample() *data.Dataset {
	return &data.Dataset{
		Name:          "cF_test_5N",
		Points:        []geom.Point{{X: 1.25, Y: -3.5}, {X: 0, Y: 0}, {X: 359.999, Y: 180}},
		NoiseFrac:     0.05,
		SynthClusters: 2,
		Seed:          42,
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if got.Name != want.Name || got.NoiseFrac != want.NoiseFrac ||
		got.SynthClusters != want.SynthClusters || got.Seed != want.Seed {
		t.Errorf("provenance lost: %+v", got)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("points = %d", len(got.Points))
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Errorf("point %d = %v, want %v", i, got.Points[i], want.Points[i])
		}
	}
}

func TestCSVExactFloatRoundTrip(t *testing.T) {
	ds := &data.Dataset{Name: "precision", NoiseFrac: -1,
		Points: []geom.Point{{X: math.Pi, Y: math.Sqrt2}, {X: 1e-17, Y: -1e17}}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Points {
		if got.Points[i] != ds.Points[i] {
			t.Errorf("float not exactly preserved: %v vs %v", got.Points[i], ds.Points[i])
		}
	}
}

func TestReadCSVBareFile(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("1,2\n3,4\n\n5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 3 || got.Name != "unnamed" || got.NoiseFrac != -1 {
		t.Errorf("bare csv: %+v", got)
	}
}

func TestReadCSVWhitespaceTolerant(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("  1.5 , 2.5 \n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Points[0] != (geom.Point{X: 1.5, Y: 2.5}) {
		t.Errorf("point = %v", got.Points[0])
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a,2\n", "1,b\n", "1,2,3\n"} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestSaveLoadDatasetByExtension round-trips a dataset through files of
// any name: every one is CSV.
func TestSaveLoadDatasetByExtension(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"d.csv", "d.dat", "d"} {
		path := filepath.Join(dir, name)
		if err := SaveDataset(path, sample()); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != "cF_test_5N" || len(got.Points) != 3 {
			t.Errorf("%s: %+v", name, got)
		}
	}
	if _, err := LoadDataset(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSaveDatasetBadPath(t *testing.T) {
	if err := SaveDataset(string(filepath.Separator)+"no"+string(filepath.Separator)+"such"+string(filepath.Separator)+"dir"+string(filepath.Separator)+"x.csv", sample()); err == nil {
		t.Error("bad path accepted")
	}
	_ = os.Remove("x.csv")
}

func TestLabelsCSVRoundTrip(t *testing.T) {
	res := &cluster.Result{Labels: []int32{1, cluster.Noise, 2, 1}, NumClusters: 2}
	var buf bytes.Buffer
	if err := WriteLabelsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabelsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 2 || len(got.Labels) != 4 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range res.Labels {
		if got.Labels[i] != res.Labels[i] {
			t.Errorf("label %d = %d, want %d", i, got.Labels[i], res.Labels[i])
		}
	}
}

// TestWriteLabelsCSVBytes pins the encoder to the bytes of the
// fmt.Fprintf form it replaced, "# clusters: %d\n" then "%d,%d\n" per
// point, across empty, one-point, all-noise and buffer-crossing label sets.
func TestWriteLabelsCSVBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 1000, 20000} {
		for _, clusters := range []int{0, 3, math.MaxInt32} {
			res := &cluster.Result{Labels: make([]int32, n), NumClusters: clusters}
			for i := range res.Labels {
				res.Labels[i] = cluster.Noise
				if clusters > 0 && rng.Intn(4) > 0 {
					res.Labels[i] = int32(1 + rng.Intn(clusters))
				}
			}
			var want bytes.Buffer
			fmt.Fprintf(&want, "# clusters: %d\n", res.NumClusters)
			for i, l := range res.Labels {
				fmt.Fprintf(&want, "%d,%d\n", i, l)
			}
			var got bytes.Buffer
			if err := WriteLabelsCSV(&got, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d clusters=%d: encoder bytes differ from %%d,%%d", n, clusters)
			}
		}
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriteLabelsCSVWriteError: a failed write surfaces, whether it is the
// only write, a full buffer's or a later one.
func TestWriteLabelsCSVWriteError(t *testing.T) {
	for _, c := range []struct{ n, after int }{{1, 0}, {20000, 0}, {20000, 40 << 10}} {
		res := &cluster.Result{Labels: make([]int32, c.n), NumClusters: 1}
		if err := WriteLabelsCSV(&failWriter{after: c.after}, res); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("n=%d after %d B: err = %v, want the write error", c.n, c.after, err)
		}
	}
}

func TestReadLabelsCSVErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "x,1\n", "0,y\n", "5,1\n"} {
		if _, err := ReadLabelsCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestEmptyDatasetRoundTrips(t *testing.T) {
	empty := &data.Dataset{Name: "empty", NoiseFrac: -1}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, empty); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil || got.Len() != 0 {
		t.Errorf("empty csv: %v %v", got, err)
	}
}
