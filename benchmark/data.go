package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"vdbscan"
	"vdbscan/internal/tec"
)

// sw1Points is the paper's |D| for SW1; eps values are given in the paper's
// units and scaled by 1/sqrt(n / sw1Points), as internal/bench does, so a
// neighbourhood holds about as many points at the benchmark's sizes as at
// full size.
const sw1Points = 1_864_620

func epsFactor(n int) float64 { return 1 / math.Sqrt(float64(n)/sw1Points) }

// genPoints makes the workload's input from the seed: the n points of a fixed
// SW1-shaped TEC snapshot (the configuration of tec.SW(1, ·)) in an order the
// seed shuffles. Every seed gives another caller order — other bytes for every
// upload, another label vector for every answer — over one point set.
//
// The point set is fixed because the cost of a reuse sweep is chaotic in it.
// Two TEC fields of equal size differ by 60 % in eps-searches on sweep-s2
// (probe: 437 ms vs 715 ms); even dropping a random 5 % of one field moves
// work_units by +-12 % and the makespan's interquartile spread to 19 % of its
// median over ten seeds, which would bury any change under seed-to-seed
// spread. What each workload was chosen for is its density regime and eps
// spread, and those the seed leaves alone.
func genPoints(n int, seed int64) ([]vdbscan.Point, error) {
	ds, err := tec.Simulate(tec.Config{N: n, Seed: 0x5157 + 0x9E37, Waves: 6, Storms: 3, Sites: 40, Name: "SW1"})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	p := ds.Points
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p, nil
}

// pointsCSV renders points as the "x,y" rows vdbscand's upload and append
// endpoints accept. The harness owns this encoder so the program receives
// only generated inputs, never its own writer's output.
func pointsCSV(pts []vdbscan.Point) []byte {
	var b bytes.Buffer
	b.Grow(len(pts) * 40)
	var tmp [32]byte
	for _, p := range pts {
		b.Write(strconv.AppendFloat(tmp[:0], p.X, 'g', -1, 64))
		b.WriteByte(',')
		b.Write(strconv.AppendFloat(tmp[:0], p.Y, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// scaled multiplies each eps multiple by the dataset's eps factor.
func scaled(f float64, mult ...float64) []float64 {
	out := make([]float64, len(mult))
	for i, m := range mult {
		out[i] = m * f
	}
	return out
}
