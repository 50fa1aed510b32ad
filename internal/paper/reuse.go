package paper

// This file holds the cluster-reuse prioritization techniques of paper
// §IV-C. When VariantDBSCAN reuses a completed variant, expanding one
// seed cluster can absorb points of other old clusters, destroying them as
// reuse candidates — so the order in which seed clusters are expanded
// determines how much reuse is achieved. Three schemes are proposed:
//
//	CLUSDEFAULT    — generation order (cluster ID order);
//	CLUSDENSITY    — densest first, density = |C| / area(MBB(C));
//	CLUSPTSSQUARED — highest |C|² / area(MBB(C)) first, favoring clusters
//	                 with many points even when not the densest.
//
// The paper finds CLUSDENSITY the strongest (565% faster than the reference
// on SW1) and CLUSPTSSQUARED can even lose to clustering from scratch.

import (
	"fmt"
	"sort"

	"vdbscan/internal/cluster"
)

// Scheme selects a seed-cluster prioritization.
type Scheme int

const (
	// ClusDefault selects clusters in the order they were generated.
	ClusDefault Scheme = iota
	// ClusDensity selects clusters from highest to lowest |C|/area.
	ClusDensity
	// ClusPtsSquared selects clusters from highest to lowest |C|²/area.
	ClusPtsSquared
)

// Schemes lists all schemes in paper order, for sweeps.
var Schemes = []Scheme{ClusDefault, ClusDensity, ClusPtsSquared}

// String implements fmt.Stringer with the paper's names.
func (s Scheme) String() string {
	switch s {
	case ClusDefault:
		return "CLUSDEFAULT"
	case ClusDensity:
		return "CLUSDENSITY"
	case ClusPtsSquared:
		return "CLUSPTSSQUARED"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SeedList is getSeedList (Algorithm 3, line 6): it orders the completed
// variant's clusters by the scheme's priority and returns their IDs. All
// clusters are candidates; prioritization only affects which survive the
// destruction race.
func SeedList(infos []cluster.Info, s Scheme) []int32 {
	ids := make([]int32, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	switch s {
	case ClusDefault:
		// Generation order == ID order; infos are already ID-ordered.
	case ClusDensity:
		sort.SliceStable(ids, func(a, b int) bool {
			return infos[ids[a]-1].Density > infos[ids[b]-1].Density
		})
	case ClusPtsSquared:
		sort.SliceStable(ids, func(a, b int) bool {
			return infos[ids[a]-1].PtsSq > infos[ids[b]-1].PtsSq
		})
	}
	return ids
}
