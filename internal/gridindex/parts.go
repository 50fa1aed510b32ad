package gridindex

import (
	"fmt"
	"math"

	"vdbscan/internal/geom"
)

// FlatParts is the exported skeleton of a flat grid: the CSR cell offsets,
// the grid-sorted coordinate/id arrays, and the cell geometry scalars.
// Parts exposes them for serialization; FlatFromParts rebuilds a servable
// Flat around arrays read (or mapped) back in. Slices are aliased in both
// directions, never copied.
type FlatParts struct {
	Side, OriginX, OriginY float64
	Cols, Rows             int32
	CellStart              []int32
	Xs, Ys                 []float64
	IDs                    []int32
}

// Parts exposes the Flat's arrays and scalars for serialization. The
// returned slices alias the Flat — treat them as read-only.
func (f *Flat) Parts() FlatParts {
	return FlatParts{
		Side: f.side, OriginX: f.originX, OriginY: f.originY,
		Cols: f.cols, Rows: f.rows,
		CellStart: f.cellStart, Xs: f.xs, Ys: f.ys, IDs: f.ids,
	}
}

// FlatFromParts reconstructs a servable Flat from previously exported
// parts, aliasing the input arrays. The parts may come from an untrusted
// file, so the CSR structure is fully validated first: the offsets must be
// a monotone partition of a prefix of the point arrays, the slots past it
// must hold only non-finite (unplaced) points, every id must land inside
// the caller's index space, and the geometry scalars must describe a real
// grid. Invalid parts return an error; FlatFromParts never panics.
func FlatFromParts(parts FlatParts) (*Flat, error) {
	bad := func(format string, args ...any) (*Flat, error) {
		return nil, fmt.Errorf("gridindex: invalid flat parts: "+format, args...)
	}
	n := len(parts.Xs)
	if len(parts.Ys) != n || len(parts.IDs) != n {
		return bad("point arrays disagree on length")
	}
	if parts.Cols < 0 || parts.Rows < 0 {
		return bad("negative grid shape %dx%d", parts.Cols, parts.Rows)
	}
	cells := int64(parts.Cols) * int64(parts.Rows)
	if cells > MaxCells {
		return bad("%d cells exceed MaxCells", cells)
	}
	if int64(len(parts.CellStart)) != cells+1 {
		return bad("cellStart has %d offsets for %d cells", len(parts.CellStart), cells)
	}
	placed := int(parts.CellStart[cells])
	if parts.CellStart[0] != 0 || placed < 0 || placed > n {
		return bad("cellStart does not partition a prefix of the %d points", n)
	}
	for c := int64(0); c < cells; c++ {
		if parts.CellStart[c] > parts.CellStart[c+1] {
			return bad("cellStart not monotone at cell %d", c)
		}
	}
	for s := placed; s < n; s++ {
		if geom.Finite(parts.Xs[s], parts.Ys[s]) {
			return bad("unplaced slot %d holds a finite point", s)
		}
	}
	for i, id := range parts.IDs {
		if id < 0 || int(id) >= n {
			return bad("slot %d id %d outside [0, %d)", i, id, n)
		}
	}
	if cells > 0 {
		if !(parts.Side > 0) || math.IsInf(parts.Side, 0) {
			return bad("cell side %g not positive and finite", parts.Side)
		}
		if math.IsNaN(parts.OriginX) || math.IsNaN(parts.OriginY) {
			return bad("NaN origin")
		}
	}
	return &Flat{
		side: parts.Side, originX: parts.OriginX, originY: parts.OriginY,
		cols: parts.Cols, rows: parts.Rows,
		cellStart: parts.CellStart, xs: parts.Xs, ys: parts.Ys, ids: parts.IDs,
	}, nil
}
