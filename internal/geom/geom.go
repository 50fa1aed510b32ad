// Package geom provides the 2-D geometric primitives used throughout the
// VariantDBSCAN implementation: points, minimum bounding boxes (MBBs), and
// distance computations.
//
// The paper operates on a database D of 2-D points (x, y) — thresholded
// Total Electron Content samples in the space-weather application — and all
// spatial reasoning is done with axis-aligned MBBs (R-tree entries, query
// boxes enlarged by ε, and cluster-circumscribing boxes).
package geom

import (
	"fmt"
	"math"
)

// Point is a single 2-D observation. For the space-weather datasets X and Y
// are longitude-like and latitude-like coordinates in degrees, but the
// algorithms are unit-agnostic.
type Point struct {
	X, Y float64
}

// Finite reports whether both coordinates are finite numbers. A point
// with a NaN or infinite coordinate gets no grid bin or cell.
func Finite(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. The DBSCAN
// inner loops compare squared distances against ε² to avoid the sqrt.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Within reports whether q lies within distance eps of p.
func (p Point) Within(q Point, eps float64) bool {
	return p.DistSq(q) <= eps*eps
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// MBB is an axis-aligned minimum bounding box with inclusive bounds.
// The zero value is not a valid box; use EmptyMBB to start accumulating.
type MBB struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyMBB returns the identity element for Extend/Union: a box that
// contains nothing and unions to the other operand.
func EmptyMBB() MBB {
	return MBB{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether the box is the empty box (contains no points).
func (b MBB) IsEmpty() bool {
	return b.MinX > b.MaxX || b.MinY > b.MaxY
}

// MBBOf returns the degenerate box containing exactly p.
func MBBOf(p Point) MBB {
	return MBB{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// MBBOfPoints returns the smallest box containing every point in pts,
// or the empty box when pts is empty.
func MBBOfPoints(pts []Point) MBB {
	b := EmptyMBB()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// QueryMBB builds the ε-augmented query box around p used by
// NeighborSearch (Algorithm 2):
//
//	MBB_min = (x−ε, y−ε), MBB_max = (x+ε, y+ε).
func QueryMBB(p Point, eps float64) MBB {
	return MBB{MinX: p.X - eps, MinY: p.Y - eps, MaxX: p.X + eps, MaxY: p.Y + eps}
}

// Expand returns b grown by d on every side. Used to augment a cluster's
// circumscribing box by ε (Algorithm 3, line 10).
func (b MBB) Expand(d float64) MBB {
	if b.IsEmpty() {
		return b
	}
	return MBB{MinX: b.MinX - d, MinY: b.MinY - d, MaxX: b.MaxX + d, MaxY: b.MaxY + d}
}

// ExtendPoint returns the smallest box containing b and p. A point with a
// NaN coordinate, within ε of nothing, leaves b unchanged: a NaN bound
// would fail every later overlap test against b.
func (b MBB) ExtendPoint(p Point) MBB {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		return b
	}
	if b.IsEmpty() {
		return MBBOf(p)
	}
	if p.X < b.MinX {
		b.MinX = p.X
	}
	if p.Y < b.MinY {
		b.MinY = p.Y
	}
	if p.X > b.MaxX {
		b.MaxX = p.X
	}
	if p.Y > b.MaxY {
		b.MaxY = p.Y
	}
	return b
}

// Union returns the smallest box containing both b and o.
func (b MBB) Union(o MBB) MBB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	if o.MinX < b.MinX {
		b.MinX = o.MinX
	}
	if o.MinY < b.MinY {
		b.MinY = o.MinY
	}
	if o.MaxX > b.MaxX {
		b.MaxX = o.MaxX
	}
	if o.MaxY > b.MaxY {
		b.MaxY = o.MaxY
	}
	return b
}

// Intersects reports whether b and o overlap (inclusive of touching edges).
func (b MBB) Intersects(o MBB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// ContainsPoint reports whether p lies inside b (inclusive).
func (b MBB) ContainsPoint(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// ContainsMBB reports whether o lies entirely inside b.
func (b MBB) ContainsMBB(o MBB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return o.MinX >= b.MinX && o.MaxX <= b.MaxX &&
		o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Area returns the area of b; the empty box has area 0. Degenerate boxes
// (single points, lines) also have area 0, which callers that divide by
// area must guard against (see the cluster density measures).
func (b MBB) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxX - b.MinX) * (b.MaxY - b.MinY)
}

// MinDistSq returns the squared distance from p to the nearest point of b
// (0 when p is inside b). It lets ε-searches prune an MBB whose nearest
// corner already lies farther than ε.
func (b MBB) MinDistSq(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < b.MinX:
		dx = b.MinX - p.X
	case p.X > b.MaxX:
		dx = p.X - b.MaxX
	}
	switch {
	case p.Y < b.MinY:
		dy = b.MinY - p.Y
	case p.Y > b.MaxY:
		dy = p.Y - b.MaxY
	}
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (b MBB) String() string {
	if b.IsEmpty() {
		return "MBB(empty)"
	}
	return fmt.Sprintf("MBB[(%g, %g)-(%g, %g)]", b.MinX, b.MinY, b.MaxX, b.MaxY)
}
