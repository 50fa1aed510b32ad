package gridindex

// Test-only accounts of a Flat.

// Stats describes the grid shape.
type Stats struct {
	Cols, Rows int
	Cells      int
	NonEmpty   int
	MaxPerCell int
}

// Stats reports grid occupancy.
func (f *Flat) Stats() Stats {
	s := Stats{Cols: int(f.cols), Rows: int(f.rows), Cells: int(f.cols) * int(f.rows)}
	for c := 0; c < s.Cells; c++ {
		n := int(f.cellStart[c+1] - f.cellStart[c])
		if n > 0 {
			s.NonEmpty++
		}
		if n > s.MaxPerCell {
			s.MaxPerCell = n
		}
	}
	return s
}
