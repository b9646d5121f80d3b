package phys

import "math"

// Grid is a flat uniform grid over a fixed point set, in CSR form: the
// points of cell (cx, cy) are index[start[c]:start[c+1]] with
// c = cy·cols + cx, each cell listing its points in ascending index.
// Cells are laid out row-major from the lower-left corner of the set's
// bounding box, so the layout — and every walk over it — is a pure
// function of the points and the requested cell side.
//
// Coverage. The side is the requested radius r inflated by the relative
// margin gridMargin, so two points whose computed Distance is ≤ r lie
// in cells whose column (and row) indices differ by at most one: the
// 3×3 block around a point's cell holds every point within r of it.
// The argument, with unit roundoff u = 2⁻⁵³: a computed Distance ≤ r
// bounds the exact |Δx| by r·(1+3u) (one subtraction, square, add and
// square root, each correctly rounded). A point's cell coordinate is
// fl(fl(x−minX)/side), which has relative error ≤ 2u; coordinates are
// below 2²⁴ (NewGrid keeps cols, rows ≤ maxGridDim), so the computed
// difference of two coordinates exceeds the exact one by < 2⁻²⁷. The
// computed difference is then ≤ (1+3u)/(1+2⁻²⁰) + 2⁻²⁷ < 1, and two
// reals less than 1 apart have floors at most 1 apart. NewGrid only
// ever doubles the side (exact in binary floating point), so the margin
// survives. Rounding is monotone, so every point's coordinate also lands
// in [0, cols) × [0, rows) without clamping.
//
// The same bound read the other way gives the ring-stop rule used by
// nearest-point searches: see RingGap.
type Grid struct {
	side       float64
	minX, minY float64
	cols, rows int
	start      []int32
	index      []int32
}

const (
	// gridMargin inflates the requested radius into the cell side (see
	// the coverage argument on Grid).
	gridMargin = 1.0 / (1 << 20)
	// maxGridDim caps cols and rows, which bounds the rounding error of
	// a cell coordinate (see Grid).
	maxGridDim = 1 << 24
	// gridCellsPerPoint caps the cell count at this multiple of the
	// point count (plus a small constant), so a sparse set over a huge
	// area costs O(n) memory: the side doubles until the grid fits. A
	// larger side only adds candidates to a block; it never drops one.
	gridCellsPerPoint = 4
)

// NewGrid indexes pts on a grid whose cells are at least radius wide
// (inflated by a relative margin, then doubled while the grid would
// have more than about gridCellsPerPoint cells per point). A radius
// that is not positive and finite, or a point set with a non-finite
// coordinate, yields a single cell holding every point — always a
// correct, if slow, answer for block and ring walks.
func NewGrid(pts []Point, radius float64) *Grid {
	g := &Grid{cols: 1, rows: 1, side: math.Inf(1)}
	finite := radius > 0 && !math.IsInf(radius, 1)
	var maxX, maxY float64
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			finite = false
			break
		}
		if i == 0 {
			g.minX, g.minY, maxX, maxY = p.X, p.Y, p.X, p.Y
		}
		if p.X < g.minX {
			g.minX = p.X
		}
		if p.Y < g.minY {
			g.minY = p.Y
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	spanX, spanY := maxX-g.minX, maxY-g.minY
	if finite && !math.IsInf(spanX, 0) && !math.IsInf(spanY, 0) {
		g.side = radius * (1 + gridMargin)
		budget := float64(gridCellsPerPoint*len(pts) + 16)
		for {
			cols, rows := math.Floor(spanX/g.side)+1, math.Floor(spanY/g.side)+1
			if cols <= maxGridDim && rows <= maxGridDim && cols*rows <= budget {
				g.cols, g.rows = int(cols), int(rows)
				break
			}
			g.side *= 2
		}
	}

	// Counting sort by cell; placing points in index order leaves every
	// cell ascending.
	cellOf := make([]int32, len(pts))
	g.start = make([]int32, g.cols*g.rows+1)
	for i, p := range pts {
		cx, cy := g.Coords(p)
		cellOf[i] = int32(cy*g.cols + cx)
		g.start[cellOf[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	fill := make([]int32, g.cols*g.rows)
	copy(fill, g.start)
	g.index = make([]int32, len(pts))
	for i, c := range cellOf {
		g.index[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// Side returns the cell side in metres (+Inf for a single-cell grid).
func (g *Grid) Side() float64 { return g.side }

// Coords returns the cell coordinates of p. For a point of the indexed
// set they lie in [0, cols) × [0, rows).
func (g *Grid) Coords(p Point) (cx, cy int) {
	if g.cols == 1 && g.rows == 1 {
		return 0, 0
	}
	return int(math.Floor((p.X - g.minX) / g.side)), int(math.Floor((p.Y - g.minY) / g.side))
}

// cell returns the indices of the points in cell (cx, cy), ascending;
// nil outside the grid.
func (g *Grid) cell(cx, cy int) []int32 {
	if cx < 0 || cy < 0 || cx >= g.cols || cy >= g.rows {
		return nil
	}
	c := cy*g.cols + cx
	return g.index[g.start[c]:g.start[c+1]]
}

// AppendRing appends the indices of the points in ring k around cell
// (cx, cy) — the cells at Chebyshev distance exactly k from it; ring 0
// is the cell itself — walking rows bottom to top and each row's cells
// left to right, skipping cells outside the grid. It reports false when
// ring k lies wholly outside the grid, as then does every larger ring.
func (g *Grid) AppendRing(dst []int32, cx, cy, k int) ([]int32, bool) {
	if k > 0 && cx-k < 0 && cy-k < 0 && cx+k >= g.cols && cy+k >= g.rows {
		return dst, false
	}
	x0, x1 := max(cx-k, 0), min(cx+k, g.cols-1)
	for y := max(cy-k, 0); y <= min(cy+k, g.rows-1); y++ {
		if y == cy-k || y == cy+k {
			for x := x0; x <= x1; x++ {
				dst = append(dst, g.cell(x, y)...)
			}
			continue
		}
		// An inner row meets the ring at its two ends only.
		dst = append(dst, g.cell(cx-k, y)...)
		dst = append(dst, g.cell(cx+k, y)...)
	}
	return dst, true
}

// AppendBlock appends the indices of the points in the 3×3 cell block
// around p's cell (rings 0 and 1), which holds every indexed point
// within the requested radius of p. The order is the ring walk's, not
// ascending.
func (g *Grid) AppendBlock(dst []int32, p Point) []int32 {
	cx, cy := g.Coords(p)
	dst, _ = g.AppendRing(dst, cx, cy, 0)
	dst, _ = g.AppendRing(dst, cx, cy, 1)
	return dst
}

// RingGap returns a lower bound on the computed Distance from any point
// in a cell to any point in ring k+1 or beyond around that cell: once
// the best distance found within rings 0..k is below it, no farther
// ring can hold a point as close, or tied. The argument mirrors the
// coverage one on Grid: a point in ring ≥ k+1 has a computed cell
// coordinate more than k above (or below) the query's, hence an exact
// one more than k−2⁻²⁷, hence an exact |Δx| > (k−2⁻²⁷)·side and a
// computed Distance > k·side·(1−2⁻²⁶); the bound returned keeps a
// further 2⁻²⁰ relative margin.
func (g *Grid) RingGap(k int) float64 {
	return float64(k) * g.side * (1 - gridMargin)
}
