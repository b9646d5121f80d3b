package phys

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dcfguard/internal/rng"
)

// gridCases returns point sets that stress the grid: uniform boxes far
// from the origin, a thin strip, points on exact multiples of the cell
// side, coincident points, and a sparse set that forces the side to
// grow.
func gridCases(radius float64) map[string][]Point {
	src := rng.New(7)
	uniform := func(n int, x0, y0, w, h float64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: x0 + src.Float64()*w, Y: y0 + src.Float64()*h}
		}
		return pts
	}
	side := NewGrid([]Point{{}, {X: 1, Y: 1}}, radius).Side()
	var lattice []Point
	for i := 0; i < 12; i++ {
		for j := 0; j < 5; j++ {
			lattice = append(lattice, Point{X: float64(i) * side, Y: float64(j) * side},
				Point{X: float64(i)*side + radius, Y: float64(j) * side})
		}
	}
	return map[string][]Point{
		"box":        uniform(300, 0, 0, 1500, 700),
		"far-offset": uniform(300, 1e6, -5e5, 3000, 2000),
		"strip":      uniform(400, 0, 0, 150*400, 700),
		"lattice":    lattice,
		"coincident": append(uniform(20, 0, 0, 400, 400), make([]Point, 10)...),
		"sparse":     uniform(50, -1e7, 0, 2e7, 2e7),
		"single":     {{X: 3, Y: 4}},
	}
}

// ringsUntilDone walks every ring around p's cell until AppendRing
// reports the grid exhausted, returning the rings' contents.
func ringsUntilDone(g *Grid, p Point) [][]int32 {
	cx, cy := g.Coords(p)
	var rings [][]int32
	for k := 0; ; k++ {
		ring, more := g.AppendRing(nil, cx, cy, k)
		if !more {
			return rings
		}
		rings = append(rings, ring)
	}
}

// TestGridBlockAndRings checks the grid's contracts against brute
// force: every cell lists its points ascending; the rings around any
// point partition the whole set; the 3×3 block holds every point within
// the radius (Distance ≤ radius, exactly as callers test it); and no
// point beyond ring k is as close as RingGap(k).
func TestGridBlockAndRings(t *testing.T) {
	const radius = 200
	cases := gridCases(radius)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		pts := cases[name]
		t.Run(name, func(t *testing.T) {
			g := NewGrid(pts, radius)
			if !(g.Side() >= radius) {
				t.Fatalf("side %v below the radius %v", g.Side(), radius)
			}
			for i, p := range pts {
				rings := ringsUntilDone(g, p)
				seen := make([]int, len(pts))
				for _, ring := range rings {
					for _, j := range ring {
						seen[j]++
					}
				}
				for j, c := range seen {
					if c != 1 {
						t.Fatalf("point %d: rings around it list point %d %d times", i, j, c)
					}
				}
				cx, cy := g.Coords(p)
				if own := g.cell(cx, cy); !slices.IsSorted(own) || !slices.Contains(own, int32(i)) {
					t.Fatalf("point %d: own cell %v not ascending or missing it", i, own)
				}
				block := g.AppendBlock(nil, p)
				for j, q := range pts {
					if p.Distance(q) <= radius && !slices.Contains(block, int32(j)) {
						t.Fatalf("point %d: point %d at %v m (radius %v) missing from its block", i, j, p.Distance(q), radius)
					}
				}
				for k := range rings {
					for _, ring := range rings[k+1:] {
						for _, j := range ring {
							if d := p.Distance(pts[j]); !(d > g.RingGap(k)) {
								t.Fatalf("point %d: point %d beyond ring %d at %v m, not above RingGap %v", i, j, k, d, g.RingGap(k))
							}
						}
					}
				}
			}
		})
	}
}

// TestGridKnifeEdges checks the side's margin: pairs at most radius
// apart whose right point sits within an ulp of a cell boundary, with
// the grid's origin off zero so the subtraction rounds too. With the
// side equal to the radius some of these pairs round two cells apart
// (m = 655 does, for this origin); with the margin every pair must
// still share a block.
func TestGridKnifeEdges(t *testing.T) {
	const radius = 200
	minX := -4934.17494193002
	side := NewGrid([]Point{{}, {X: 1, Y: 1}}, radius).Side()
	step := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	pts := []Point{{X: minX}}
	var pairs [][2]int32
	for m := 1; m <= 2000; m++ {
		for dq := -1; dq <= 1; dq++ {
			xq := step(minX+float64(m+1)*side, dq)
			for dp := -1; dp <= 1; dp++ {
				xp := step(xq-radius, dp)
				pairs = append(pairs, [2]int32{int32(len(pts)), int32(len(pts) + 1)})
				pts = append(pts, Point{X: xp}, Point{X: xq})
			}
		}
	}
	g := NewGrid(pts, radius)
	if g.Side() != side {
		t.Fatalf("grid side %v, want the unscaled %v", g.Side(), side)
	}
	checked := 0
	for _, pq := range pairs {
		p, q := pts[pq[0]], pts[pq[1]]
		if p.Distance(q) > radius {
			continue
		}
		checked++
		if !slices.Contains(g.AppendBlock(nil, p), pq[1]) || !slices.Contains(g.AppendBlock(nil, q), pq[0]) {
			t.Fatalf("points %v and %v, %v m apart, are not in each other's block", p, q, p.Distance(q))
		}
	}
	if checked < len(pairs)/3 {
		t.Fatalf("only %d of %d pairs were within the radius", checked, len(pairs))
	}
}

// TestGridCellBudget checks that a sparse set over a huge area gets a
// grown side rather than a cell count quadratic in its extent: the
// rings around a corner point must run out within a few times √n.
func TestGridCellBudget(t *testing.T) {
	pts := gridCases(200)["sparse"]
	g := NewGrid(pts, 200)
	if !(g.Side() > 200) {
		t.Fatalf("sparse set kept side %v; want it grown", g.Side())
	}
	if rings := len(ringsUntilDone(g, pts[0])); rings > 4*int(math.Sqrt(float64(4*len(pts)+16))) {
		t.Fatalf("%d rings around a point of a %d-point set", rings, len(pts))
	}
}

// TestGridDegenerate checks the single-cell fallbacks: a non-finite
// coordinate or a radius that is zero, negative, NaN or infinite puts
// every point in one cell, which is then the whole block and ring 0.
func TestGridDegenerate(t *testing.T) {
	finite := []Point{{X: 0, Y: 0}, {X: 5000, Y: 10}, {X: -300, Y: 7}}
	withNaN := append(append([]Point(nil), finite...), Point{X: math.NaN()})
	withInf := append(append([]Point(nil), finite...), Point{Y: math.Inf(-1)})
	cases := []struct {
		pts    []Point
		radius float64
	}{
		{finite, 0}, {finite, -1}, {finite, math.NaN()}, {finite, math.Inf(1)},
		{withNaN, 200}, {withInf, 200},
	}
	for i, c := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			g := NewGrid(c.pts, c.radius)
			for _, p := range c.pts {
				if block := g.AppendBlock(nil, p); len(block) != len(c.pts) || !slices.IsSorted(block) {
					t.Fatalf("block around %v = %v, want every point ascending", p, block)
				}
				if rings := ringsUntilDone(g, p); len(rings) != 1 {
					t.Fatalf("%d rings around %v, want 1", len(rings), p)
				}
			}
		})
	}
	if g := NewGrid(nil, 200); g.AppendBlock(nil, Point{}) != nil {
		t.Fatal("empty grid returned points")
	}
}
