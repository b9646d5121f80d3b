package topo

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
)

// refRandom is the all-pairs Random that the grid-indexed one replaced,
// kept verbatim (its flow loop split out as refRandomFlows so crafted
// positions can be fed to it) as the reference for the equivalence
// quickchecks: for every node it measures the distance to every other
// node, O(n²).
func refRandom(n int, width, height, maxLink float64, nMis int, src *rng.Source) *Topology {
	if n < 2 || nMis < 0 || nMis > n {
		panic(fmt.Sprintf("topo: Random(n=%d, nMis=%d)", n, nMis))
	}
	t := &Topology{Positions: make([]phys.Point, n)}
	for i := range t.Positions {
		t.Positions[i] = phys.Point{
			X: src.Float64() * width,
			Y: src.Float64() * height,
		}
	}
	return refRandomFlows(t, maxLink, nMis, src)
}

func refRandomFlows(t *Topology, maxLink float64, nMis int, src *rng.Source) *Topology {
	n := len(t.Positions)
	receivers := make(map[frame.NodeID]bool)
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		// Candidate neighbors within range.
		var candidates []frame.NodeID
		nearest := frame.NodeID(-1)
		nearestDist := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := t.Positions[i].Distance(t.Positions[j])
			if d <= maxLink {
				candidates = append(candidates, frame.NodeID(j))
			}
			if d < nearestDist {
				nearestDist = d
				nearest = frame.NodeID(j)
			}
		}
		dst := nearest
		if len(candidates) > 0 {
			dst = candidates[src.Intn(len(candidates))]
		}
		t.Flows = append(t.Flows, Flow{Src: id, Dst: dst})
		t.Measured = append(t.Measured, id)
		receivers[dst] = true
	}
	for id := range receivers {
		t.Receivers = append(t.Receivers, id)
	}
	sortIDs(t.Receivers)
	// Pick nMis distinct misbehaving sources.
	perm := src.Perm(n)
	for _, p := range perm[:nMis] {
		t.Misbehaving = append(t.Misbehaving, frame.NodeID(p))
	}
	sortIDs(t.Misbehaving)
	return t
}

func sortIDs(ids []frame.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// assertSameTopology fails unless got and want are deeply equal,
// naming the first differing flow when they are not.
func assertSameTopology(t *testing.T, got, want *Topology) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want.Flows {
		if i < len(got.Flows) && got.Flows[i] != want.Flows[i] {
			t.Fatalf("flow %d: grid %+v, all-pairs %+v", i, got.Flows[i], want.Flows[i])
		}
	}
	t.Fatalf("topologies differ outside the flows:\ngrid      receivers %v misbehaving %v\nall-pairs receivers %v misbehaving %v",
		got.Receivers, got.Misbehaving, want.Receivers, want.Misbehaving)
}

// TestRandomMatchesAllPairs is the grid-vs-reference quickcheck: Random
// must build exactly the topology refRandom builds — same positions,
// flows, receivers and misbehavers, hence the same RNG draws — over
// node counts from 2 to 4000 and four densities: Figure 9's 1500 m ×
// 700 m, the ScaledRandomTopo strip (150 m of width per node), an area
// so sparse that most nodes have no neighbor within maxLink and take the
// nearest-node fallback, and one smaller than maxLink, where every node
// is every other node's candidate.
func TestRandomMatchesAllPairs(t *testing.T) {
	const maxLink = 200
	sizes := []int{2, 3, 40, 400, 4000}
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		sizes = sizes[:4]
		seeds = seeds[:2]
	}
	areas := []struct {
		name          string
		width, height func(n int) float64
	}{
		{"fig9", func(int) float64 { return 1500 }, func(int) float64 { return 700 }},
		{"strip", func(n int) float64 { return 150 * float64(n) }, func(int) float64 { return 700 }},
		// ≈2.6 km² per node: ~5% of nodes have a neighbor in range.
		{"sparse", func(n int) float64 { return 1600 * math.Sqrt(float64(n)) }, func(n int) float64 { return 1600 * math.Sqrt(float64(n)) }},
		{"dense", func(int) float64 { return 120 }, func(int) float64 { return 90 }},
	}
	for _, a := range areas {
		for _, n := range sizes {
			for _, seed := range seeds {
				w, h := a.width(n), a.height(n)
				nMis := int(seed) % (n + 1)
				t.Run(fmt.Sprintf("%s/n%d/seed%d", a.name, n, seed), func(t *testing.T) {
					got := Random(n, w, h, maxLink, nMis, rng.New(seed))
					want := refRandom(n, w, h, maxLink, nMis, rng.New(seed))
					assertSameTopology(t, got, want)
				})
			}
		}
	}
}

// TestRandomFlowsEdgeCases feeds crafted placements to both flow
// builders: points exactly on cell boundaries, pairs exactly maxLink
// apart, coincident points, and lattices whose nodes have no neighbor
// in range and several nearest nodes at exactly the same distance, so
// the lowest-ID tie-break decides. Every placement is also run with its
// node IDs shuffled, so ID order and spatial order disagree.
func TestRandomFlowsEdgeCases(t *testing.T) {
	const maxLink = 200
	// The grid's side for maxLink when it does not need to grow: the
	// lattice below is laid on exact multiples of it.
	side := phys.NewGrid([]phys.Point{{}, {X: 1, Y: 1}}, maxLink).Side()

	var boundary []phys.Point
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			p := phys.Point{X: float64(i) * side, Y: float64(j) * side}
			boundary = append(boundary, p, phys.Point{X: p.X + maxLink, Y: p.Y})
		}
	}
	if got := phys.NewGrid(boundary, maxLink).Side(); got != side {
		t.Fatalf("boundary lattice grid side %v, want %v", got, side)
	}

	// Integer coordinates make equal distances compare exactly equal.
	lattice := func(cols, rows int, spacing float64) []phys.Point {
		var pts []phys.Point
		for j := 0; j < rows; j++ {
			for i := 0; i < cols; i++ {
				pts = append(pts, phys.Point{X: float64(i) * spacing, Y: float64(j) * spacing})
			}
		}
		return pts
	}
	coincident := append(lattice(6, 4, 900), lattice(6, 4, 900)...)
	coincident = append(coincident, phys.Point{X: 900, Y: 900}, phys.Point{X: 450, Y: 0})

	cases := []struct {
		name string
		pts  []phys.Point
	}{
		{"cell-boundaries", boundary},
		{"exact-maxLink", lattice(10, 5, maxLink)},
		{"nearest-ties", lattice(12, 6, 300)},
		{"nearest-ties-far", lattice(7, 7, 1000)},
		{"diagonal-ties", append(lattice(5, 5, 500), phys.Point{X: 250, Y: 250}, phys.Point{X: 1250, Y: 1750})},
		{"coincident", coincident},
		{"all-coincident", make([]phys.Point, 9)},
		{"two-far-apart", []phys.Point{{X: 0, Y: 0}, {X: 1e7, Y: 3e6}}},
	}
	for _, c := range cases {
		for shuffle := uint64(0); shuffle < 4; shuffle++ {
			pos := append([]phys.Point(nil), c.pts...)
			if shuffle > 0 {
				perm := rng.New(shuffle).Perm(len(pos))
				for i, p := range perm {
					pos[i] = c.pts[p]
				}
			}
			t.Run(fmt.Sprintf("%s/shuffle%d", c.name, shuffle), func(t *testing.T) {
				want := refRandomFlows(&Topology{Positions: append([]phys.Point(nil), pos...)}, maxLink, 1, rng.New(9))
				got, _ := randomFlows(append([]phys.Point(nil), pos...), maxLink, 1, rng.New(9))
				assertSameTopology(t, got, want)
			})
		}
	}
}

// TestRandomWorkLinear bounds Random's work by counting, not timing: at
// the ScaledRandomTopo(4000, 500) parameters it must evaluate a small
// constant number of distances per node, where the all-pairs scan
// evaluated n(n−1). The expected count comes from the grid's
// occupancy: each node measures the other nodes of its 3×3 cell block,
// and nodes without a neighbor in range walk a few more rings.
func TestRandomWorkLinear(t *testing.T) {
	const (
		n       = 4000
		maxLink = 200
	)
	width, height := 150*float64(n), 700.0
	src := rng.New(1)
	pos := make([]phys.Point, n)
	for i := range pos {
		pos[i] = phys.Point{X: src.Float64() * width, Y: src.Float64() * height}
	}
	g := phys.NewGrid(pos, maxLink)
	blockWork := 0
	var block []int32
	for _, p := range pos {
		block = g.AppendBlock(block[:0], p)
		blockWork += len(block) - 1
	}
	tp, evaluated := randomFlows(pos, maxLink, 500, src)
	fallback := 0
	for _, f := range tp.Flows {
		if tp.Positions[f.Src].Distance(tp.Positions[f.Dst]) > maxLink {
			fallback++
		}
	}
	t.Logf("n=%d: %d distances (%.2f per node; block occupancy %.2f per node, %d nearest-node fallbacks); all-pairs: %d",
		n, evaluated, float64(evaluated)/n, float64(blockWork)/n, fallback, n*(n-1))
	if evaluated < blockWork {
		t.Fatalf("evaluated %d distances, fewer than the %d in the nodes' cell blocks", evaluated, blockWork)
	}
	// A fallback walks rings 0..k until the best distance beats the
	// next ring; at this occupancy that is a few rings of a 4-row grid.
	if limit := blockWork + 25*fallback; evaluated > limit {
		t.Fatalf("evaluated %d distances, above the occupancy bound %d", evaluated, limit)
	}
	if limit := 8 * n; evaluated > limit {
		t.Fatalf("evaluated %d distances (%.1f per node), want at most %d", evaluated, float64(evaluated)/n, limit)
	}
}
