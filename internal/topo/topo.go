// Package topo builds the paper's simulation topologies: the Figure-3
// star (N senders on a 150 m circle around receiver R, optionally with
// the two 500 Kbps interferer flows at ±500 m) and uniform random
// topologies (40 nodes in 1500 m × 700 m with neighbor flows).
package topo

import (
	"fmt"
	"math"
	"slices"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
)

// Flow is one traffic flow. RateBps 0 means backlogged (saturating).
type Flow struct {
	Src, Dst frame.NodeID
	RateBps  int64
}

// Topology is a set of positioned nodes plus the flows between them.
// Node IDs are dense, 0..len(Positions)-1, and index Positions.
type Topology struct {
	Positions []phys.Point
	Flows     []Flow
	// Measured lists the flow sources whose throughput and diagnosis
	// metrics the experiment reports (interferer flows are excluded).
	Measured []frame.NodeID
	// Misbehaving lists the ground-truth misbehaving senders.
	Misbehaving []frame.NodeID
	// Receivers lists the nodes that act as receivers of measured flows
	// (they run the Monitor under the CORRECT protocol).
	Receivers []frame.NodeID
}

// Validate checks internal consistency.
func (t *Topology) Validate() error {
	n := frame.NodeID(len(t.Positions))
	for _, f := range t.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("topo: flow %d→%d outside [0, %d)", f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("topo: self flow at node %d", f.Src)
		}
		if f.RateBps < 0 {
			return fmt.Errorf("topo: negative rate on flow %d→%d", f.Src, f.Dst)
		}
	}
	for _, id := range t.Misbehaving {
		if !contains(t.Measured, id) {
			return fmt.Errorf("topo: misbehaving node %d is not a measured sender", id)
		}
	}
	return nil
}

func contains(ids []frame.NodeID, id frame.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// StarReceiver is the receiver's node ID in Star topologies.
const StarReceiver frame.NodeID = 0

// Star builds the Figure-3 setup: receiver R (ID 0) at the origin,
// nSenders backlogged senders (IDs 1..nSenders) evenly spaced on a
// 150 m circle, all sending 512 B packets to R. With twoFlow, four
// extra nodes host the interferer flows: A→B on the left of R and C→D
// on the right, each endpoint ≈500 m from R, carrying 500 Kbps CBR.
// misbehaving lists the sender IDs (1-based) that will misbehave.
func Star(nSenders int, twoFlow bool, misbehaving []frame.NodeID) *Topology {
	if nSenders < 1 {
		panic(fmt.Sprintf("topo: Star with %d senders", nSenders))
	}
	t := &Topology{
		Positions: make([]phys.Point, 0, nSenders+5),
		Receivers: []frame.NodeID{StarReceiver},
	}
	t.Positions = append(t.Positions, phys.Point{}) // receiver at origin
	for i := 0; i < nSenders; i++ {
		id := frame.NodeID(i + 1)
		t.Positions = append(t.Positions, phys.OnCircle(phys.Point{}, 150, i, nSenders))
		t.Flows = append(t.Flows, Flow{Src: id, Dst: StarReceiver})
		t.Measured = append(t.Measured, id)
	}
	if twoFlow {
		base := frame.NodeID(nSenders + 1)
		a, b, c, d := base, base+1, base+2, base+3
		t.Positions = append(t.Positions,
			phys.Point{X: -500, Y: 100},  // A
			phys.Point{X: -500, Y: -100}, // B
			phys.Point{X: 500, Y: 100},   // C
			phys.Point{X: 500, Y: -100},  // D
		)
		t.Flows = append(t.Flows,
			Flow{Src: a, Dst: b, RateBps: 500_000},
			Flow{Src: c, Dst: d, RateBps: 500_000},
		)
	}
	for _, id := range misbehaving {
		if id < 1 || int(id) > nSenders {
			panic(fmt.Sprintf("topo: misbehaving id %d outside senders 1..%d", id, nSenders))
		}
		t.Misbehaving = append(t.Misbehaving, id)
	}
	return t
}

// Random builds the Figure-9 setup: n nodes placed uniformly at random
// in a width × height area; every node opens one backlogged flow to a
// random neighbor within maxLink metres (or its nearest node when it
// has no neighbor in range); nMis distinct flow sources, chosen at
// random, misbehave.
//
// Neighbors come from a phys.Grid with cells at least maxLink wide, so
// each node tests the few nodes of its 3×3 cell block instead of all n:
// the candidate list — every node within maxLink, in ascending ID — and
// hence every RNG draw are the same as an all-pairs scan's.
func Random(n int, width, height, maxLink float64, nMis int, src *rng.Source) *Topology {
	if n < 2 || nMis < 0 || nMis > n {
		panic(fmt.Sprintf("topo: Random(n=%d, nMis=%d)", n, nMis))
	}
	pos := make([]phys.Point, n)
	for i := range pos {
		pos[i] = phys.Point{
			X: src.Float64() * width,
			Y: src.Float64() * height,
		}
	}
	t, _ := randomFlows(pos, maxLink, nMis, src)
	return t
}

// randomFlows completes Random over the placed nodes: one flow per
// node, the receivers, and nMis misbehaving sources. It also returns
// how many node-to-node distances it evaluated, the measure of its
// work.
func randomFlows(pos []phys.Point, maxLink float64, nMis int, src *rng.Source) (*Topology, int) {
	n := len(pos)
	t := &Topology{
		Positions: pos,
		Flows:     make([]Flow, 0, n),
		Measured:  make([]frame.NodeID, 0, n),
	}
	g := phys.NewGrid(pos, maxLink)
	evaluated := 0
	var block []int32
	var candidates []frame.NodeID
	for i, p := range pos {
		block = g.AppendBlock(block[:0], p)
		evaluated += len(block) - 1 // the block holds i itself
		candidates = candidates[:0]
		for _, j := range block {
			if int(j) != i && p.Distance(pos[j]) <= maxLink {
				candidates = append(candidates, frame.NodeID(j))
			}
		}
		var dst frame.NodeID
		if len(candidates) > 0 {
			slices.Sort(candidates)
			dst = candidates[src.Intn(len(candidates))]
		} else {
			var m int
			dst, m = nearest(g, pos, i, block)
			evaluated += m
		}
		id := frame.NodeID(i)
		t.Flows = append(t.Flows, Flow{Src: id, Dst: dst})
		t.Measured = append(t.Measured, id)
	}
	t.Receivers = receiversOf(t.Flows, n)
	// Pick nMis distinct misbehaving sources.
	perm := src.Perm(n)
	for _, p := range perm[:nMis] {
		t.Misbehaving = append(t.Misbehaving, frame.NodeID(p))
	}
	slices.Sort(t.Misbehaving)
	return t, evaluated
}

// nearest returns the node closest to node i, the lowest ID on a tie
// (-1 if no distance compares below +Inf), and the number of distances
// it evaluated. It searches g ring by ring outwards from i's cell and
// stops once the best distance is below g.RingGap of the last ring
// walked, which no point in a farther ring can match. buf is scratch
// space.
func nearest(g *phys.Grid, pos []phys.Point, i int, buf []int32) (frame.NodeID, int) {
	p := pos[i]
	cx, cy := g.Coords(p)
	best, bestDist := frame.NodeID(-1), math.Inf(1)
	evaluated := 0
	for k := 0; ; k++ {
		var more bool
		buf, more = g.AppendRing(buf[:0], cx, cy, k)
		if !more {
			return best, evaluated
		}
		for _, j := range buf {
			if int(j) == i {
				continue
			}
			evaluated++
			d := p.Distance(pos[j])
			if d <= bestDist && (d < bestDist || frame.NodeID(j) < best) {
				best, bestDist = frame.NodeID(j), d
			}
		}
		if bestDist < g.RingGap(k) {
			return best, evaluated
		}
	}
}

// Line builds a chain of n nodes spaced `spacing` metres apart, with a
// backlogged flow from each node to its right neighbor. With spacing
// near the carrier-sense limit this is the classic hidden/exposed
// terminal testbed.
func Line(n int, spacing float64) *Topology {
	if n < 2 || spacing <= 0 {
		panic(fmt.Sprintf("topo: Line(%d, %v)", n, spacing))
	}
	t := &Topology{Positions: make([]phys.Point, n)}
	for i := 0; i < n; i++ {
		t.Positions[i] = phys.Point{X: float64(i) * spacing}
	}
	for i := 0; i < n-1; i++ {
		src, dst := frame.NodeID(i), frame.NodeID(i+1)
		t.Flows = append(t.Flows, Flow{Src: src, Dst: dst})
		t.Measured = append(t.Measured, src)
	}
	t.Receivers = receiversOf(t.Flows, n)
	return t
}

// Grid builds a cols × rows lattice with the given spacing; each node
// opens a backlogged flow to its right neighbor (last column sends
// left), giving a dense-reuse workload.
func Grid(cols, rows int, spacing float64) *Topology {
	if cols < 2 || rows < 1 || spacing <= 0 {
		panic(fmt.Sprintf("topo: Grid(%d, %d, %v)", cols, rows, spacing))
	}
	t := &Topology{Positions: make([]phys.Point, cols*rows)}
	id := func(c, r int) frame.NodeID { return frame.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Positions[id(c, r)] = phys.Point{X: float64(c) * spacing, Y: float64(r) * spacing}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			src := id(c, r)
			var dst frame.NodeID
			if c+1 < cols {
				dst = id(c+1, r)
			} else {
				dst = id(c-1, r)
			}
			t.Flows = append(t.Flows, Flow{Src: src, Dst: dst})
			t.Measured = append(t.Measured, src)
		}
	}
	t.Receivers = receiversOf(t.Flows, cols*rows)
	return t
}

// receiversOf lists the distinct destinations of flows over n nodes in
// ascending ID order (nil when there are none).
func receiversOf(flows []Flow, n int) []frame.NodeID {
	isDst := make([]bool, n)
	for _, f := range flows {
		isDst[f.Dst] = true
	}
	var ids []frame.NodeID
	for id, ok := range isDst {
		if ok {
			ids = append(ids, frame.NodeID(id))
		}
	}
	return ids
}
