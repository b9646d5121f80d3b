// Channel model v2: per-pair counter RNG plus a spatial neighbor index.
//
// v1 couples every transmission to every attached node through the
// shared sequential shadowing stream: even a pair the NormBound proof
// rules out must consume its draw to keep the sequence aligned, making
// Transmit Θ(n) per frame. v2 removes the coupling at the source — each
// shadowing sample is a pure function of (base key, transmitter ID,
// observer ID, transmitter frame index[, coherence segment]) via
// rng.Mix64/rng.CounterNorm — so a skipped pair costs zero draws and no
// sample depends on iteration order. On top of that, a uniform grid
// (phys.Grid) over attached positions bounds each transmitter's
// interaction radius (the largest distance where mean +
// rng.NormBound·σ can still clear the lowest carrier-sense/receive
// threshold in the network) and precomputes per-transmitter neighbor
// lists, so Transmit iterates only O(reachable) observers. Lists are
// rebuilt lazily at the first Transmit after the last Attach, mirroring
// the v1 cache discipline.
package medium

import (
	"math"
	"slices"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// neighbor is one feasible (transmitter, observer) link in the v2
// index: the observer, the deterministic mean RX power of the pair, the
// pair's counter-RNG key, and the pair's thresholds mapped to uniform
// space — uCs/uRx are Φ((thresh−mean)/σ), so the per-frame sensing and
// decoding decisions are plain comparisons against the raw uniform and
// the normal CDF is inverted only for decodable arrivals.
type neighbor struct {
	obs      *node
	meanDBm  float64
	pairKey  uint64
	uCs, uRx float64
}

// pairKeyFor derives the counter-RNG key of the ordered (tx, obs) link.
func (m *Medium) pairKeyFor(tx, obs frame.NodeID) uint64 {
	return rng.Mix64(rng.Mix64(m.v2Base, uint64(tx)), uint64(obs))
}

// buildIndex rebuilds the v2 neighbor lists. A pair is feasible when
// mean + rng.NormBound·σ — an upper bound no counter draw can beat —
// reaches the observer's carrier-sense or receive threshold; the same
// proof as v1's outOfRange, but applied to prune enumeration rather
// than just allocation. Radii use the network-wide lowest threshold, a
// safe over-approximation under heterogeneous radios; the per-pair
// filter is exact.
//
// Candidates come from a phys.Grid whose cells are at least the largest
// interaction radius wide, so a transmitter's 3×3 cell block holds
// every observer it can reach. Each block is sorted by node index
// (= ascending ID) before filtering, so lists come out in ID order with
// no per-list sort. All lists share one exact-size backing array: a
// first pass records each feasible (observer, mean) pair, a second fills
// the array and carves it into capacity-capped per-node sub-slices.
func (m *Medium) buildIndex() {
	slack := rng.NormBound * m.cfg.Model.SigmaDB
	minThresh := math.Inf(1)
	for _, nd := range m.nodes {
		if t := nd.radio.CsThreshDBm; t < minThresh {
			minThresh = t
		}
		if t := nd.radio.RxThreshDBm; t < minThresh {
			minThresh = t
		}
	}
	// MaxRangeFor depends only on the TX power: one bisection per
	// distinct power, not per node.
	reach := make(map[float64]float64, 1)
	maxReach := 0.0
	pts := make([]phys.Point, len(m.nodes))
	for i, nd := range m.nodes {
		nd.idx = i
		pts[i] = nd.pos
		r, ok := reach[nd.radio.TxPowerDBm]
		if !ok {
			r = m.cfg.Model.MaxRangeFor(nd.radio.TxPowerDBm, minThresh-slack)
			reach[nd.radio.TxPowerDBm] = r
		}
		maxReach = max(maxReach, r)
	}
	if maxReach <= 0 {
		maxReach = 1 // no pair is feasible; any positive cell size works
	}
	g := phys.NewGrid(pts, maxReach)

	// First pass: the feasible (observer, mean) links of every
	// transmitter, in order, into one scratch array sized by the blocks'
	// total population so it never grows.
	type link struct {
		obs  int32
		mean float64
	}
	visits := len(m.nodes) * len(m.nodes)
	var cands []int32
	if !m.bruteForce {
		visits = 0
		for _, tx := range m.nodes {
			cands = g.AppendBlock(cands[:0], tx.pos)
			visits += len(cands)
		}
	}
	links := make([]link, 0, visits)
	ends := make([]int, len(m.nodes))
	for i, tx := range m.nodes {
		cands = cands[:0]
		if m.bruteForce {
			// Test reference: every ordered pair, no pruning.
			for j := range m.nodes {
				cands = append(cands, int32(j))
			}
		} else {
			// Ascending observer ID, so same-instant events enqueue in
			// the same order as v1 (results are order-independent,
			// goldens are not).
			cands = g.AppendBlock(cands, tx.pos)
			slices.Sort(cands)
		}
		for _, j := range cands {
			obs := m.nodes[j]
			if obs == tx {
				continue
			}
			mean := m.cfg.Model.MeanRxPowerDBm(tx.radio.TxPowerDBm, tx.pos.Distance(obs.pos))
			if !m.bruteForce {
				bound := mean + slack
				if bound < obs.radio.CsThreshDBm && bound < obs.radio.RxThreshDBm {
					continue
				}
			}
			links = append(links, link{obs: j, mean: mean})
		}
		ends[i] = len(links)
	}

	// Second pass: one exact-size backing array for every list.
	all := make([]neighbor, len(links))
	sigma := m.cfg.Model.SigmaDB
	begin := 0
	for i, tx := range m.nodes {
		nbs := all[begin:ends[i]:ends[i]]
		for k, l := range links[begin:ends[i]] {
			obs := m.nodes[l.obs]
			nbs[k] = neighbor{
				obs:     obs,
				meanDBm: l.mean,
				pairKey: m.pairKeyFor(tx.id, obs.id),
				uCs:     uniformThresh(obs.radio.CsThreshDBm, l.mean, sigma),
				uRx:     uniformThresh(obs.radio.RxThreshDBm, l.mean, sigma),
			}
		}
		tx.neighbors = nbs
		begin = ends[i]
	}
	m.cacheDirty = false
}

// uniformThresh maps a dBm threshold to the uniform-space boundary
// Φ((thresh−mean)/σ): a draw with uniform u clears the threshold
// exactly when u ≥ Φ((thresh−mean)/σ), because mean + σ·Φ⁻¹(u) ≥ thresh
// ⇔ u ≥ Φ((thresh−mean)/σ) (Φ monotone). With σ = 0 the decision is
// deterministic: 0 when the mean clears the threshold, 2 (unreachable —
// uniforms are < 1) when it does not.
func uniformThresh(threshDBm, meanDBm, sigma float64) float64 {
	if sigma <= 0 {
		if meanDBm >= threshDBm {
			return 0
		}
		return 2
	}
	return rng.NormCDF((threshDBm - meanDBm) / sigma)
}

// fanOutV2 computes per-observer outcomes for one transmission under
// channel model v2: only the precomputed feasible neighbors are
// visited, and each draw comes from the pair's counter stream indexed
// by the transmitter's frame counter (segment draws continue the same
// frame key from counter 1). The fast path decides sensing and decoding
// by comparing the raw uniform against the neighbor's precomputed
// boundaries and only inverts the CDF for decodable arrivals (whose
// power feeds capture resolution); sensed-only observers never touch
// the inverse CDF.
func (m *Medium) fanOutV2(tx *node, f frame.Frame, now, end sim.Time) {
	// One Mix64 base per transmission: the frame index's contribution to
	// every per-observer key is the same (frameIdx+1)·γ term, so it is
	// computed once and each observer pays one add + finalize.
	// Mix64Pre(pairKey, delta) ≡ Mix64(pairKey, frameIdx) bit-for-bit
	// (rng.TestMix64BatchedIdentity), so draws — and goldens — are
	// unchanged.
	delta := rng.Mix64Delta(tx.txCount)
	tx.txCount++
	sigma := m.cfg.Model.SigmaDB
	if m.cfg.CoherenceInterval > 0 {
		for i := range tx.neighbors {
			nb := &tx.neighbors[i]
			frameKey := rng.Mix64Pre(nb.pairKey, delta)
			power := nb.meanDBm + sigma*rng.CounterNorm(frameKey, 0)
			m.arriveAtV2Coherent(nb, f, power, frameKey, now, end)
		}
		return
	}
	for i := range tx.neighbors {
		nb := &tx.neighbors[i]
		u := rng.CounterUniform(rng.Mix64Pre(nb.pairKey, delta), 0)
		if u < nb.uCs {
			continue // neither sensed nor decodable
		}
		// Decodable implies sensed (RxThresh ≥ CsThresh ⇒ uRx ≥ uCs),
		// so the decodable branch folds the busy-end into the completion
		// event — one heap event per observer.
		if u >= nb.uRx {
			power := nb.meanDBm + sigma*rng.InvNormCDF(u)
			m.admitArrival(nb.obs, f, power, now, end).withBusyEnd = true
			m.busyStart(nb.obs, now)
		} else {
			m.busyStart(nb.obs, now)
			m.sched.AtArg(end, busyEndEvent, nb.obs)
		}
	}
}

// arriveAtV2Coherent mirrors the v1 coherence path in arriveAt — the
// first interval reuses the frame-level draw, later intervals re-draw
// the sensing decision, and adjacent sensed intervals merge into
// maximal busy runs — with segment draws taken from the frame's counter
// stream instead of the shared sequential source.
func (m *Medium) arriveAtV2Coherent(nb *neighbor, f frame.Frame, power float64, frameKey uint64, start, end sim.Time) {
	obs := nb.obs
	if power >= obs.radio.RxThreshDBm {
		m.admitArrival(obs, f, power, start, end)
	}

	segPower := power
	ctr := uint64(1)
	var runStart sim.Time
	inRun := false
	for segStart := start; segStart < end; segStart += m.cfg.CoherenceInterval {
		sensed := segPower >= obs.radio.CsThreshDBm
		if sensed && !inRun {
			runStart, inRun = segStart, true
		} else if !sensed && inRun {
			m.scheduleBusyRun(obs, runStart, segStart, start)
			inRun = false
		}
		segPower = nb.meanDBm + m.cfg.Model.SigmaDB*rng.CounterNorm(frameKey, ctr)
		ctr++
	}
	if inRun {
		m.scheduleBusyRun(obs, runStart, end, start)
	}
}
