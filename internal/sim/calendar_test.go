package sim

import (
	"fmt"
	"testing"

	"dcfguard/internal/rng"
)

// refCalibrateShift is the whole-queue calibration the front walk
// replaced, kept verbatim as the reference: scan every live entry,
// keep the calSample smallest times, and apply the gap rule.
func refCalibrateShift(c *calendarQueue) uint {
	var sample [calSample]Time
	k := 0
	for j, b := range c.buckets {
		for _, e := range b[c.heads[j]:] {
			w := e.when
			if k == calSample {
				if w >= sample[k-1] {
					continue
				}
				k--
			}
			i := k
			for i > 0 && sample[i-1] > w {
				sample[i] = sample[i-1]
				i--
			}
			sample[i] = w
			k++
		}
	}
	if k < 2 {
		return c.shift
	}
	var sum Time
	gaps := 0
	for i := 1; i < k; i++ {
		if d := sample[i] - sample[i-1]; d > 0 {
			sum += d
			gaps++
		}
	}
	if gaps == 0 {
		return c.shift
	}
	width := sum * 3 / Time(gaps)
	shift := uint(0)
	for Time(1)<<(shift+1) <= width {
		shift++
	}
	return shift
}

// calRegimes tallies which queue shapes the equivalence check reached,
// so the test fails loudly if its generator stops covering one.
type calRegimes struct {
	checks, sparse, walked, scanned, wrapped, lowered, burst, outlier int
}

// TestCalibrateShiftFrontWalkMatchesScan checks that the O(calSample)
// front walk picks exactly the width the whole-queue scan picks, on
// random queues covering every shape the walk must handle: multi-year
// wrap, a floor lowered by a push (compact's re-push, and scheduling
// at the current instant after Run popped stale entries ahead of it and
// pushed the horizon event back), 100+-entry same-instant
// bursts, fewer than calSample entries, and far-future outliers.
func TestCalibrateShiftFrontWalkMatchesScan(t *testing.T) {
	var reg calRegimes
	for seed := uint64(1); seed <= 150; seed++ {
		r := rng.New(seed)
		c := newCalendarQueue()
		var seq uint64
		now := Time(r.Intn(1 << 30))
		push := func(when Time) {
			seq++
			c.push(entry{when: when, seq: uint64(r.Intn(1<<20))<<24 | seq})
		}
		steps := 40 + r.Intn(200)
		// Per-case time scale: gaps from 1 ns to ~1 ms, so widths range
		// over many powers of two.
		scale := Time(1) << uint(r.Intn(20))
		for step := 0; step < steps; step++ {
			lowered := false
			switch op := r.Intn(20); {
			case op < 8: // near-future events
				for i := r.Intn(60); i >= 0; i-- {
					push(now + Time(r.Intn(64))*scale)
				}
			case op < 10: // same-instant burst
				at := now + Time(r.Intn(16))*scale
				for i := 100 + r.Intn(150); i > 0; i-- {
					push(at)
				}
				reg.burst++
			case op < 11: // far-future outliers (refill timers, run horizon)
				for i := 1 + r.Intn(3); i > 0; i-- {
					push(now + Time(1+r.Intn(1<<10))*scale<<20)
				}
				reg.outlier++
			case op < 16: // pops advance the floor
				for i := r.Intn(80); i > 0; i-- {
					e, ok := c.pop()
					if !ok {
						break
					}
					now = e.when
				}
			case op < 18: // stale pops run ahead, then scheduling at now lowers the floor
				if e, ok := c.pop(); ok {
					push(e.when) // Run's horizon push-back
					before := c.floor
					push(now + Time(r.Intn(int(e.when-now)+1)))
					lowered = c.floor < before
				}
			default: // compact: drain and re-push
				var live []entry
				for {
					e, ok := c.pop()
					if !ok {
						break
					}
					live = append(live, e)
				}
				for _, e := range live {
					c.push(e)
				}
			}
			got, want := c.calibrateShift(), refCalibrateShift(c)
			if got != want {
				t.Fatalf("seed %d step %d (n=%d, floor %d, shift %d): front walk shift %d, scan shift %d",
					seed, step, c.n, c.floor, c.shift, got, want)
			}
			reg.observe(c, lowered)
		}
	}
	t.Logf("regimes: %+v", reg)
	for name, n := range map[string]int{
		"fewer than calSample entries":  reg.sparse,
		"front walk filled the sample":  reg.walked,
		"sparse year fell back to scan": reg.scanned,
		"multi-year wrap":               reg.wrapped,
		"push lowered the floor":        reg.lowered,
		"same-instant burst":            reg.burst,
		"far-future outlier":            reg.outlier,
	} {
		if n == 0 {
			t.Errorf("generator never reached regime %q", name)
		}
	}
}

// observe classifies the queue shape a check ran on.
func (r *calRegimes) observe(c *calendarQueue, lowered bool) {
	r.checks++
	if c.n < calSample {
		r.sparse++
		return
	}
	var sample [calSample]Time
	if c.sampleFront(&sample) == calSample {
		r.walked++
	} else {
		r.scanned++
	}
	if lowered {
		r.lowered++
	}
	width := c.width()
	yearEnd := (c.floor &^ (width - 1)) + Time(len(c.buckets))*width
	for j, b := range c.buckets {
		if len(b) > c.heads[j] && b[len(b)-1].when >= yearEnd {
			r.wrapped++
			return
		}
	}
}

// holdModel replays the shape of a 4000-node channel-v3 run's pending
// set on a bare calendar queue, with keyed ordering: every event fired
// schedules one replacement. Most replacements land on the 20 µs slot
// grid — backoff and DIFS timers of many nodes expire at the same slot
// boundary — and a grid instant collects both owner-key timers (random
// owners, so keys arrive out of order) and fan-key arrivals, which order
// before every timer at that instant; the rest are frame ends at
// arbitrary nanoseconds. Each grid insert therefore shifts part of a
// same-instant cluster, the cost no bucket width can remove.
type holdModel struct {
	c        *calendarQueue
	r        *rng.Source
	ownerCtr []uint64
	frames   uint64
}

const (
	holdSlot   = 20 * Microsecond
	holdOwners = 4000
)

func newHoldModel(pending int, seed uint64) *holdModel {
	m := &holdModel{c: newCalendarQueue(), r: rng.New(seed), ownerCtr: make([]uint64, holdOwners)}
	for i := 0; i < pending; i++ {
		m.schedule(0)
	}
	return m
}

// schedule pushes one event scheduled at instant now: a lead of about
// 25 slots on average, the mean lead of a 4k-node run's pending set.
func (m *holdModel) schedule(now Time) {
	r := m.r
	var when Time
	var key uint64
	switch op := r.Intn(10); {
	case op < 7: // slot-aligned: timer or arrival at a grid instant
		when = (now/holdSlot + 1 + Time(r.Intn(50))) * holdSlot
		if op < 4 {
			owner := r.Intn(holdOwners)
			key = keyOwnerBit | uint64(owner)<<keyOwnerShift | m.ownerCtr[owner]
			m.ownerCtr[owner]++
		} else {
			m.frames++
			key = FanKey(uint64(r.Intn(holdOwners)), m.frames&MaxFanFrame, uint64(r.Intn(holdOwners)))
		}
	default: // frame end or propagation-delayed arrival, off the grid
		when = now + Time(1+r.Intn(int(50*holdSlot)))
		owner := r.Intn(holdOwners)
		key = keyOwnerBit | uint64(owner)<<keyOwnerShift | m.ownerCtr[owner]
		m.ownerCtr[owner]++
	}
	m.c.push(entry{when: when, seq: key})
}

// hold fires the front event and schedules its replacement.
func (m *holdModel) hold() {
	e, _ := m.c.pop()
	m.schedule(e.when)
}

// TestCalendarHoldWorkBound bounds the queue's bookkeeping work on the
// 4k-like hold workload (~7k pending events) by counting, not timing:
// each width calibration may read at most a small multiple of
// calSample entries — a whole-queue scan reads all ~7k — and same-
// instant keyed ties must not re-trigger recalibrations that change
// nothing. It also pins the ties' memmove as real work the counters
// see, so the tie-aware meter is ignoring a cost, not missing one.
func TestCalendarHoldWorkBound(t *testing.T) {
	const pending, holds = 7000, 200_000
	m := newHoldModel(pending, 1)
	for i := 0; i < holds; i++ {
		m.hold()
	}
	h := m.c.health()
	pushes := uint64(pending + holds)
	calibrations := h.Resizes + h.Recalibrations + h.NoopRecalibrations
	t.Logf("%d pushes, %d pending: %+v", pushes, m.c.len(), h)
	if calibrations == 0 {
		t.Fatal("premise: no calibration ran")
	}
	if perCal := float64(h.CalibrationVisits) / float64(calibrations); perCal > 2*calSample {
		t.Errorf("calibration read %.0f entries per call, want <= %d (front walk, not a whole-queue scan)",
			perCal, 2*calSample)
	}
	if h.NoopRecalibrations*4096 > pushes {
		t.Errorf("%d no-op recalibrations over %d pushes, want <= 1 per 4096 (tie-aware drift meter)",
			h.NoopRecalibrations, pushes)
	}
	if h.InsertMoves < pushes {
		t.Errorf("premise: %d insert moves over %d pushes; the model lost its same-instant clusters",
			h.InsertMoves, pushes)
	}
}

// BenchmarkCalendarHold times one pop + push cycle of the keyed,
// slot-aligned hold model at pending populations around a 1k-, 4k- and
// 10k-node run's (1k, 7k, 17k events). Not gated: it is the queue
// layer's own number, for changes to show which layer they moved.
func BenchmarkCalendarHold(b *testing.B) {
	for _, pending := range []int{1000, 7000, 17000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			m := newHoldModel(pending, 1)
			for i := 0; i < 4*pending; i++ {
				m.hold()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.hold()
			}
		})
	}
}

// TestLaterThan pins the tie-aware drift meter's count on the three
// shapes an insert's shifted tail can take.
func TestLaterThan(t *testing.T) {
	run := func(whens ...Time) []entry {
		out := make([]entry, len(whens))
		for i, w := range whens {
			out[i] = entry{when: w, seq: uint64(i)}
		}
		return out
	}
	for _, tc := range []struct {
		tail []entry
		want int
	}{
		{run(5, 5, 5), 0},       // keyed same-instant cluster
		{run(6, 7, 9), 3},       // FIFO order: every shifted entry is later
		{run(5, 5, 6, 6, 8), 3}, // ties, then later entries
		{run(5, 9), 1},          // one tie, one later
		{run(5), 0},             // a single tie
		{run(5, 5, 5, 5, 6), 1}, // the later entry is the last
		{run(5, 6, 6, 6, 6), 4}, // the tie is the first
	} {
		if got := laterThan(tc.tail, 5); got != tc.want {
			t.Errorf("laterThan(%v, 5) = %d, want %d", tc.tail, got, tc.want)
		}
	}
}
