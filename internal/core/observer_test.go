package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

const (
	tSlot = 20 * sim.Microsecond
	tDIFS = 50 * sim.Microsecond
)

func newObs() *IdleObserver {
	return NewIdleObserver(tSlot, tDIFS, 2*sim.Second)
}

func TestIdleSlotsFullyIdle(t *testing.T) {
	o := newObs()
	// Window of exactly DIFS + 5 slots, channel idle throughout.
	from := sim.Time(100 * sim.Microsecond)
	to := from + tDIFS + 5*tSlot
	if got := o.IdleSlots(from, to); got != 5 {
		t.Fatalf("IdleSlots = %d, want 5", got)
	}
}

func TestIdleSlotsShorterThanDIFS(t *testing.T) {
	o := newObs()
	from := sim.Time(0)
	if got := o.IdleSlots(from, from+tDIFS-sim.Microsecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for sub-DIFS window", got)
	}
}

func TestIdleSlotsPartialSlotDiscarded(t *testing.T) {
	o := newObs()
	from := sim.Time(0)
	to := from + tDIFS + 3*tSlot + 19*sim.Microsecond
	if got := o.IdleSlots(from, to); got != 3 {
		t.Fatalf("IdleSlots = %d, want 3 (partial slot must not count)", got)
	}
}

func TestIdleSlotsBusyGapSplitsWindow(t *testing.T) {
	o := newObs()
	// Idle DIFS+4 slots, busy 1 ms, idle DIFS+6 slots.
	start := sim.Time(0)
	busyAt := start + tDIFS + 4*tSlot
	idleAt := busyAt + sim.Millisecond
	end := idleAt + tDIFS + 6*tSlot
	o.OnBusy(busyAt)
	o.OnIdle(idleAt)
	if got := o.IdleSlots(start, end); got != 10 {
		t.Fatalf("IdleSlots = %d, want 10 (each gap pays its own DIFS)", got)
	}
}

func TestIdleSlotsWindowStartsDuringBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(0)
	o.OnIdle(sim.Millisecond)
	from := 500 * sim.Microsecond // mid-busy
	to := sim.Millisecond + tDIFS + 7*tSlot
	if got := o.IdleSlots(from, to); got != 7 {
		t.Fatalf("IdleSlots = %d, want 7", got)
	}
}

func TestIdleSlotsWindowEndsDuringBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(tDIFS + 4*tSlot)
	o.OnIdle(10 * sim.Millisecond)
	if got := o.IdleSlots(0, tDIFS+4*tSlot+sim.Millisecond); got != 4 {
		t.Fatalf("IdleSlots = %d, want 4", got)
	}
}

func TestIdleSlotsEntirelyBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(0)
	if got := o.IdleSlots(sim.Microsecond, sim.Millisecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for busy window", got)
	}
}

func TestIdleSlotsZeroWindow(t *testing.T) {
	o := newObs()
	if got := o.IdleSlots(sim.Millisecond, sim.Millisecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for empty window", got)
	}
}

func TestIdleSlotsInvertedWindowPanics(t *testing.T) {
	o := newObs()
	defer func() {
		if recover() == nil {
			t.Fatal("inverted window did not panic")
		}
	}()
	o.IdleSlots(2*sim.Millisecond, sim.Millisecond)
}

func TestObserverDeduplicatesTransitions(t *testing.T) {
	o := newObs()
	o.OnBusy(sim.Millisecond)
	o.OnBusy(2 * sim.Millisecond) // duplicate busy must be ignored
	o.OnIdle(3 * sim.Millisecond)
	o.OnIdle(4 * sim.Millisecond) // duplicate idle must be ignored
	if o.Busy() {
		t.Fatal("state should be idle after OnIdle")
	}
	// Idle [0,1ms): DIFS + floor(950/20) = 47; busy [1,3); idle [3, 3+DIFS+2slots).
	end := 3*sim.Millisecond + tDIFS + 2*tSlot
	want := 47 + 2
	if got := o.IdleSlots(0, end); got != want {
		t.Fatalf("IdleSlots = %d, want %d", got, want)
	}
}

func TestObserverPruneKeepsWindowAccuracy(t *testing.T) {
	o := NewIdleObserver(tSlot, tDIFS, 10*sim.Millisecond)
	// Fill far past the horizon with busy/idle pairs.
	for i := 0; i < 1000; i++ {
		base := sim.Time(i) * sim.Millisecond
		o.OnBusy(base + 500*sim.Microsecond)
		o.OnIdle(base + 600*sim.Microsecond)
	}
	// A recent window is still computed exactly: within [999.6 ms,
	// 999.6 ms + DIFS + 5 slots) the channel is idle.
	from := 999*sim.Millisecond + 600*sim.Microsecond
	to := from + tDIFS + 5*tSlot
	if got := o.IdleSlots(from, to); got != 5 {
		t.Fatalf("IdleSlots after pruning = %d, want 5", got)
	}
}

func TestObserverValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot did not panic")
		}
	}()
	NewIdleObserver(0, tDIFS, sim.Second)
}

func TestQuickIdleSlotsNonNegativeAndBounded(t *testing.T) {
	f := func(busyOffsets []uint16, winStart, winLen uint16) bool {
		o := newObs()
		at := sim.Time(0)
		busy := false
		for _, d := range busyOffsets {
			at += sim.Time(d%1000+1) * sim.Microsecond
			if busy {
				o.OnIdle(at)
			} else {
				o.OnBusy(at)
			}
			busy = !busy
		}
		from := sim.Time(winStart) * sim.Microsecond
		to := from + sim.Time(winLen)*sim.Microsecond
		got := o.IdleSlots(from, to)
		maxSlots := int((to - from) / tSlot)
		return got >= 0 && got <= maxSlots
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIdleSlotsMonotoneInWindow(t *testing.T) {
	// Extending the window never decreases the count.
	f := func(busyOffsets []uint16, winLen1, winLen2 uint16) bool {
		o := newObs()
		at := sim.Time(0)
		busy := false
		for _, d := range busyOffsets {
			at += sim.Time(d%500+1) * sim.Microsecond
			if busy {
				o.OnIdle(at)
			} else {
				o.OnBusy(at)
			}
			busy = !busy
		}
		a, b := sim.Time(winLen1)*sim.Microsecond, sim.Time(winLen2)*sim.Microsecond
		if a > b {
			a, b = b, a
		}
		return o.IdleSlots(0, a) <= o.IdleSlots(0, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refIdleObserver is the observer as it was before the ring buffer: a
// slice pruned by copying the retained history down, and a window start
// found by a linear scan from the oldest entry. It is kept verbatim as
// the reference the ring must agree with.
type refIdleObserver struct {
	slot    sim.Time
	difs    sim.Time
	horizon sim.Time

	busy        bool
	transitions []transition // ordered by time
}

func (o *refIdleObserver) OnBusy(now sim.Time) { o.record(now, true) }

func (o *refIdleObserver) OnIdle(now sim.Time) { o.record(now, false) }

func (o *refIdleObserver) record(now sim.Time, busy bool) {
	if busy == o.busy {
		return
	}
	o.busy = busy
	o.transitions = append(o.transitions, transition{at: now, busy: busy})
	o.prune(now)
}

func (o *refIdleObserver) prune(now sim.Time) {
	cutoff := now - o.horizon
	i := 0
	for i < len(o.transitions)-1 && o.transitions[i+1].at <= cutoff {
		i++
	}
	if i > 0 {
		o.transitions = append(o.transitions[:0], o.transitions[i:]...)
	}
}

func (o *refIdleObserver) Busy() bool { return o.busy }

func (o *refIdleObserver) IdleSlots(from, to sim.Time) int {
	if to < from {
		panic(fmt.Sprintf("core: IdleSlots window [%v, %v) inverted", from, to))
	}
	slots := 0
	// Walk transitions, tracking the state before the window.
	busy := false
	cur := sim.Time(0)
	idx := 0
	for idx < len(o.transitions) && o.transitions[idx].at <= from {
		busy = o.transitions[idx].busy
		cur = o.transitions[idx].at
		idx++
	}
	_ = cur
	segStart := from
	for segStart < to {
		var segEnd sim.Time
		var nextBusy bool
		if idx < len(o.transitions) && o.transitions[idx].at < to {
			segEnd = o.transitions[idx].at
			nextBusy = o.transitions[idx].busy
			idx++
		} else {
			segEnd = to
			nextBusy = busy
		}
		if !busy {
			span := segEnd - segStart - o.difs
			if span > 0 {
				slots += int(span / o.slot)
			}
		}
		busy = nextBusy
		segStart = segEnd
	}
	return slots
}

// TestIdleObserverMatchesReference feeds the ring observer and the
// reference the same random carrier histories and checks, after every
// transition, that the state and the idle-slot count on random windows
// agree. Horizons are short enough that pruning, ring wrap-around and
// repeated growth all happen, and the test asserts that they did.
func TestIdleObserverMatchesReference(t *testing.T) {
	var wrapped, maxCap int
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		horizon := sim.Time(r.IntRange(1, 1000)) * 50 * sim.Microsecond
		o := NewIdleObserver(tSlot, tDIFS, horizon)
		ref := &refIdleObserver{slot: tSlot, difs: tDIFS, horizon: horizon}
		now := sim.Time(0)
		check := func(from, to sim.Time, what string) {
			t.Helper()
			if got, want := o.IdleSlots(from, to), ref.IdleSlots(from, to); got != want {
				t.Fatalf("seed %d horizon %v: %s IdleSlots(%v, %v) = %d, reference %d",
					seed, horizon, what, from, to, got, want)
			}
		}
		for step := 0; step < 3000; step++ {
			// Zero gaps put several transitions on one instant; the
			// coin flip repeats the current state about half the time.
			now += sim.Time(r.Intn(8)) * sim.Time(r.IntRange(0, 150)) * sim.Microsecond
			if r.Bool(0.5) {
				o.OnBusy(now)
				ref.OnBusy(now)
			} else {
				o.OnIdle(now)
				ref.OnIdle(now)
			}
			if o.Busy() != ref.Busy() {
				t.Fatalf("seed %d step %d: Busy() = %v, reference %v", seed, step, o.Busy(), ref.Busy())
			}
			if o.head+o.n > len(o.ring) {
				wrapped++
			}
			maxCap = max(maxCap, len(o.ring))

			span := horizon + 2*sim.Millisecond
			lo := max(0, now-span)
			a := lo + sim.Time(r.Uint64()%uint64(span+1))
			b := lo + sim.Time(r.Uint64()%uint64(span+1))
			from, to := min(a, b), max(a, b)
			check(from, to, "random")
			check(from, from, "zero-width")
			check(0, now+sim.Millisecond, "everything")
			if len(ref.transitions) > 0 && ref.transitions[0].at > 0 {
				check(ref.transitions[0].at/2, now, "before oldest")
			}
			if len(ref.transitions) >= 2 {
				// End inside a retained busy or idle interval (on its
				// start when the interval is shorter than 2 ns).
				k := r.Intn(len(ref.transitions) - 1)
				in := ref.transitions[k].at + (ref.transitions[k+1].at-ref.transitions[k].at)/2
				check(min(lo, in), in, "ends mid-interval")
				check(ref.transitions[k].at, in, "starts on a transition")
				check(max(0, ref.transitions[k].at-1), in, "starts just before a transition")
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no check ran with the ring wrapped around")
	}
	if maxCap < 128 {
		t.Fatalf("ring never grew past %d entries; growth untested", maxCap)
	}
}

// starPeriod and starBusy approximate the carrier at a Figure-3 star
// monitor under load: a busy/idle pair every 800 µs, so a 2 s horizon
// retains about 5000 transitions.
const (
	starPeriod = 800 * sim.Microsecond
	starBusy   = 300 * sim.Microsecond
)

// TestIdleObserverSteadyState pins the memory behaviour of the ring by
// counts, not timing: once a 2 s horizon is full, recording transitions
// and querying windows allocate nothing, and the ring holds at most
// twice the peak number of retained transitions.
func TestIdleObserverSteadyState(t *testing.T) {
	o := newObs()
	now := sim.Time(0)
	peak := 0
	pair := func() {
		o.OnBusy(now)
		o.OnIdle(now + starBusy)
		o.IdleSlots(now-2*starPeriod, now+starPeriod)
		now += starPeriod
		peak = max(peak, o.n)
	}
	for now < 2*o.horizon {
		pair()
	}
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Fatalf("steady state allocates %v times per busy/idle pair and query, want 0", allocs)
	}
	if peak < 4000 {
		t.Fatalf("peak retained = %d, want the 2 s horizon filled (~5000)", peak)
	}
	if len(o.ring) > 2*peak {
		t.Fatalf("ring capacity %d exceeds twice the peak retained count %d", len(o.ring), peak)
	}
}

// BenchmarkIdleObserver times one busy/idle pair plus one IdleSlots over
// an ACK→RTS-sized window with 1k, 4k and 16k transitions retained. The
// cost should not depend on the history size.
func BenchmarkIdleObserver(b *testing.B) {
	for _, retained := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			horizon := sim.Time(retained/2) * starPeriod
			o := NewIdleObserver(tSlot, tDIFS, horizon)
			now := sim.Time(0)
			for now < 2*horizon {
				o.OnBusy(now)
				o.OnIdle(now + starBusy)
				now += starPeriod
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				o.OnBusy(now)
				o.OnIdle(now + starBusy)
				sink += o.IdleSlots(now-starPeriod+starBusy, now+starBusy+tDIFS)
				now += starPeriod
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
