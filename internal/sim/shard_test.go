package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- keyed ordering -------------------------------------------------

// TestKeyedTieBreakByKey: at equal instants a keyed scheduler fires fan
// keys (bit 63 clear — physical arrivals) before owner keys (local
// timers), and within each class in ascending key order, regardless of
// the order the events were scheduled in.
func TestKeyedTieBreakByKey(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(8)
	var got []string
	rec := func(name string) func(any, Time) {
		return func(any, Time) { got = append(got, name) }
	}
	at := Millisecond
	// Schedule in deliberately scrambled order.
	s.SetOwner(5)
	s.At(at, func() { got = append(got, "owner5") }) // owner key, owner 5
	s.AtKeyedArg(at, FanKey(3, 0, 1), rec("fan3->1"), nil)
	s.SetOwner(2)
	s.At(at, func() { got = append(got, "owner2") }) // owner key, owner 2
	s.AtKeyedArg(at, FanKey(1, 0, 4), rec("fan1->4"), nil)
	s.Run(Second)
	want := []string{"fan1->4", "fan3->1", "owner2", "owner5"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyed tie-break order %v, want %v", got, want)
		}
	}
}

// TestKeyedOwnerFollowsFiringEvent: events scheduled from inside a
// firing callback inherit the firing event's owner, so a node's private
// counter advances identically on any shard layout.
func TestKeyedOwnerFollowsFiringEvent(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(4)
	var fromThree EventRef
	s.SetOwner(3)
	s.At(Millisecond, func() {
		// Implicit rescheduling: must be keyed to owner 3, not to the
		// last SetOwner (which will be 1 by the time this fires).
		fromThree = s.At(2*Millisecond, func() {})
	})
	s.SetOwner(1)
	s.Run(Second)
	if fromThree.s == nil {
		t.Fatal("inner event never scheduled")
	}
	if s.ownerCtr[3] != 2 {
		t.Fatalf("owner 3 counter = %d, want 2 (setup event + rescheduled event)", s.ownerCtr[3])
	}
	if s.ownerCtr[1] != 0 {
		t.Fatalf("owner 1 counter = %d, want 0", s.ownerCtr[1])
	}
}

func TestFanKeyOverflowPanics(t *testing.T) {
	for _, c := range [][3]uint64{
		{MaxKeyedOwner + 1, 0, 0},
		{0, MaxFanFrame + 1, 0},
		{0, 0, MaxKeyedOwner + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FanKey(%d,%d,%d) did not panic", c[0], c[1], c[2])
				}
			}()
			FanKey(c[0], c[1], c[2])
		}()
	}
}

func TestEnableKeyedAfterSchedulingPanics(t *testing.T) {
	var s Scheduler
	s.At(Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("EnableKeyed after scheduling did not panic")
		}
	}()
	s.EnableKeyed(4)
}

// --- windows --------------------------------------------------------

// TestRunWindowStopsAtHorizon: RunWindow fires strictly before the
// horizon, leaves later events queued, and never advances the clock
// past the last fired event (the coordinator owns inter-window time).
func TestRunWindowStopsAtHorizon(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(1)
	s.SetOwner(0)
	var fired []Time
	for _, at := range []Time{1 * Microsecond, 5 * Microsecond, 9 * Microsecond, 10 * Microsecond, 30 * Microsecond} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunWindow(10 * Microsecond)
	if len(fired) != 3 || fired[2] != 9*Microsecond {
		t.Fatalf("window [0,10µs) fired %v", fired)
	}
	if s.Now() != 9*Microsecond {
		t.Fatalf("clock %v after window, want 9µs (last fired event)", s.Now())
	}
	if w, ok := s.NextTime(); !ok || w != 10*Microsecond {
		t.Fatalf("NextTime = %v,%v, want 10µs", w, ok)
	}
	s.RunWindow(31 * Microsecond)
	if len(fired) != 5 {
		t.Fatalf("second window left events unfired: %v", fired)
	}
}

// TestNextTimeSkipsStale: cancelled events must not show up as a
// shard's next pending time — they would deadlock window computation.
func TestNextTimeSkipsStale(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(1)
	s.SetOwner(0)
	r := s.At(Millisecond, func() {})
	s.At(2*Millisecond, func() {})
	s.Cancel(r)
	if w, ok := s.NextTime(); !ok || w != 2*Millisecond {
		t.Fatalf("NextTime = %v,%v, want 2ms (stale head skipped)", w, ok)
	}
}

// --- shard group ----------------------------------------------------

// TestShardGroupPingPong drives two shards whose only coupling is a
// cross-shard "message" injected at the barrier with the lookahead
// delay — a miniature of the medium's outbox protocol. The resulting
// trace must interleave both shards deterministically and the group
// counters must be coherent.
func TestShardGroupPingPong(t *testing.T) {
	const la = 10 * Microsecond
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(2)
	b.EnableKeyed(2)

	type msg struct {
		at  Time
		key uint64
	}
	var aOut, bOut []msg // messages for the OTHER shard, drained at barriers
	var trace []string
	var hops int
	var bounce func(dst *Scheduler, out *[]msg, name string) func(any, Time)
	bounce = func(dst *Scheduler, out *[]msg, name string) func(any, Time) {
		return func(_ any, now Time) {
			trace = append(trace, name)
			if hops++; hops < 8 {
				*out = append(*out, msg{at: now + la, key: FanKey(uint64(hops), uint64(hops), 0)})
			}
		}
	}
	onA := bounce(a, &aOut, "a")
	onB := bounce(b, &bOut, "b")

	g := NewShardGroup([]*Scheduler{a, b}, la)
	g.Exchange = func() {
		for _, m := range aOut {
			b.AtKeyedArg(m.at, m.key, onB, nil)
		}
		aOut = aOut[:0]
		for _, m := range bOut {
			a.AtKeyedArg(m.at, m.key, onA, nil)
		}
		bOut = bOut[:0]
	}
	a.SetOwner(0)
	a.At(Microsecond, func() { onA(nil, a.Now()) })
	g.Run(Second)

	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	if g.EventsFired() != a.EventsFired()+b.EventsFired() {
		t.Fatal("group EventsFired is not the shard sum")
	}
	if g.Now() != Second {
		t.Fatalf("group Now = %v, want %v (clocks advanced to until)", g.Now(), Second)
	}
	if a.Now() != Second || b.Now() != Second {
		t.Fatalf("shard clocks %v/%v, want both at until", a.Now(), b.Now())
	}
}

// TestShardGroupInterrupt: Interrupt from another goroutine stops the
// group at a window boundary mid-run, leaving coherent progress.
func TestShardGroupInterrupt(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	var fired atomic.Uint64
	// Self-perpetuating load on both shards: without an interrupt this
	// runs ~1e9 windows.
	var tick func(s *Scheduler) func()
	tick = func(s *Scheduler) func() {
		return func() {
			fired.Add(1)
			s.After(Microsecond, tick(s))
		}
	}
	a.At(Microsecond, tick(a))
	b.At(Microsecond, tick(b))

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	go func() {
		for fired.Load() < 1000 {
		}
		g.Interrupt()
	}()
	g.Run(1000 * Second)
	if !g.Interrupted() {
		t.Fatal("group not marked interrupted")
	}
	if g.EventsFired() == 0 {
		t.Fatal("no events fired before interrupt")
	}
	if g.Now() <= 0 || g.Now() >= 1000*Second {
		t.Fatalf("interrupted group clock %v outside the run", g.Now())
	}
}

func TestNewShardGroupPanics(t *testing.T) {
	keyed := func() *Scheduler {
		s := &Scheduler{}
		s.EnableKeyed(1)
		return s
	}
	cases := map[string]func(){
		"one shard": func() { NewShardGroup([]*Scheduler{keyed()}, Microsecond) },
		"zero la":   func() { NewShardGroup([]*Scheduler{keyed(), keyed()}, 0) },
		"non-keyed": func() { NewShardGroup([]*Scheduler{keyed(), {}}, Microsecond) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestShardGroupWorkerPanic: a panic on a shard worker goroutine does
// not deadlock the barrier or kill the process sideways — the group
// lets every shard finish its window and re-panics the captured
// *ShardPanic (worker stack attached) on the Run caller's goroutine.
func TestShardGroupWorkerPanic(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	// Steady load on shard 0 so both shards are genuinely inside
	// windows when shard 1 blows up.
	var tick func()
	tick = func() {
		a.After(Microsecond, tick)
	}
	a.At(Microsecond, tick)
	b.At(5*Microsecond, func() { panic("injected shard bug") })

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *ShardPanic", r, r)
		}
		if sp.Shard != 1 {
			t.Fatalf("ShardPanic.Shard = %d, want 1", sp.Shard)
		}
		if got := fmt.Sprint(sp.Value); got != "injected shard bug" {
			t.Fatalf("ShardPanic.Value = %q", got)
		}
		if !strings.Contains(string(sp.Stack), "goroutine") {
			t.Fatal("ShardPanic carries no worker stack")
		}
		if !strings.Contains(sp.String(), "shard 1: injected shard bug") {
			t.Fatalf("ShardPanic.String() = %q", sp.String())
		}
	}()
	g.Run(Second)
	t.Fatal("Run returned instead of re-panicking")
}

// TestShardGroupTelemetry: the per-window telemetry callback sees every
// shard's busy time, event delta and queue depth, and the window's sim
// span, without perturbing the run; a window's wall time covers every
// shard's busy time.
func TestShardGroupTelemetry(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 100 {
			a.After(Microsecond, tick)
		}
	}
	a.At(Microsecond, tick)
	b.At(Microsecond, func() {})

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	windows := 0
	var events uint64
	g.Telemetry = func(w WindowTelemetry) {
		windows++
		if len(w.Busy) != 2 || len(w.Events) != 2 || len(w.Depth) != 2 {
			t.Fatalf("telemetry slices sized %d/%d/%d, want 2 each",
				len(w.Busy), len(w.Events), len(w.Depth))
		}
		if w.Horizon <= w.Start {
			t.Fatalf("window [%v, %v) is empty", w.Start, w.Horizon)
		}
		for i, busy := range w.Busy {
			if w.Wall < busy {
				t.Fatalf("window wall %v shorter than shard %d's busy %v: Wall must span dispatch to the last shard done", w.Wall, i, busy)
			}
		}
		events += w.Events[0] + w.Events[1]
	}
	g.Run(Second)
	if windows == 0 {
		t.Fatal("telemetry callback never fired")
	}
	if events != g.EventsFired() {
		t.Fatalf("telemetry counted %d events, group fired %d", events, g.EventsFired())
	}
}

// tickGroup returns a group of n shards, each firing one event every
// lookahead µs (so every window holds exactly one event per shard) and
// calling onTick with its shard index before rescheduling.
func tickGroup(n int, onTick func(shard int)) *ShardGroup {
	const la = Microsecond
	scheds := make([]*Scheduler, n)
	for i := range scheds {
		s := &Scheduler{}
		s.EnableKeyed(1)
		s.SetOwner(0)
		var tick func()
		tick = func() {
			onTick(i)
			s.After(la, tick)
		}
		s.At(la, tick)
		scheds[i] = s
	}
	return NewShardGroup(scheds, la)
}

// TestShardGroupWorkersExit: every worker goroutine Run starts has
// exited once Run returns — normally, interrupted, or re-raising a
// shard's panic — and a panic on shard 0, which the coordinator drains
// itself, still surfaces as *ShardPanic{Shard: 0}. Both shard counts
// run: on a host with fewer Ps than shards the waiters park at once,
// otherwise they spin first.
func TestShardGroupWorkersExit(t *testing.T) {
	// settled polls until the goroutine count is back to at most want:
	// a worker is counted for a moment after it signals its exit, and
	// so may be one of an earlier Run, counted in want.
	settled := func(want int) int {
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		return got
	}
	cases := []struct {
		name    string
		until   Time
		panicOn int // shard whose first event panics; -1 for none
	}{
		{"normal", 20 * Microsecond, -1},
		{"interrupted", 1000 * Second, -1},
		{"panic on shard 1", 1000 * Second, 1},
		{"panic on shard 0", 1000 * Second, 0},
	}
	for _, n := range []int{2, 4} {
		for _, c := range cases {
			var g *ShardGroup
			var ticks atomic.Uint64
			g = tickGroup(n, func(shard int) {
				if ticks.Add(1) == 200 {
					g.Interrupt()
				}
				if shard == c.panicOn {
					panic("injected shard bug")
				}
			})
			before := runtime.NumGoroutine()
			r := func() (r any) {
				defer func() { r = recover() }()
				g.Run(c.until)
				return nil
			}()
			if c.panicOn >= 0 {
				sp, ok := r.(*ShardPanic)
				if !ok {
					t.Fatalf("%d shards, %s: recovered %v (%T), want *ShardPanic", n, c.name, r, r)
				}
				if sp.Shard != c.panicOn {
					t.Fatalf("%d shards, %s: ShardPanic.Shard = %d, want %d", n, c.name, sp.Shard, c.panicOn)
				}
			} else if r != nil {
				t.Fatalf("%d shards, %s: Run panicked: %v", n, c.name, r)
			}
			if c.name == "interrupted" && !g.Interrupted() {
				t.Fatalf("%d shards: group not interrupted", n)
			}
			if got := settled(before); got > before {
				t.Fatalf("%d shards, %s: %d goroutines after Run, %d before: workers leaked", n, c.name, got, before)
			}
		}
	}
}

// TestShardGroupBarrierStress: over thousands of windows, every shard
// has drained exactly its one event per window whenever Exchange runs —
// no worker is still draining, has run ahead, or has run twice. A
// wake-up delivered to the wrong window breaks this, and under the race
// detector (make shards) the early worker's queue access is reported
// too. Seven shards oversubscribe small hosts, so waiters park.
func TestShardGroupBarrierStress(t *testing.T) {
	for _, n := range []int{2, 7} {
		fired := make([]int, n) // each shard writes only its own element
		g := tickGroup(n, func(shard int) { fired[shard]++ })
		windows := 0
		g.Exchange = func() {
			windows++
			for i, f := range fired {
				if f != windows {
					t.Fatalf("%d shards, window %d: shard %d fired %d events, want %d", n, windows, i, f, windows)
				}
			}
		}
		g.Run(5000 * Microsecond)
		if windows != 5000 {
			t.Fatalf("%d shards: %d windows, want 5000", n, windows)
		}
	}
}

var benchEventsFired uint64

// BenchmarkShardBarrier measures the barrier alone: every window fires
// one trivial event per shard, so ns/op is the per-window handoff cost
// (publish, drain a single event, detect completion) and nothing else.
func BenchmarkShardBarrier(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			g := tickGroup(n, func(int) {})
			b.ReportAllocs()
			b.ResetTimer()
			g.Run(Time(b.N) * Microsecond)
			benchEventsFired = g.EventsFired()
		})
	}
}
