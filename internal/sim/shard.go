package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel is the surface the experiment harness drives a run through,
// satisfied by both *Scheduler (serial runs) and *ShardGroup (sharded
// runs): the wall-time watchdog needs Interrupt, the result plumbing
// needs the counters and the final clock.
type Kernel interface {
	// Run executes events until no event at or before until remains, or
	// the kernel is interrupted.
	Run(until Time)
	// Interrupt requests a stop at an event (or window) boundary; safe
	// from any goroutine.
	Interrupt()
	// Interrupted reports whether Interrupt has been called.
	Interrupted() bool
	// EventsFired returns the total events executed.
	EventsFired() uint64
	// Now returns the current simulated time (for a group, the furthest
	// shard clock).
	Now() Time
}

// ShardGroup runs several keyed schedulers in lockstep conservative
// time windows (Chandy–Misra-style bounded lag with a fixed lookahead):
//
//	T       = min over shards of the next pending event time
//	horizon = min(T + lookahead, until + 1)
//
// Every cross-shard interaction is a medium fan-out with delay ≥
// lookahead, so an event firing inside [T, horizon) can only schedule
// onto another shard at ≥ T + lookahead ≥ horizon — never inside the
// window being drained. Each shard therefore drains [.., horizon)
// independently — shard 0 on the coordinator, the others on worker
// goroutines; at the barrier the coordinator calls Exchange, which
// injects the buffered boundary messages single-threadedly before the
// next window is computed. Keyed (when, key) ordering makes the merged
// stream — and thus every result — a pure function of the model, not
// of goroutine interleaving.
type ShardGroup struct {
	scheds    []*Scheduler
	lookahead Time

	// Exchange is called at every barrier with every shard quiescent; it
	// must move buffered cross-shard messages into their destination
	// schedulers (the medium's outbox drain) in a deterministic order.
	Exchange func()

	// Telemetry, when non-nil, receives per-window statistics at every
	// barrier, on the coordinator goroutine with every shard quiescent.
	// The slices in the argument are reused across windows: consume or
	// copy them inside the callback. A nil hook costs nothing — no
	// clocks are read and no buffers are kept. Wall-time fields describe
	// the host, never the model; feeding them back into simulation state
	// would break determinism (the pass-through contract of internal/obs).
	Telemetry func(WindowTelemetry)

	interrupted atomic.Bool
	panicked    atomic.Pointer[ShardPanic]

	// Per-window telemetry scratch, allocated once per Run when the
	// hook is set. Each shard's drainer writes only its own index
	// between barriers; a worker's countdown of barrier.pending orders
	// its writes before the coordinator's reads.
	busy   []time.Duration
	events []uint64
	depth  []int
}

// WindowTelemetry describes one completed conservative window.
type WindowTelemetry struct {
	// Start and Horizon bound the window in simulated time.
	Start, Horizon Time
	// Wall is the coordinator's wall-clock span of the window: dispatch
	// to last shard done. Busy[i] is shard i's wall time inside
	// RunWindow; Wall − Busy[i] approximates its barrier wait.
	Wall time.Duration
	Busy []time.Duration
	// Events[i] counts events shard i fired within the window; Depth[i]
	// is its pending-event count at the barrier.
	Events []uint64
	Depth  []int
}

// ShardPanic wraps a panic recovered while a shard drained a window —
// on its worker goroutine, or on the coordinator for shard 0. The group
// keeps the barrier protocol alive (so every shard finishes its window
// and buffered trace emissions stay flushable), then re-panics with
// this value on the coordinator — the per-seed guard's recover sees the
// panicking shard's own stack, taken where the panic was recovered.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

func (p *ShardPanic) String() string {
	return fmt.Sprintf("shard %d: %v", p.Shard, p.Value)
}

// NewShardGroup assembles a group over scheds. lookahead must be
// positive: it is the minimum cross-shard scheduling delay the model
// guarantees (for channel model v3, min(V3PropDelay, slot time)).
func NewShardGroup(scheds []*Scheduler, lookahead Time) *ShardGroup {
	if len(scheds) < 2 {
		panic("sim: ShardGroup needs at least 2 shards")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead %v must be positive", lookahead))
	}
	for _, s := range scheds {
		if !s.Keyed() {
			panic("sim: ShardGroup over a non-keyed scheduler")
		}
	}
	return &ShardGroup{scheds: scheds, lookahead: lookahead}
}

// Run drives all shards until no events at or before until remain, or
// the group is interrupted. The coordinator (the caller's goroutine)
// drains shard 0's window itself; shards 1..n−1 run on persistent
// workers that Run starts and, on every return path, stops and waits
// for. Between windows the coordinator owns every scheduler, so
// NextTime, Exchange, Telemetry and the final clock advance all run
// single-threaded.
func (g *ShardGroup) Run(until Time) {
	n := len(g.scheds)
	if g.Telemetry != nil {
		g.busy = make([]time.Duration, n)
		g.events = make([]uint64, n)
		g.depth = make([]int, n)
	}
	b := newBarrier(n)
	for i := 1; i < n; i++ {
		go g.work(b, i)
	}
	defer b.stop()
	for !g.interrupted.Load() {
		// T: the earliest pending event anywhere. Events beyond until
		// stay queued, exactly like the serial Run's push-back.
		var t Time
		have := false
		for _, s := range g.scheds {
			if w, ok := s.NextTime(); ok && (!have || w < t) {
				t, have = w, true
			}
		}
		if !have || t > until {
			break
		}
		horizon := t + g.lookahead
		if horizon > until+1 {
			// Clamp into the run: without this, a late-run window could
			// admit events past until that the serial kernel leaves
			// unfired. until+1 (not until) so events at exactly until
			// fire — RunWindow's bound is strict.
			horizon = until + 1
		}
		var wall0 time.Time
		if g.Telemetry != nil {
			wall0 = time.Now() //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
		}
		epoch := b.dispatch(horizon)
		g.runShardWindow(0, g.scheds[0], horizon)
		b.coord.wait(epoch, b.spin, func() bool { return b.pending.Load() == 0 })
		if g.panicked.Load() != nil {
			break // re-panic below, with every worker idle
		}
		if g.Telemetry != nil {
			g.Telemetry(WindowTelemetry{
				Start: t, Horizon: horizon,
				Wall: time.Since(wall0), //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
				Busy: g.busy, Events: g.events, Depth: g.depth,
			})
		}
		if g.Exchange != nil {
			g.Exchange()
		}
	}
	if sp := g.panicked.Load(); sp != nil {
		panic(sp)
	}
	if g.interrupted.Load() {
		return // leave every clock at its last fired event
	}
	// Windows leave each clock at its shard's last fired event; finish
	// exactly like the serial kernel by advancing every clock to until.
	// No events at or before until remain, so nothing fires.
	for _, s := range g.scheds {
		s.Run(until)
	}
}

// A barrier waiter re-checks its condition up to barrierSpin times
// before it parks. One check is a load of a cache line the other side
// writes, about a nanosecond, so the spin lasts ~0.1–0.2 ms: longer
// than most windows' imbalance at 4k nodes (a shard drains a window in
// ~35 µs) and longer than a park/wake round trip, which on a
// virtualised 2-CPU host costs tens of µs once the idle thread has gone
// to sleep. Shorter spins measured slower than not spinning at all:
// they pay for the spin and then for the wake-up anyway.
//
// Spinning pays only while the goroutine waited on is running. When it
// is not — other cells' goroutines hold the Ps — the spin fails, and
// after a failed spin the waiter parks at once for its next 2^k−1
// waits, k counting consecutive failures up to barrierBackoff. A host
// running one sharded run per CPU's worth of Ps keeps spinning; an
// oversubscribed one spins once per 2^barrierBackoff waits.
const (
	barrierSpin    = 1 << 17
	barrierBackoff = 8
)

// barrier is one Run's window handoff. The coordinator publishes a
// window by writing horizon (or quit) and then bumping epoch; each
// worker counts pending down when its window is drained. The atomics
// order the plain fields, and the telemetry scratch each worker
// writes, between the two sides.
type barrier struct {
	spin    int
	coord   parker   // the coordinator, waiting for pending to reach 0
	workers []parker // worker of shard i+1, waiting for the next epoch
	exited  sync.WaitGroup

	// The fields written every window sit on two cache lines of their
	// own, apart from the read-only ones above: the coordinator writes
	// the first and workers spin on it; workers write the second and
	// the coordinator spins on it.
	_       [64]byte
	epoch   atomic.Uint64
	horizon Time
	quit    bool
	_       [64]byte
	pending atomic.Int32
	_       [64]byte
}

// newBarrier returns the barrier for an n-shard Run, counting its n−1
// workers as running.
func newBarrier(n int) *barrier {
	b := &barrier{spin: barrierSpin, workers: make([]parker, n-1)}
	if runtime.GOMAXPROCS(0) < n {
		// Too few Ps for every shard to run at once: a spinning waiter
		// would only delay the goroutine it waits for.
		b.spin = 0
	}
	b.coord.wake = make(chan struct{}, 1)
	for i := range b.workers {
		b.workers[i].wake = make(chan struct{}, 1)
	}
	b.exited.Add(n - 1)
	return b
}

// dispatch publishes the next window to every worker and returns its
// epoch.
func (b *barrier) dispatch(horizon Time) uint64 {
	b.horizon = horizon
	b.pending.Store(int32(len(b.workers)))
	e := b.epoch.Add(1)
	for i := range b.workers {
		b.workers[i].signal(e)
	}
	return e
}

// stop tells every worker to exit and waits until all have. Run defers
// it, so workers also exit when Exchange, Telemetry or a re-raised
// ShardPanic unwinds the coordinator.
func (b *barrier) stop() {
	b.quit = true
	e := b.epoch.Add(1)
	for i := range b.workers {
		b.workers[i].signal(e)
	}
	b.exited.Wait()
}

// work is shard i's worker: it drains one window per epoch until told
// to quit.
func (g *ShardGroup) work(b *barrier, i int) {
	defer b.exited.Done()
	p := &b.workers[i-1]
	for e := uint64(1); ; e++ {
		p.wait(e, b.spin, func() bool { return b.epoch.Load() == e })
		if b.quit {
			return
		}
		g.runShardWindow(i, g.scheds[i], b.horizon)
		if b.pending.Add(-1) == 0 {
			b.coord.signal(e)
		}
	}
}

// parker lets one goroutine wait for a condition that another makes
// true and then signals. The waiter re-checks the condition up to spin
// times (not at all while backing off), then blocks on wake; a
// signaller sends a token only to a waiter it finds blocked (or about
// to block), so a waiter that sees the condition while spinning never
// touches the channel.
//
// sleeping holds the window epoch the parked waiter waits for (0:
// none), not a flag. A signaller delayed between its load and its CAS
// could otherwise claim the waiter's next wait, for the following
// window, and wake it before that window's condition holds.
type parker struct {
	sleeping atomic.Uint64
	wake     chan struct{} // cap 1: one token per parked wait, at most

	// Spin back-off, touched only by the waiter: consecutive failed
	// spins, and how many more waits park without spinning.
	misses, skip int
}

// wait returns once ready() holds; epoch (never 0) names the window
// the condition belongs to, matching the signaller's.
func (p *parker) wait(epoch uint64, spin int, ready func() bool) {
	if p.skip > 0 {
		p.skip--
		spin = 0
	}
	for i := 0; i < spin; i++ {
		if ready() {
			if p.misses != 0 { // no store on the common path: signallers read this line
				p.misses = 0
			}
			return
		}
	}
	if spin > 0 {
		p.misses = min(p.misses+1, barrierBackoff)
		p.skip = 1<<p.misses - 1
	}
	// Announce, then re-check: either this check sees the signaller's
	// update or the signaller sees sleeping (atomics are sequentially
	// consistent). If the signaller already claimed the wait, its token
	// is on the way and must be consumed.
	p.sleeping.Store(epoch)
	if ready() && p.sleeping.CompareAndSwap(epoch, 0) {
		return
	}
	<-p.wake
}

// signal wakes the waiter if it has parked on epoch; call it after
// making the waiter's condition true.
func (p *parker) signal(epoch uint64) {
	if p.sleeping.Load() == epoch && p.sleeping.CompareAndSwap(epoch, 0) {
		p.wake <- struct{}{}
	}
}

// runShardWindow drains one window of shard i, on its worker goroutine
// or (shard 0) on the coordinator. A panic inside the window is
// captured (first one wins) and the group interrupted; the drainer then
// keeps honouring the barrier protocol, so the coordinator can wait for
// every shard to finish its window before re-panicking — crash
// forensics (the ring tail) see a fully flushed, coherently ordered
// trace instead of a process torn mid-barrier.
func (g *ShardGroup) runShardWindow(i int, s *Scheduler, h Time) {
	defer func() {
		if r := recover(); r != nil {
			sp := &ShardPanic{Shard: i, Value: r, Stack: debug.Stack()}
			if g.panicked.CompareAndSwap(nil, sp) {
				g.Interrupt()
			}
		}
	}()
	if g.Telemetry == nil {
		s.RunWindow(h)
		return
	}
	wall0 := time.Now() //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
	e0 := s.EventsFired()
	s.RunWindow(h)
	g.busy[i] = time.Since(wall0) //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
	g.events[i] = s.EventsFired() - e0
	g.depth[i] = s.Pending()
}

// Interrupt stops the group at the next window boundary and every shard
// at its next event-stride poll within the current window. Safe from
// any goroutine; used by the per-seed wall-time watchdog.
func (g *ShardGroup) Interrupt() {
	g.interrupted.Store(true)
	for _, s := range g.scheds {
		s.Interrupt()
	}
}

// Interrupted reports whether Interrupt has been called.
func (g *ShardGroup) Interrupted() bool { return g.interrupted.Load() }

// EventsFired returns the total events executed across all shards.
func (g *ShardGroup) EventsFired() uint64 {
	var n uint64
	for _, s := range g.scheds {
		n += s.EventsFired()
	}
	return n
}

// Now returns the furthest shard clock.
func (g *ShardGroup) Now() Time {
	var t Time
	for _, s := range g.scheds {
		if w := s.Now(); w > t {
			t = w
		}
	}
	return t
}

// Shards returns the group's schedulers (indexed by shard).
func (g *ShardGroup) Shards() []*Scheduler { return g.scheds }
