package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// Crash forensics under sharding: a panic on a shard *worker goroutine*
// must produce the same quality of SeedFailure as a serial panic — the
// worker's own stack, the run's progress, and a coherent trace tail.
// The trace tail is the hard part: emissions buffer on per-shard fronts
// and only merge at barriers, so the deferred flush in run() has to
// drain them while the ShardPanic unwinds, or the dump would be missing
// the final window and interleaved across shards.
func TestRunGuardedShardWorkerPanic(t *testing.T) {
	s := quickScenario("guarded-shard-panic")
	s.Channel = ChannelV3
	s.Shards = 4
	s.Observe = &obs.Config{Categories: obs.AllCategories()}

	// Plant a bomb on shard 2's scheduler, mid-run. The hook fires after
	// assembly, right before the event loop starts.
	testKernelHook = func(k sim.Kernel) {
		grp, ok := k.(*sim.ShardGroup)
		if !ok {
			t.Fatalf("kernel is %T, want *sim.ShardGroup", k)
		}
		sc := grp.Shards()[2]
		sc.SetOwner(0)
		sc.At(50*sim.Millisecond, func() { panic("injected shard-worker bug") })
	}
	defer func() { testKernelHook = nil }()

	_, err := RunGuarded(s, 1, time.Minute)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	// The panic value is the ShardPanic wrapper: it names the shard.
	if !strings.Contains(f.Panic, "shard 2: injected shard-worker bug") {
		t.Fatalf("Panic = %q, want the shard-attributed message", f.Panic)
	}
	// The stack is the worker goroutine's, captured at the original
	// recovery site — not the coordinator's re-panic.
	if !strings.Contains(f.Stack, "runShardWindow") {
		t.Fatalf("Stack is not the shard worker's:\n%s", f.Stack)
	}
	if f.Events == 0 || f.SimTime == 0 {
		t.Fatalf("progress not captured: %d events, t=%v", f.Events, f.SimTime)
	}

	// The trace tail survived the crash, drained through the barrier-
	// preserving flush in serial (when, key, seq) emission order. Some
	// record kinds legally carry future stamps (an ack-mark's Time is
	// the ACK's end), so the coherence witness is the channel category,
	// whose records are stamped at fire time: across four shards their
	// times must never run backward, exactly as in a serial run.
	if len(f.TraceTail) == 0 {
		t.Fatal("shard-worker panic lost the trace tail")
	}
	var prev sim.Time
	channelRecs := 0
	for i, r := range f.TraceTail {
		if r.Cat != obs.CatChannel {
			continue
		}
		if r.Time < prev {
			t.Fatalf("trace tail out of order at %d: t=%d after t=%d",
				i, int64(r.Time), int64(prev))
		}
		prev = r.Time
		channelRecs++
	}
	if channelRecs == 0 {
		t.Fatal("trace tail carries no channel records to order-check")
	}

	// And the human-facing dump renders the whole story.
	dump := f.Dump()
	for _, want := range []string{"guarded-shard-panic", "shard 2", "runShardWindow", "trace tail"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("Dump() missing %q:\n%s", want, dump)
		}
	}
}

// TestShardTelemetryRegisters: a sharded, metrics-enabled run populates
// the per-shard kernel telemetry — windows, per-shard event counters,
// barrier-wait histograms, one handoff sample per window — in the run's
// registry.
func TestShardTelemetryRegisters(t *testing.T) {
	s := quickScenario("shard-telemetry")
	s.Channel = ChannelV3
	s.Shards = 2
	s.Observe = &obs.Config{Metrics: true}
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Obs.Reg().Snapshot()
	var windows, events uint64
	var handoffs uint64
	var sawWait, sawDepth bool
	for _, c := range snap.Counters {
		switch {
		case c.Scope == "shard" && c.Name == "windows":
			windows = c.Value
		case c.Scope == "shard" && c.Name == "events":
			events += c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Scope == "shard" && h.Name == "barrier_wait_us" && h.Count > 0 {
			sawWait = true
		}
		if h.Scope == "shard" && h.Name == "handoff_us" {
			handoffs = h.Count
		}
	}
	for _, g := range snap.Gauges {
		if g.Scope == "shard" && g.Name == "queue_depth" {
			sawDepth = true
		}
	}
	if windows == 0 {
		t.Fatal("no conservative windows counted")
	}
	if events != res.EventsFired {
		t.Fatalf("per-shard event counters sum to %d, kernel fired %d", events, res.EventsFired)
	}
	if handoffs != windows {
		t.Fatalf("%d handoff samples for %d windows, want one per window", handoffs, windows)
	}
	if !sawWait {
		t.Fatal("no barrier-wait samples recorded")
	}
	if !sawDepth {
		t.Fatal("no queue-depth gauge registered")
	}
}
