package experiment

import (
	"time"

	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// Per-shard kernel telemetry: the sharded kernel's imbalance made
// visible. Scope "shard", node = shard index; plus group-wide points at
// NoNode. Everything here is host-side measurement of the kernel — wall
// durations, queue depths — and flows one way, registry-ward: feeding
// any of it back into the model would break determinism.

// shardWallBounds buckets wall durations in microseconds: a window's
// drain on a healthy shard is tens to hundreds of µs, a pathological
// imbalance shows up in the ms tail.
var shardWallBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// shardSpanBounds buckets conservative-window widths in simulated µs
// (lookahead-sized: a few µs for v3 propagation delay).
var shardSpanBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// shardTelemetry holds the pre-resolved handles the per-window hook
// updates; see NewShardTelemetry.
type shardTelemetry struct {
	windows *obs.Counter
	span    *obs.Histogram
	handoff *obs.Histogram
	events  []*obs.Counter
	busy    []*obs.Histogram
	wait    []*obs.Histogram
	depth   []*obs.Gauge
}

// NewShardTelemetry resolves the per-shard metric handles and returns a
// sim.ShardGroup telemetry hook feeding them, nil when the registry is
// disabled (so the kernel's nil-hook fast path stays free). Handles are
// resolved here, once, at attach time; the returned hook does no by-name
// lookups — the obshot contract.
func NewShardTelemetry(reg *obs.Registry, shards int) func(sim.WindowTelemetry) {
	if reg == nil {
		return nil
	}
	t := &shardTelemetry{
		windows: reg.Counter("shard", obs.NoNode, "windows"),
		span:    reg.Histogram("shard", obs.NoNode, "window_span_us", shardSpanBounds),
		handoff: reg.Histogram("shard", obs.NoNode, "handoff_us", shardWallBounds),
	}
	for i := 0; i < shards; i++ {
		node := frame.NodeID(i)
		t.events = append(t.events, reg.Counter("shard", node, "events"))
		t.busy = append(t.busy, reg.Histogram("shard", node, "busy_us", shardWallBounds))
		t.wait = append(t.wait, reg.Histogram("shard", node, "barrier_wait_us", shardWallBounds))
		t.depth = append(t.depth, reg.Gauge("shard", node, "queue_depth"))
	}
	return t.onWindow
}

// onWindow runs on the coordinator at every barrier, all shards parked.
func (t *shardTelemetry) onWindow(w sim.WindowTelemetry) {
	t.windows.Inc()
	t.span.Observe(float64(w.Horizon-w.Start) / 1e3)
	var busiest time.Duration
	for i := range t.events {
		t.events[i].Add(w.Events[i])
		t.busy[i].Observe(float64(w.Busy[i]) / 1e3)
		busiest = max(busiest, w.Busy[i])
		wait := w.Wall - w.Busy[i]
		if wait < 0 {
			wait = 0
		}
		t.wait[i].Observe(float64(wait) / 1e3)
		t.depth[i].Set(float64(w.Depth[i]), w.Horizon)
	}
	// The window's wall time beyond its busiest shard is the barrier's
	// own cost: publishing the window and noticing it is done.
	t.handoff.Observe(float64(max(w.Wall-busiest, 0)) / 1e3)
}

// publishQueueHealth adds the run's calendar-queue health counters,
// summed over its schedulers (shards), to reg under scope "sim". It runs
// once, after the kernel stops, so nothing reaches the event path, and
// is a no-op when metrics are disabled. A queue pathology — calibration
// that rescans the whole queue, or recalibrations that change nothing —
// then shows in a Prometheus scrape as calibration_visits or
// noop_recalibrations far out of line with sim events.
func publishQueueHealth(reg *obs.Registry, scheds []*sim.Scheduler) {
	if reg == nil {
		return
	}
	var h sim.QueueHealth
	for _, s := range scheds {
		h = h.Add(s.QueueHealth())
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"queue_resizes", h.Resizes},
		{"queue_recalibrations", h.Recalibrations},
		{"queue_noop_recalibrations", h.NoopRecalibrations},
		{"queue_fallbacks", h.Fallbacks},
		{"queue_calibration_visits", h.CalibrationVisits},
		{"queue_insert_moves", h.InsertMoves},
	} {
		//detlint:allow obshot -- run-end publication: one lookup per counter per run, after the kernel stops
		reg.Counter("sim", obs.NoNode, c.name).Add(c.v)
	}
}
