package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dcfguard/internal/experiment"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// simSpec describes one simulator workload: a batch job of seed runs,
// one after another, in this process.
type simSpec struct {
	// refKey names the reference digest table; random-4k-2shard shares
	// random-4k's, since its outputs must equal the serial run's.
	refKey   string
	scenario func() experiment.Scenario
	// cells is how many distinct cell seeds one benchmark run cycles
	// through; every cell runs at least twice, so each run also checks
	// that a repeated seed repeats its digest.
	cells int
	// twin, when set, is the scenario whose digest must equal this one's
	// for cell seeds without a reference (2-shard vs serial).
	twin func() experiment.Scenario
	// shape is the paper-shape check, nil when the workload has none.
	shape func(experiment.Result) error
	// holdPending and holdMean set the sim.hold_ns driver: the mean
	// pending-event population of a run of this workload, and the mean
	// event lead time that population implies (pending events times the
	// simulated time between fired events).
	holdPending int
	holdMean    sim.Time
	// monitor marks workloads that run the paper's monitor; only they
	// report the core.* drivers and obs.overhead_frac.
	monitor bool
}

// starScenario is the Figure-3 ZERO-FLOW star (8 senders, node 3
// misbehaving at PM 80) under CORRECT, default channel, duration d.
func starScenario(d sim.Time) experiment.Scenario {
	s := experiment.DefaultScenario()
	s.Name = "star-correct"
	s.Protocol = experiment.ProtocolCorrect
	s.PM = 80
	s.Duration = d
	return s
}

// random4kScenario is the 4000-node scaled random topology at Figure-9
// density with 500 PM-80 misbehavers, plain 802.11, channel v3.
func random4kScenario(shards int) experiment.Scenario {
	s := experiment.DefaultScenario()
	s.Name = "random-4k"
	s.Protocol = experiment.Protocol80211
	s.Topo = experiment.ScaledRandomTopo(4000, 500)
	s.PM = 80
	s.Channel = experiment.ChannelV3
	s.Duration = 200 * sim.Millisecond
	s.Shards = shards
	return s
}

var (
	starCorrect = simSpec{
		refKey:      "star-correct",
		cells:       16,
		scenario:    func() experiment.Scenario { return starScenario(50 * sim.Second) },
		shape:       paperShape,
		holdPending: 16,
		holdMean:    900 * sim.Microsecond,
		monitor:     true,
	}
	random4k = simSpec{
		refKey:      "random-4k",
		cells:       2,
		scenario:    func() experiment.Scenario { return random4kScenario(1) },
		holdPending: 6900,
		holdMean:    500 * sim.Microsecond,
	}
	random4k2Shard = simSpec{
		refKey:      "random-4k",
		cells:       2,
		scenario:    func() experiment.Scenario { return random4kScenario(2) },
		twin:        func() experiment.Scenario { return random4kScenario(1) },
		holdPending: 3450, // per shard scheduler

		holdMean: 500 * sim.Microsecond,
	}
)

// cellSeeds returns the cell seeds of workload seed n: n·c+1 … n·c+c,
// so the default seed 0 runs the paper's seeds 1 … c.
func cellSeeds(n uint64, c int) []uint64 {
	out := make([]uint64, c)
	for i := range out {
		out[i] = n*uint64(c) + uint64(i) + 1
	}
	return out
}

// runCell runs one (scenario, seed) cell, turning a panic into an error,
// and returns its wall time in seconds.
func runCell(s experiment.Scenario, seed uint64) (r experiment.Result, wall float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("seed %d: panic: %v", seed, p)
		}
	}()
	t0 := time.Now()
	r, err = experiment.Run(s, seed)
	return r, elapsed(t0), err
}

// batch is the outcome of running cells for a time budget.
type batch struct {
	walls  []float64 // wall seconds of each successful run
	rates  []float64 // events per wall second of each successful run
	rss    []float64 // peak resident MiB of each successful run
	events uint64
}

// runBatch cycles through the cells until the budget is spent and every
// cell has run at least minRounds times, checking each result.
func runBatch(s experiment.Scenario, cells []uint64, budget float64, minRounds int, chk *checker, t *tally) batch {
	var b batch
	t0 := time.Now()
	for i := 0; elapsed(t0) < budget || i < minRounds*len(cells); i++ {
		runtime.GC() // every run starts from the same heap state
		resetPeakRSS()
		r, wall, err := runCell(s, cells[i%len(cells)])
		if err == nil {
			err = chk.check(r)
		}
		t.add(err)
		if err != nil {
			continue
		}
		b.walls = append(b.walls, wall)
		b.rates = append(b.rates, float64(r.EventsFired)/wall)
		b.rss = append(b.rss, peakRSSMB())
		b.events += r.EventsFired
	}
	return b
}

// setupTime is the median host time of Run on the scenario cut to its
// first contention window — DIFS plus CWmin+1 slots of simulated time:
// topology, medium index, node and monitor construction, and each
// sender's first backoff. One discarded warm-up run comes first.
func setupTime(s experiment.Scenario, seed uint64) (float64, error) {
	s.Duration = s.MAC.DIFS() + sim.Time(s.MAC.CWMin+1)*s.MAC.SlotTime
	var times []float64
	t0 := time.Now()
	for i := 0; i < 6 || (elapsed(t0) < 1 && i < 201); i++ {
		runtime.GC()
		_, wall, err := runCell(s, seed)
		if err != nil {
			return 0, fmt.Errorf("setup run: %w", err)
		}
		if i > 0 {
			times = append(times, wall)
		}
	}
	return median(times), nil
}

// twinCheck runs the twin scenario on every cell seed that has no
// reference digest and compares digests with this workload's runs.
func twinCheck(spec simSpec, cells []uint64, chk *checker, t *tally) {
	if spec.twin == nil {
		return
	}
	for _, seed := range cells {
		if _, ok := chk.refs[seed]; ok {
			continue // both workloads were held to the same reference
		}
		r, _, err := runCell(spec.twin(), seed)
		if err == nil {
			if d := digest(r, chk.payload); d != chk.seen[seed] {
				err = fmt.Errorf("seed %d: %s digest %s, this workload %s", seed, r.Scenario, d, chk.seen[seed])
			}
		}
		t.add(err)
	}
}

// runSim runs one simulator workload.
func runSim(spec simSpec, o options) (result, error) {
	s := spec.scenario()
	cells := cellSeeds(o.seed, spec.cells)
	chk := newChecker(references[spec.refKey], s.PayloadBytes, spec.shape)
	var t tally
	var res result

	if !o.trace {
		res.Metrics = map[string]metric{}
		setup, err := setupTime(s, cells[0])
		if err != nil {
			return result{}, err
		}
		a0 := totalAlloc()
		b := runBatch(s, cells, o.seconds, 2, chk, &t)
		alloc := totalAlloc() - a0
		twinCheck(spec, cells, chk, &t)
		res.Attempted, res.Failed = t.attempted, t.failed
		res.Metrics["events_per_sec"] = metric{median(b.rates), "1/s"}
		res.Metrics["job_s_p50"] = metric{median(b.walls), "s"}
		res.Metrics["setup_s"] = metric{setup, "s"}
		res.Metrics["alloc_bytes_per_event"] = metric{float64(alloc) / float64(max(b.events, 1)), "B"}
		res.Metrics["max_rss_mb"] = metric{median(b.rss), "MiB"}
		fmt.Fprintf(os.Stderr, "perfbench: run wall s: p50=%.6g %s; cells per s: %.6g\n",
			median(b.walls), tailLabel(b.walls), 1/max(median(b.walls), 1e-9))
		return res, nil
	}

	res.Metrics = perLayerZero()
	plain, traced, split, err := alternate(o.seconds/2, len(cells), func(i int) (float64, bool) {
		runtime.GC()
		r, wall, err := runCell(s, cells[i%len(cells)])
		if err == nil {
			err = chk.check(r)
		}
		t.add(err)
		return wall, err == nil
	})
	if err != nil {
		return result{}, err
	}
	split.report(res.Metrics, len(traced))
	res.Metrics["trace.overhead_frac"] = metric{overhead(traced, plain), "frac"}

	// Exact counts: one instrumented run of the first cell. Observability
	// is pass-through, so its digest must match the plain runs'.
	is := s
	is.Observe = &obs.Config{Metrics: true}
	r, _, err := runCell(is, cells[0])
	if err == nil {
		err = chk.check(r)
	}
	t.add(err)
	if err == nil {
		snap := r.Obs.Reg().Snapshot()
		reportCounts(res.Metrics, r, snap)
		if s.Shards > 1 {
			reportShards(res.Metrics, snap)
		}
	}

	if spec.monitor {
		res.Metrics["obs.overhead_frac"] = metric{obsOverhead(s, cells, chk, &t), "frac"}
		tx := res.Metrics["medium.transmissions"].Value / s.Duration.Seconds()
		rts, carrier := monitorDriver(tx, o.seed)
		res.Metrics["core.rts_ns"] = metric{rts, "ns"}
		res.Metrics["core.carrier_ns"] = metric{carrier, "ns"}
	}
	keyed := s.Channel == experiment.ChannelV3
	res.Metrics["sim.hold_ns"] = metric{holdDriver(spec.holdPending, spec.holdMean, keyed, o.seed), "ns"}
	txNs, fanout := transmitDriver(s, cells[0])
	res.Metrics["medium.transmit_ns"] = metric{txNs, "ns"}
	res.Metrics["medium.fanout"] = metric{fanout, "count"}

	twinCheck(spec, cells, chk, &t)
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}

// discard is a trace sink that drops every record.
type discard struct{}

func (discard) Emit(obs.Record) {}

// obsOverhead is the wall time of a fully instrumented run — metrics
// plus every trace category into a discarding sink — over the plain
// run's, minus one: medians of four alternating pairs over the cells
// (0 when every run failed; the tally has the failures).
func obsOverhead(s experiment.Scenario, cells []uint64, chk *checker, t *tally) float64 {
	full := s
	full.Observe = &obs.Config{Metrics: true, Categories: obs.AllCategories(), Sinks: []obs.Sink{discard{}}}
	var plain, instr []float64
	for i := 0; i < 4; i++ {
		seed := cells[i%len(cells)]
		for _, sc := range []experiment.Scenario{s, full} {
			r, wall, err := runCell(sc, seed)
			if err == nil {
				err = chk.check(r)
			}
			t.add(err)
			if err != nil {
				continue
			}
			if sc.Observe == nil {
				plain = append(plain, wall)
			} else {
				instr = append(instr, wall)
			}
		}
	}
	return overhead(instr, plain)
}

// reportCounts fills the exact per-layer counts from an instrumented
// run's registry snapshot and result.
func reportCounts(m map[string]metric, r experiment.Result, snap obs.Snapshot) {
	sum := func(scope, name string) float64 {
		var v uint64
		for _, c := range snap.Counters {
			if c.Scope == scope && c.Name == name {
				v += c.Value
			}
		}
		return float64(v)
	}
	tx, del := sum("medium", "transmissions"), sum("medium", "deliveries")
	ok, drop := sum("mac", "tx_success"), sum("mac", "tx_drop")
	m["sim.events"] = metric{float64(r.EventsFired), "count"}
	m["medium.transmissions"] = metric{tx, "count"}
	m["medium.deliveries"] = metric{del, "count"}
	m["medium.collisions"] = metric{sum("medium", "collisions"), "count"}
	m["medium.delivery_ratio"] = metric{del / max(tx, 1), "frac"}
	m["mac.tx_success"] = metric{ok, "count"}
	m["mac.tx_drop"] = metric{drop, "count"}
	m["mac.success_ratio"] = metric{ok / max(ok+drop, 1), "frac"}
	m["monitor.packets"] = metric{sum("monitor", "packets"), "count"}
	m["monitor.deviations"] = metric{sum("monitor", "deviations"), "count"}
	m["monitor.proven"] = metric{sum("monitor", "proven"), "count"}
}

// reportShards fills the shard-kernel metrics from the per-shard
// telemetry of an instrumented sharded run.
func reportShards(m map[string]metric, snap obs.Snapshot) {
	var windows float64
	for _, c := range snap.Counters {
		if c.Scope == "shard" && c.Node == obs.NoNode && c.Name == "windows" {
			windows = float64(c.Value)
		}
	}
	var busyUs, waitUs float64
	for _, h := range snap.Histograms {
		if h.Scope != "shard" {
			continue
		}
		switch h.Name {
		case "busy_us":
			busyUs += h.Sum
		case "barrier_wait_us":
			waitUs += h.Sum
		}
	}
	var events []float64
	for _, c := range snap.Counters {
		if c.Scope == "shard" && c.Node != obs.NoNode && c.Name == "events" {
			events = append(events, float64(c.Value))
		}
	}
	imbalance := 0.0
	if len(events) > 0 {
		hi, total := 0.0, 0.0
		for _, e := range events {
			hi = max(hi, e)
			total += e
		}
		imbalance = hi / max(total/float64(len(events)), 1)
	}
	m["shard.windows"] = metric{windows, "count"}
	m["shard.busy_ms"] = metric{busyUs / 1e3, "ms"}
	m["shard.barrier_wait_ms"] = metric{waitUs / 1e3, "ms"}
	m["shard.wait_ratio"] = metric{waitUs / max(busyUs+waitUs, 1e-9), "frac"}
	m["shard.event_imbalance"] = metric{imbalance, "ratio"}
}
