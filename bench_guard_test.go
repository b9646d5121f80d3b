package dcfguard_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dcfguard"
)

// The bench guard pins the kernel-throughput floor: RunRandom40V2 and
// RunRandom400 must sustain at least 95% of the events/sec recorded in
// BENCH.json, so a scheduler or channel-model regression that survives
// the correctness suites still fails the pre-merge gate. Like the
// observability overhead guard it is gated behind
// DCFGUARD_OVERHEAD_GUARD=1 (run by `make bench-guard`) because
// absolute throughput is only meaningful on the machine that captured
// the baseline.
//
// The estimator mirrors TestDisabledObservabilityOverhead's
// noisy-host discipline: each run is timed as min(wall, process-CPU) —
// contention inflates wall but not CPU burned — the best per-run rate
// accumulates across batches with a pause between failing ones, and a
// real regression lowers the ceiling itself so no number of batches
// rescues it.

// benchGuardTargets are the guarded workloads; both run channel model
// v2, the default, so they cover the slab kernel, the calendar queue,
// and the batched counter-RNG fast path.
func benchGuardTargets() map[string]dcfguard.Scenario {
	return map[string]dcfguard.Scenario{
		"RunRandom40V2": dcfguard.BenchScenarioRandom40V2(),
		"RunRandom400":  dcfguard.BenchScenarioRandom400(),
	}
}

func TestKernelThroughputGuard(t *testing.T) {
	if os.Getenv(overheadGuardEnv) == "" {
		t.Skipf("set %s=1 to run the kernel-throughput guard (make bench-guard)", overheadGuardEnv)
	}
	data, err := os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var bench struct {
		Results []struct {
			Name         string  `json:"name"`
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	baseline := make(map[string]float64)
	for _, r := range bench.Results {
		baseline[r.Name] = r.EventsPerSec
	}

	// Host-speed normalization (see hostSpeedScale): without it, the
	// host's minute-scale clock drift dwarfs the guard's 5% tolerance.
	hostScale, refNow := hostSpeedScale(baseline["HostReference"])
	t.Logf("host reference: recorded %.0f, now %.0f, floor scale %.3f",
		baseline["HostReference"], refNow, hostScale)

	for name, s := range benchGuardTargets() {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			base := baseline[name]
			if base <= 0 {
				t.Fatalf("baseline: no events_per_sec for %s in BENCH.json", name)
			}
			floor := base * 0.95 * hostScale
			best := 0.0
			for batch := 0; batch < 10 && best < floor; batch++ {
				if batch > 0 {
					time.Sleep(500 * time.Millisecond)
				}
				for i := 0; i < 3; i++ {
					wall0, cpu0 := time.Now(), cpuNow()
					r, err := dcfguard.Run(s, uint64(i+1))
					if err != nil {
						t.Fatal(err)
					}
					wall, cpu := time.Since(wall0), cpuNow()-cpu0
					d := wall
					if cpu > 0 && cpu < d {
						d = cpu
					}
					if secs := d.Seconds(); secs > 0 {
						if rate := float64(r.EventsFired) / secs; rate > best {
							best = rate
						}
					}
				}
				t.Logf("batch %d: best %.0f events/sec, baseline %.0f, floor %.0f",
					batch+1, best, base, floor)
			}
			if best < floor {
				t.Errorf("%s = %.0f events/sec, below %.0f (baseline %.0f - 5%%) — kernel throughput regressed",
					name, best, floor, base)
			}
		})
	}
}

// TestShardSpeedupGuard pins the sharded kernel's raison d'être: at the
// 10k-node workload, 4 shards must sustain at least 2.5x the events/sec
// of the serial kernel. The comparison is self-contained (both variants
// run back-to-back here, no BENCH.json baseline needed) so it holds on
// any sufficiently parallel machine; it is skipped where shards cannot
// physically run in parallel — on fewer than 4 usable CPUs the "sharded"
// run measures barrier overhead on a time-sliced core, and no kernel
// improvement could pass.
func TestShardSpeedupGuard(t *testing.T) {
	if os.Getenv(overheadGuardEnv) == "" {
		t.Skipf("set %s=1 to run the shard-speedup guard (make bench-guard)", overheadGuardEnv)
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("host has %d CPUs; the 4-shard speedup target needs >= 4 to be meaningful", n)
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("GOMAXPROCS=%d; the 4-shard speedup target needs >= 4 to be meaningful", n)
	}

	serial := bestWallRate(t, dcfguard.BenchScenarioRandom10kV3())
	sharded := bestWallRate(t, dcfguard.BenchScenarioRandom10kV3Sharded())
	speedup := sharded / serial
	t.Logf("10k nodes: serial %.0f events/sec, 4-shard %.0f events/sec, speedup %.2fx",
		serial, sharded, speedup)
	if speedup < 2.5 {
		t.Errorf("4-shard speedup %.2fx at 10k nodes, want >= 2.5x — the sharded kernel is not scaling", speedup)
	}
}

// TestShardSpeedupGuard2Shards is the parallel-speedup gate a 2-CPU
// host can run: at 4000 nodes, 2 shards must sustain at least 1.2x the
// events/sec of the serial kernel. Below that the window barrier's
// handoff eats what the second core buys.
func TestShardSpeedupGuard2Shards(t *testing.T) {
	if os.Getenv(overheadGuardEnv) == "" {
		t.Skipf("set %s=1 to run the 2-shard speedup guard (make bench-guard)", overheadGuardEnv)
	}
	if n := runtime.NumCPU(); n < 2 {
		t.Skipf("host has %d CPU; the 2-shard speedup target needs >= 2", n)
	}
	if n := runtime.GOMAXPROCS(0); n < 2 {
		t.Skipf("GOMAXPROCS=%d; the 2-shard speedup target needs >= 2", n)
	}
	s := dcfguard.BenchScenarioRandom4kV3()
	serial := bestWallRate(t, s)
	s.Shards = 2
	sharded := bestWallRate(t, s)
	speedup := sharded / serial
	t.Logf("4k nodes: serial %.0f events/sec, 2-shard %.0f events/sec, speedup %.2fx",
		serial, sharded, speedup)
	if speedup < 1.2 {
		t.Errorf("2-shard speedup %.2fx at 4k nodes, want >= 1.2x — the shard barrier costs more than the second core buys", speedup)
	}
}

// bestWallRate runs s for seeds 1..3 and returns the best events/sec by
// wall clock — the same best-of-batch discipline as the throughput
// guard. For a sharded run wall is the honest metric (work spreads over
// cores) and total CPU would overcount by the parallelism degree, so
// the speedup guards time both variants by wall to keep the ratio
// apples-to-apples.
func bestWallRate(t *testing.T, s dcfguard.Scenario) float64 {
	t.Helper()
	best := 0.0
	for i := 0; i < 3; i++ {
		wall0 := time.Now()
		r, err := dcfguard.Run(s, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if secs := time.Since(wall0).Seconds(); secs > 0 {
			if rt := float64(r.EventsFired) / secs; rt > best {
				best = rt
			}
		}
	}
	return best
}
