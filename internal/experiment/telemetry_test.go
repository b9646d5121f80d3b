package experiment

import (
	"bytes"
	"strings"
	"testing"

	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// queueHealthCounters reads the "sim"-scoped queue-health counters out
// of a registry snapshot, keyed by metric name.
func queueHealthCounters(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Scope == "sim" && c.Node == obs.NoNode {
			out[c.Name] = c.Value
		}
	}
	return out
}

// TestPublishQueueHealthSumsSchedulers: the run-end publication adds
// every scheduler's counters field by field, and a nil registry (metrics
// disabled) is a no-op.
func TestPublishQueueHealthSumsSchedulers(t *testing.T) {
	scheds := []*sim.Scheduler{new(sim.Scheduler), new(sim.Scheduler), new(sim.Scheduler)}
	for i, s := range scheds {
		for k := 0; k < 100*(i+1); k++ {
			s.AtArg(sim.Time(k%37)*sim.Microsecond, func(any, sim.Time) {}, nil)
		}
		s.Drain()
	}
	var want sim.QueueHealth
	for _, s := range scheds {
		want = want.Add(s.QueueHealth())
	}
	if want.Resizes == 0 || want.CalibrationVisits == 0 {
		t.Fatalf("premise: schedulers recorded no queue work: %+v", want)
	}
	publishQueueHealth(nil, scheds)
	reg := obs.NewRegistry()
	publishQueueHealth(reg, scheds)
	got := queueHealthCounters(reg)
	for name, v := range map[string]uint64{
		"queue_resizes":             want.Resizes,
		"queue_recalibrations":      want.Recalibrations,
		"queue_noop_recalibrations": want.NoopRecalibrations,
		"queue_fallbacks":           want.Fallbacks,
		"queue_calibration_visits":  want.CalibrationVisits,
		"queue_insert_moves":        want.InsertMoves,
	} {
		if got[name] != v {
			t.Errorf("sim/%s = %d, want %d", name, got[name], v)
		}
	}
}

// TestQueueHealthInPrometheus: a metrics-enabled run, serial or sharded,
// leaves the queue-health counters in its registry, where a Prometheus
// scrape shows them without a profiler.
func TestQueueHealthInPrometheus(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := quickScenario("queue-health")
		s.Channel = ChannelV3
		s.Shards = shards
		s.Observe = &obs.Config{Metrics: true}
		res, err := Run(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := queueHealthCounters(res.Obs.Reg())
		// Every shard's queue grows past its initial buckets at least once.
		if got["queue_resizes"] < uint64(shards) || got["queue_calibration_visits"] == 0 {
			t.Fatalf("shards=%d: queue health not published: %v", shards, got)
		}
		var prom bytes.Buffer
		if err := res.Obs.Reg().WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"dcf_sim_queue_calibration_visits_total ", "dcf_sim_queue_noop_recalibrations_total "} {
			if !strings.Contains(prom.String(), want) {
				t.Fatalf("shards=%d: scrape lacks %q", shards, want)
			}
		}
	}
}
