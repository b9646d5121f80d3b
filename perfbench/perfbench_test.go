package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"

	"dcfguard/internal/experiment"
	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
)

func TestMemmoveUnderPruneIsChargedToCore(t *testing.T) {
	stack := []string{
		"runtime.memmove",
		"dcfguard/internal/core.(*IdleObserver).prune",
		"dcfguard/internal/core.(*IdleObserver).record",
		"dcfguard/internal/core.(*Monitor).OnCarrierBusy",
		"dcfguard/internal/mac.(*Node).CarrierBusy",
		"dcfguard/internal/medium.(*Medium).busyStart",
		"dcfguard/internal/sim.(*Scheduler).fire",
		"dcfguard/internal/experiment.run",
		"main.runCell",
		"runtime.main",
	}
	if got := layerOf(stack); got != "core" {
		t.Fatalf("layerOf(memmove under IdleObserver.prune) = %q, want core", got)
	}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "dcfguard/internal/medium.(*Medium).newArrival"}, "medium"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"dcfguard.Run", "main.main"}, "experiment"},
		{[]string{"dcfguard/internal/traffic.(*Backlogged).Refill"}, "other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestPerturbedDigestCountsAsFailure(t *testing.T) {
	s := starScenario(2 * sim.Second)
	r, err := experiment.Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	perturb := []func(*experiment.Result){
		func(r *experiment.Result) { r.EventsFired++ },
		func(r *experiment.Result) { r.CorrectDiagnosisPct = math.Nextafter(r.CorrectDiagnosisPct, 0) },
		func(r *experiment.Result) { r.ThroughputBySender[1] = math.Nextafter(r.ThroughputBySender[1], 0) },
	}
	for i, p := range perturb {
		// Against a reference, and against an earlier run of the seed.
		for _, refs := range []map[uint64]string{{1: digest(r, s.PayloadBytes)}, nil} {
			chk := newChecker(refs, s.PayloadBytes, nil)
			var tl tally
			tl.add(chk.check(r))
			bad := r
			bad.ThroughputBySender = make(map[frame.NodeID]float64)
			for k, v := range r.ThroughputBySender {
				bad.ThroughputBySender[k] = v
			}
			p(&bad)
			tl.add(chk.check(bad))
			if tl.attempted != 2 || tl.failed != 1 {
				t.Errorf("perturbation %d (refs %v): attempted %d failed %d, want 2 and 1", i, refs != nil, tl.attempted, tl.failed)
			}
		}
	}
}

func TestSelfTimesSumToProfiledTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	s := starScenario(10 * sim.Second)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := experiment.Run(s, seed); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, smp := range p.samples {
		total += smp.cpuNs
	}
	sp, err := layerSplit(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || sp.total != total {
		t.Fatalf("split total %d, profile total %d", sp.total, total)
	}
	m := map[string]metric{}
	sp.report(m, 1)
	var selfMs, share float64
	for _, l := range layers {
		selfMs += m[l+".self_ms"].Value
		share += m[l+".share"].Value
	}
	if math.Abs(selfMs-float64(total)/1e6) > 1e-6 || math.Abs(share-1) > 1e-9 {
		t.Fatalf("self times sum to %.6f ms (profile %.6f ms), shares to %.12f", selfMs, float64(total)/1e6, share)
	}
	if m["core.share"].Value == 0 || m["sim.share"].Value == 0 {
		t.Errorf("no samples charged to core or sim on the star: %v", m)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !equal(names, listed) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, listed)
	}
	check := func(what string, code []spec, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", what, len(code), len(file))
			return
		}
		for i := range code {
			if code[i].name != file[i].Name || code[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", what, i, code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer(), b.PerLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
