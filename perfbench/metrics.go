package main

// spec is a metric's name and unit as BENCHMARK.json lists it.
type spec struct{ name, unit string }

// endToEnd lists the metrics every --trace 0 run reports.
var endToEnd = []spec{
	{"events_per_sec", "1/s"},
	{"job_s_p50", "s"},
	{"setup_s", "s"},
	{"alloc_bytes_per_event", "B"},
	{"max_rss_mb", "MiB"},
}

// perLayer lists the metrics every --trace 1 run reports. A workload
// that does not exercise a metric's layer or driver reports it as 0.
func perLayer() []spec {
	var out []spec
	for _, l := range layers {
		out = append(out, spec{l + ".self_ms", "ms"}, spec{l + ".share", "frac"})
	}
	return append(out,
		spec{"trace.overhead_frac", "frac"},
		spec{"sim.events", "count"},
		spec{"medium.transmissions", "count"},
		spec{"medium.deliveries", "count"},
		spec{"medium.collisions", "count"},
		spec{"medium.delivery_ratio", "frac"},
		spec{"mac.tx_success", "count"},
		spec{"mac.tx_drop", "count"},
		spec{"mac.success_ratio", "frac"},
		spec{"monitor.packets", "count"},
		spec{"monitor.deviations", "count"},
		spec{"monitor.proven", "count"},
		spec{"shard.windows", "count"},
		spec{"shard.busy_ms", "ms"},
		spec{"shard.barrier_wait_ms", "ms"},
		spec{"shard.wait_ratio", "frac"},
		spec{"shard.event_imbalance", "ratio"},
		spec{"sim.hold_ns", "ns"},
		spec{"medium.transmit_ns", "ns"},
		spec{"medium.fanout", "count"},
		spec{"core.rts_ns", "ns"},
		spec{"core.carrier_ns", "ns"},
		spec{"obs.overhead_frac", "frac"},
		spec{"serve.submit_ms", "ms"},
		spec{"serve.first_cell_ms", "ms"},
		spec{"serve.cell_gap_ms", "ms"},
		spec{"atomicio.write_ms", "ms"},
		spec{"serve.cells_retried", "count"},
		spec{"serve.cells_failed", "count"},
		spec{"serve.admission_rejected", "count"},
	)
}

// perLayerZero returns every per-layer metric set to 0 with its unit.
func perLayerZero() map[string]metric {
	m := make(map[string]metric)
	for _, s := range perLayer() {
		m[s.name] = metric{0, s.unit}
	}
	return m
}
