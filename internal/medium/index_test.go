package medium

import (
	"fmt"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// BenchmarkSetup times the two node-count-dependent steps of scenario
// setup at the ScaledRandomTopo density (n nodes in a 150·n m × 700 m
// strip, 200 m links, the paper's calibrated radio): building the random
// topology, then the medium's neighbor index over it. ns/node stays
// flat from 1k to 10k nodes when setup is linear in n.
func BenchmarkSetup(b *testing.B) {
	cfg := v2Config(0)
	cfg.Channel = ChannelV3
	radio := shadowedRadio(1)
	for _, n := range []int{1000, 4000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp := topo.Random(n, 150*float64(n), 700, 200, n/8, rng.New(1))
				var sched sim.Scheduler
				med := New(&sched, cfg, rng.New(1))
				for id, p := range tp.Positions {
					med.Attach(frame.NodeID(id), p, radio, &recorder{})
				}
				med.buildIndex()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
