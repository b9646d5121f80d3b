package main

import (
	"os"
	"path/filepath"
	"time"

	"dcfguard/internal/atomicio"
	"dcfguard/internal/core"
	"dcfguard/internal/experiment"
	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/medium"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// Layer drivers: each times one layer's exported calls in isolation, on
// inputs shaped like the workload's, so a moved end-to-end number can
// be traced to the layer that moved it.

// driverBudget is the minimum wall time each timed driver loop runs.
const driverBudget = 300 * time.Millisecond

// holdDriver runs the classic hold model on a fresh scheduler: pending
// events, each of which, when fired, schedules one successor with an
// exponential lead time of the given mean. It returns the host ns of one
// AtArg + fire cycle.
func holdDriver(pending int, mean sim.Time, keyed bool, seed uint64) float64 {
	src := rng.New(seed).Stream("hold")
	leads := make([]sim.Time, 1<<16)
	for i := range leads {
		leads[i] = sim.Time(src.ExpFloat64()*float64(mean)) + 1
	}
	sched := new(sim.Scheduler)
	if keyed {
		sched.EnableKeyed(pending)
	}
	next := 0
	var hold func(arg any, when sim.Time)
	hold = func(_ any, when sim.Time) {
		next++
		sched.AtArg(when+leads[next&(len(leads)-1)], hold, nil)
	}
	for i := 0; i < pending; i++ {
		if keyed {
			sched.SetOwner(i)
		}
		sched.AtArg(leads[i], hold, nil)
	}
	// Each Run call covers ten mean lead times: about ten times the
	// pending population in fired events.
	chunk := 10 * mean
	for sched.EventsFired() < uint64(20*pending) {
		sched.Run(sched.Now() + chunk) // warm-up: queue sized and calibrated
	}
	fired0 := sched.EventsFired()
	t0 := time.Now()
	for time.Since(t0) < driverBudget {
		sched.Run(sched.Now() + chunk)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(sched.EventsFired()-fired0)
}

// stubListener counts carrier-busy transitions and ignores the rest.
type stubListener struct{ busy *int }

func (l stubListener) CarrierBusy(sim.Time)                { *l.busy++ }
func (l stubListener) CarrierIdle(sim.Time)                {}
func (l stubListener) FrameReceived(frame.Frame, sim.Time) {}

// transmitDriver attaches stub listeners at the positions of the
// scenario's topology for seed, then transmits RTS frames along the
// topology's flows in turn, draining each transmission's arrival events
// before the next. It returns the host ns per Transmit plus drain, and
// the mean carrier-busy callbacks per transmission (the fan-out).
func transmitDriver(s experiment.Scenario, seed uint64) (ns, fanout float64) {
	tp := s.Topo(seed)
	sched := new(sim.Scheduler)
	keyed := s.Channel == experiment.ChannelV3
	if keyed {
		sched.EnableKeyed(len(tp.Positions) + 1)
	}
	med := medium.New(sched, medium.Config{Model: s.Shadowing, Channel: s.Channel}, rng.New(seed).Stream("medium"))
	radio := phys.CalibratedRadio(s.Shadowing, 24.5, 250, 0.5, 550, 0.5, s.BitRate)
	busy := 0
	for i, p := range tp.Positions {
		med.Attach(frame.NodeID(i), p, radio, stubListener{&busy})
	}
	k := 0
	send := func() {
		f := tp.Flows[k%len(tp.Flows)]
		k++
		if keyed {
			sched.SetOwner(int(f.Src))
		}
		med.Transmit(f.Src, frame.Frame{Type: frame.RTS, Src: f.Src, Dst: f.Dst, Seq: uint32(k), Attempt: 1})
		sched.Drain()
	}
	// The untimed first pass builds the medium's index and fixes the
	// fan-out over the same 1000 transmissions on every run.
	const pass = 1000
	for i := 0; i < pass; i++ {
		send()
	}
	fanout = float64(busy) / pass
	k0 := k
	t0 := time.Now()
	for time.Since(t0) < driverBudget {
		for i := 0; i < 100; i++ {
			send()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(k-k0), fanout
}

// monitorDriver feeds one receiver's Monitor a star-rate exchange
// stream — txPerSec transmissions per simulated second, four per
// RTS/CTS/DATA/ACK exchange, senders 1-8 in turn — for 50 simulated
// seconds, then times further exchanges. It returns the host ns of one
// OnRTS call and of one OnCarrierBusy or OnCarrierIdle call, each net of
// the clock read that times it.
func monitorDriver(txPerSec float64, seed uint64) (rtsNs, carrierNs float64) {
	if txPerSec <= 0 {
		return 0, 0
	}
	m := core.NewMonitor(0, core.DefaultParams(), mac.DefaultParams(), rng.New(seed).Stream("monitor"), core.Events{})
	src := rng.New(seed).Stream("carrier")
	period := sim.Time(float64(sim.Second) / txPerSec)
	air := period * 7 / 10
	clock := clockOverhead()
	var (
		now                sim.Time
		seqs               [9]uint32
		timed              bool
		rtsT, carT         time.Duration
		rtsCalls, carCalls int
	)
	frameOnAir := func() {
		now += sim.Time(float64(period-air) * (0.5 + src.Float64()))
		t0 := time.Now()
		m.OnCarrierBusy(now)
		now += air
		m.OnCarrierIdle(now)
		if timed {
			carT += time.Since(t0) - clock
			carCalls += 2
		}
	}
	exchange := func(k int) {
		s := frame.NodeID(1 + k%8)
		seqs[s]++
		frameOnAir()
		rts := frame.Frame{Type: frame.RTS, Src: s, Dst: 0, Seq: seqs[s], Attempt: 1}
		t0 := time.Now()
		ok, _ := m.OnRTS(rts, now-air, now)
		if timed {
			rtsT += time.Since(t0) - clock
			rtsCalls++
		}
		if !ok {
			return
		}
		frameOnAir() // CTS
		frameOnAir() // DATA
		m.OnData(frame.Frame{Type: frame.Data, Src: s, Dst: 0, Seq: seqs[s], PayloadBytes: 512}, now-air, now)
		frameOnAir() // ACK
		m.OnAckSent(s, seqs[s], now)
	}
	k := 0
	for ; now < 50*sim.Second; k++ {
		exchange(k)
	}
	timed = true
	t0 := time.Now()
	for time.Since(t0) < driverBudget {
		for i := 0; i < 100; i++ {
			exchange(k)
			k++
		}
	}
	return float64(rtsT.Nanoseconds()) / float64(max(rtsCalls, 1)),
		float64(carT.Nanoseconds()) / float64(max(carCalls, 1))
}

// clockOverhead is the median duration of an empty time.Now/time.Since
// pair: the cost the per-call drivers subtract.
func clockOverhead() time.Duration {
	ds := make([]float64, 1001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// writeDriver times atomicio.WriteFile of size bytes into dir and
// returns the median in ms.
func writeDriver(dir string, size int) (float64, error) {
	data := make([]byte, size)
	path := filepath.Join(dir, "cell.json")
	var ms []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if err := atomicio.WriteFile(path, data, 0o644); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), os.Remove(path)
}
