package faults

import (
	"math"
	"testing"
)

// FuzzGEValidate throws arbitrary parameter vectors at the
// Gilbert–Elliott validator: whatever Validate accepts must be safe to
// run — the chain's mean rate is a probability, and an Injector built
// on it neither panics nor produces out-of-contract decisions. This is
// the satellite fuzz target for degenerate chains (frozen, absorbing,
// certain-loss) as much as for out-of-range rejection.
func FuzzGEValidate(f *testing.F) {
	f.Add(0.05, 0.25, 0.0, 1.0)      // classic Gilbert
	f.Add(0.0, 0.0, 0.0, 0.0)        // frozen chain
	f.Add(1.0, 0.0, 0.0, 1.0)        // absorbing Bad state
	f.Add(0.0, 1.0, 1.0, 1.0)        // certain loss in both states
	f.Add(-0.1, 0.5, 0.0, 1.0)       // out of range
	f.Add(0.5, math.NaN(), 0.0, 0.5) // NaN
	f.Add(2.0, 0.5, 0.5, 1.5)        // above one

	f.Fuzz(func(t *testing.T, p, r, good, bad float64) {
		g := GE{PGoodBad: p, PBadGood: r, GoodFER: good, BadFER: bad}
		err := g.Validate()
		inRange := func(v float64) bool { return v >= 0 && v <= 1 }
		wantOK := inRange(p) && inRange(r) && inRange(good) && inRange(bad)
		if wantOK && err != nil {
			t.Fatalf("valid GE %+v rejected: %v", g, err)
		}
		if !wantOK && err == nil {
			t.Fatalf("invalid GE %+v accepted", g)
		}
		if err != nil {
			return
		}
		// Anything accepted must be runnable: a finite mean rate in
		// [0, 1] and a panic-free injector.
		if m := g.MeanFER(); !(m >= 0 && m <= 1) {
			t.Fatalf("accepted GE %+v has MeanFER %v", g, m)
		}
		in := NewInjector(Config{Burst: &g}, 42)
		for i := 0; i < 64; i++ {
			in.Drop(1, 2)
		}
		if in.Drops() > 64 {
			t.Fatalf("injector counted %d drops in 64 frames", in.Drops())
		}
	})
}
