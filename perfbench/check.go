package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"

	"dcfguard/internal/experiment"
	"dcfguard/internal/frame"
)

// digest hashes the simulated statistics of one run: events fired, each
// measured sender's delivered packets and goodput, the diagnosis
// percentages and the attempt-verification proofs. Floats enter by
// their bit patterns, so any change to any statistic changes the digest.
func digest(r experiment.Result, payloadBytes int) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.EventsFired)
	ids := make([]int, 0, len(r.ThroughputBySender))
	for id := range r.ThroughputBySender {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		kbps := r.ThroughputBySender[frame.NodeID(id)]
		packets := math.Round(kbps * 1000 * r.Duration.Seconds() / 8 / float64(payloadBytes))
		put(uint64(id))
		put(uint64(packets))
		put(math.Float64bits(kbps))
	}
	for _, f := range []float64{r.CorrectDiagnosisPct, r.MisdiagnosisPct,
		r.AvgHonestKbps, r.AvgMisbehaverKbps, r.TotalKbps} {
		put(math.Float64bits(f))
	}
	put(uint64(r.ProvenMisbehaviors))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checker validates every run of one workload: against the recorded
// reference where one exists for the cell seed, against the first run
// of the same cell, and against the workload's paper-shape check.
type checker struct {
	refs    map[uint64]string // cell seed -> reference digest; may be nil
	payload int
	shape   func(experiment.Result) error
	seen    map[uint64]string // cell seed -> digest of its first run
}

func newChecker(refs map[uint64]string, payload int, shape func(experiment.Result) error) *checker {
	return &checker{refs: refs, payload: payload, shape: shape, seen: make(map[uint64]string)}
}

// check returns why r is wrong, or nil.
func (c *checker) check(r experiment.Result) error {
	d := digest(r, c.payload)
	if ref, ok := c.refs[r.Seed]; ok && d != ref {
		return fmt.Errorf("seed %d: digest %s, reference %s", r.Seed, d, ref)
	}
	if prev, ok := c.seen[r.Seed]; ok && prev != d {
		return fmt.Errorf("seed %d: digest %s, earlier run of the same seed %s", r.Seed, d, prev)
	}
	c.seen[r.Seed] = d
	if c.shape != nil {
		return c.shape(r)
	}
	return nil
}

// tally counts attempted and failed operations.
type tally struct{ attempted, failed int }

// add records one operation, failed when err is non-nil.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// paperShape is star-correct's check on every run, and the only check
// tied to the paper for seeds without a reference: the PM-80 sender is
// diagnosed for the large majority of its packets and honest senders
// are almost never misdiagnosed.
func paperShape(r experiment.Result) error {
	if r.CorrectDiagnosisPct < 90 || r.MisdiagnosisPct > 1 {
		return fmt.Errorf("seed %d: correct diagnosis %.2f%%, misdiagnosis %.2f%%: want >= 90%% and <= 1%%",
			r.Seed, r.CorrectDiagnosisPct, r.MisdiagnosisPct)
	}
	return nil
}
