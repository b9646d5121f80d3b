package core

import (
	"fmt"
	"sort"

	"dcfguard/internal/sim"
)

// IdleObserver reconstructs, from the receiver's own carrier-sense
// transitions, the number of backoff slots a sender could have counted
// in a time window — the receiver-side measurement B_act of §4.1.
//
// The counting rule mirrors the sender's countdown: within each maximal
// idle interval, the first DIFS is consumed before slots start counting,
// and only whole slots count.
//
// Retained transitions live in a ring buffer whose capacity is a power
// of two, at least 8, that doubles only when full: recording a
// transition and pruning past the horizon cost amortised O(1), and
// beyond 8 the capacity stays below twice the peak retained count.
// IdleSlots finds its window start by binary search, O(log n) in the
// retained history, plus one step per transition inside the window.
type IdleObserver struct {
	slot    sim.Time
	difs    sim.Time
	horizon sim.Time

	busy bool
	// ring[(head+i)&(len(ring)-1)] for i in [0, n) are the retained
	// transitions in time order; len(ring) is zero or a power of two.
	ring []transition
	head int
	n    int
}

type transition struct {
	at   sim.Time
	busy bool
}

// NewIdleObserver returns an observer with the given slot time, DIFS and
// retention horizon. The channel is assumed idle at time zero.
func NewIdleObserver(slot, difs, horizon sim.Time) *IdleObserver {
	if slot <= 0 || difs < 0 || horizon <= 0 {
		panic(fmt.Sprintf("core: IdleObserver(slot=%v, difs=%v, horizon=%v)", slot, difs, horizon))
	}
	return &IdleObserver{slot: slot, difs: difs, horizon: horizon}
}

// OnBusy records a carrier busy transition at now.
func (o *IdleObserver) OnBusy(now sim.Time) { o.record(now, true) }

// OnIdle records a carrier idle transition at now.
func (o *IdleObserver) OnIdle(now sim.Time) { o.record(now, false) }

func (o *IdleObserver) record(now sim.Time, busy bool) {
	if busy == o.busy {
		return
	}
	o.busy = busy
	if o.n == len(o.ring) {
		o.grow()
	}
	o.ring[(o.head+o.n)&(len(o.ring)-1)] = transition{at: now, busy: busy}
	o.n++
	o.prune(now)
}

// grow doubles the ring, unwrapping the retained transitions to the
// front of the new buffer.
func (o *IdleObserver) grow() {
	ring := make([]transition, max(8, 2*len(o.ring)))
	for i := 0; i < o.n; i++ {
		ring[i] = o.at(i)
	}
	o.ring, o.head = ring, 0
}

// at returns the i-th oldest retained transition.
func (o *IdleObserver) at(i int) transition {
	return o.ring[(o.head+i)&(len(o.ring)-1)]
}

// prune drops transitions that ended before the retention horizon,
// always keeping the last transition at or before now − horizon so the
// state at any retained instant is reconstructible.
func (o *IdleObserver) prune(now sim.Time) {
	cutoff := now - o.horizon
	for o.n > 1 && o.at(1).at <= cutoff {
		o.head = (o.head + 1) & (len(o.ring) - 1)
		o.n--
	}
}

// Busy reports the channel state as last recorded.
func (o *IdleObserver) Busy() bool { return o.busy }

// IdleSlots returns the number of backoff slots available in [from, to):
// for every maximal idle interval overlapping the window, the interval's
// first DIFS is discarded (clipped to the window) and the remainder is
// divided into whole slots.
//
// The DIFS of an idle interval that began before the window still counts
// against the window only for the portion inside it: the sender's DIFS
// wait after its ACK falls exactly at the window start, which is why the
// window boundary is treated as the start of a fresh idle interval.
func (o *IdleObserver) IdleSlots(from, to sim.Time) int {
	if to < from {
		panic(fmt.Sprintf("core: IdleSlots window [%v, %v) inverted", from, to))
	}
	// The state before the window is that of the last transition at or
	// before from; the walk starts at the first one after it.
	idx := sort.Search(o.n, func(i int) bool { return o.at(i).at > from })
	busy := idx > 0 && o.at(idx-1).busy
	slots := 0
	segStart := from
	for segStart < to {
		var segEnd sim.Time
		var nextBusy bool
		if idx < o.n && o.at(idx).at < to {
			t := o.at(idx)
			segEnd, nextBusy = t.at, t.busy
			idx++
		} else {
			segEnd = to
			nextBusy = busy
		}
		if !busy {
			span := segEnd - segStart - o.difs
			if span > 0 {
				slots += int(span / o.slot)
			}
		}
		busy = nextBusy
		segStart = segEnd
	}
	return slots
}
