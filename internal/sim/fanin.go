package sim

import "sort"

// Barrier fan-in for side channels of a sharded run.
//
// The sharded kernel (shard.go) proves the *event stream* is a pure
// function of the model, but several layers observe events through side
// channels that are ordered logs rather than keyed events: the frame
// trace recorder, the obs record bus, delivery taps. Run those through
// one shared sink from concurrent shard goroutines and the log order —
// and with it every golden — becomes an artifact of the interleaving
// (and a data race besides).
//
// Fanin[T] restores the serial order. Each shard goroutine appends its
// emissions to a private buffer, tagged with the firing event's
// (when, key) — read from its own scheduler via Now/CurrentKey — plus a
// per-shard emission counter. At every window barrier (and once after
// the run) the coordinator calls Flush, which merges all buffers in
// (when, key, seq) order and applies them to the downstream consumer
// single-threadedly.
//
// Why the merged order equals the serial order: a serial keyed run
// fires events in global (when, key) order, and keys are unique per
// instant, so every emission with a given (when, key) tag comes from
// exactly one event on exactly one shard — the per-shard counter then
// preserves the within-event program order. Sorting the union by
// (when, key, seq) is therefore exactly the serial emission sequence.
// Windows are disjoint in time across flushes, so flushing per barrier
// (rather than once at the end) cannot split a tie group.
type Fanin[T any] struct {
	scheds []*Scheduler
	bufs   [][]emission[T]
	seq    []uint64
	// setupSeq orders emissions made outside any event (CurrentKey 0 —
	// a tag no real event can carry: owner keys set bit 63 and a fan
	// key's transmitter never equals its observer, so FanKey(0,·,0)
	// cannot occur). Those happen only during single-threaded setup,
	// where one shared counter reproduces the serial program order that
	// per-shard counters cannot.
	setupSeq uint64
	apply    func(T)

	scratch []emission[T]
}

type emission[T any] struct {
	when Time
	key  uint64
	seq  uint64
	v    T
}

// NewFanin builds a fan-in over the group's schedulers (indexed by
// shard), delivering merged values to apply. Every scheduler must be
// keyed: the merge order is defined by event keys.
func NewFanin[T any](scheds []*Scheduler, apply func(T)) *Fanin[T] {
	for _, s := range scheds {
		if !s.Keyed() {
			panic("sim: Fanin over a non-keyed scheduler")
		}
	}
	return &Fanin[T]{
		scheds: scheds,
		bufs:   make([][]emission[T], len(scheds)),
		seq:    make([]uint64, len(scheds)),
		apply:  apply,
	}
}

// Emit buffers one value from the given shard, tagged with that shard's
// currently firing event. It must be called from the goroutine
// draining that shard (or from the coordinator between windows) — each
// buffer is single-owner by construction, like the medium's outboxes.
// A nil receiver is a no-op, so callers can emit unconditionally.
func (f *Fanin[T]) Emit(shard int, v T) {
	if f == nil {
		return
	}
	s := f.scheds[shard]
	key := s.CurrentKey()
	var seq uint64
	if key == 0 {
		// Outside any event: single-threaded setup, shared counter.
		seq = f.setupSeq
		f.setupSeq++
	} else {
		seq = f.seq[shard]
		f.seq[shard]++
	}
	f.bufs[shard] = append(f.bufs[shard], emission[T]{
		when: s.Now(),
		key:  key,
		seq:  seq,
		v:    v,
	})
}

// Flush merges every shard's buffered emissions into (when, key, seq)
// order and applies them downstream. Coordinator-only: every shard
// goroutine must be parked (window barrier, or after Run returned). A
// nil receiver is a no-op.
func (f *Fanin[T]) Flush() {
	if f == nil {
		return
	}
	n := 0
	for _, b := range f.bufs {
		n += len(b)
	}
	if n == 0 {
		return
	}
	f.scratch = f.scratch[:0]
	for i, b := range f.bufs {
		f.scratch = append(f.scratch, b...)
		for j := range b {
			b[j] = emission[T]{} // drop references for the pool's sake
		}
		f.bufs[i] = b[:0]
	}
	m := f.scratch
	sort.Slice(m, func(a, b int) bool {
		if m[a].when != m[b].when {
			return m[a].when < m[b].when
		}
		if m[a].key != m[b].key {
			return m[a].key < m[b].key
		}
		return m[a].seq < m[b].seq
	})
	for i := range m {
		f.apply(m[i].v)
		m[i] = emission[T]{}
	}
}
