package sim

// calendarQueue is a calendar queue (R. Brown, CACM 1988): entries hash
// by time into power-of-two buckets of width `width`. With the width
// matched to the event-time density at the queue's front, push and pop
// are amortised O(1) — the property that lets it beat the heap's
// O(log n) once the pending set grows past a few hundred events.
//
// Adaptations for this kernel, tuned on the bench suite (DESIGN.md §10):
//
//   - Buckets are kept sorted ascending by (when, seq) with a per-bucket
//     head offset: pop peeks b[head] in O(1) and take is head++ — no
//     memmove on the pop side, and the year scan touches one entry per
//     visited bucket. Steady-state pushes land at or near the bucket
//     tail (new events carry the largest seq), so insertion memmoves are
//     short.
//   - Bucket width is calibrated from the average gap over a sample of
//     the calSample front-most events, NOT from span/count: the pending
//     set always contains a few far-future outliers (traffic refill
//     timers, run horizons) that would otherwise inflate the width and
//     pile dozens of near-term events into each front bucket. The
//     sample is taken by walking the current year forward from the
//     floor's bucket, one window at a time, and stops after calSample
//     entries: O(calSample) rather than O(n), and the same sample a
//     whole-queue scan would find, because buckets are sorted and
//     windows are visited in time order. Only a year holding fewer than
//     calSample entries (a sparse or far-future queue) falls back to
//     scanning every entry.
//   - Calibration drift is detected online: when insertion memmove cost
//     or empty-year fallbacks exceed their thresholds, the queue
//     re-resizes at the same bucket count purely to re-derive the width.
//     The memmove meter is tie-aware: it counts only shifted entries
//     strictly later than the inserted event, the part a narrower width
//     would have hashed elsewhere. Same-instant entries that order after
//     it (fan-key arrivals inserted before a cluster of slot-aligned
//     owner-key timers) still move, but no width can split them, so
//     they never trigger a recalibration.
//   - Cumulative health counters (QueueHealth) record rebuilds,
//     recalibrations, fallbacks and the work calibration and insertion
//     did. Keeping them costs one add per mid-bucket insert; they are
//     read once per run.
//   - All buckets share one contiguous backing array (calBucketCap
//     entries each); only overflowing buckets spill into their own
//     allocation.
//   - floor is a lower bound on every stored when (not a strict
//     monotone dequeue clock): the scheduler's compact() and Run's
//     horizon push-back may reinsert entries at or below the last
//     popped time, so push lowers the floor when needed.
//
// Pop scans one "year" (bucket count × width) of windows starting at the
// floor's bucket; a bucket head within its current-year window is the
// global minimum (uniqueness of (when, seq) makes the order total and
// identical to heapQueue's — pinned by the equivalence quickcheck). An
// empty year falls back to a direct scan of all bucket heads.
type calendarQueue struct {
	buckets [][]entry
	// heads[i] is the index of bucket i's first live entry; entries
	// before it have been popped and are reclaimed when the bucket
	// empties or resizes.
	heads []int
	mask  int
	// Bucket width is the power of two 1<<shift, so the time→bucket map
	// is a shift-and-mask rather than a division by a runtime-variable
	// width — pop and push both hit it on every call.
	shift uint
	n     int
	floor Time

	// moved/pushes/fallbacks meter calibration drift since the last
	// resize (see maybeRecalibrate). moved counts only shifted entries
	// later than the inserted one (see push).
	moved     int
	pushes    int
	fallbacks int

	// stats holds the cumulative health counters (see health).
	stats QueueHealth

	// spareBuckets/spareHeads hold the bucket arrays retired by the
	// last resize. Bursty workloads (a DCF cell fanning a frame out to
	// every observer, then draining) oscillate the live count across
	// the grow/shrink thresholds hundreds of times per run; swapping
	// the retired arrays back in makes that oscillation allocation-free
	// after the first cycle.
	spareBuckets [][]entry
	spareHeads   []int
}

// QueueHealth is the calendar queue's cumulative self-telemetry: how
// often it rebuilt or re-derived its width, and how much work width
// calibration and insertion did. A queue pathology (a calibration that
// rescans the queue, or a width that piles events into one bucket)
// shows here as a ratio out of line with the event count. The
// experiment runner publishes it under metrics scope "sim" at run end.
type QueueHealth struct {
	// Resizes counts rebuilds that doubled or halved the bucket count.
	Resizes uint64
	// Recalibrations counts drift-triggered rebuilds at an unchanged
	// bucket count that changed the width; NoopRecalibrations counts
	// those that found the width already right and rebuilt nothing.
	Recalibrations     uint64
	NoopRecalibrations uint64
	// Fallbacks counts pops that found the current year empty and
	// searched every bucket head.
	Fallbacks uint64
	// CalibrationVisits counts the entries width calibration read.
	CalibrationVisits uint64
	// InsertMoves counts the entries mid-bucket inserts shifted,
	// same-instant ties included.
	InsertMoves uint64
}

// Add returns the field-wise sum of h and o (shards sum their queues).
func (h QueueHealth) Add(o QueueHealth) QueueHealth {
	return QueueHealth{
		Resizes:            h.Resizes + o.Resizes,
		Recalibrations:     h.Recalibrations + o.Recalibrations,
		NoopRecalibrations: h.NoopRecalibrations + o.NoopRecalibrations,
		Fallbacks:          h.Fallbacks + o.Fallbacks,
		CalibrationVisits:  h.CalibrationVisits + o.CalibrationVisits,
		InsertMoves:        h.InsertMoves + o.InsertMoves,
	}
}

const (
	calMinBuckets = 4
	// calBucketCap is each bucket's share of the shared backing array.
	// Width calibration keeps mean occupancy around three entries, so
	// spills past the shared cap are uncommon.
	calBucketCap = 4
	// calSample is how many front events the width calibration averages
	// over.
	calSample = 32
	// calMovedPerPush and calMaxFallbacks trigger recalibration: mean
	// later-entry insertion memmove above calMovedPerPush means the
	// width is too wide (overfull buckets); repeated empty-year
	// fallbacks mean it is too narrow.
	calMovedPerPush = 8
	calMaxFallbacks = 16
)

func newCalendarQueue() *calendarQueue {
	c := &calendarQueue{}
	c.allocBuckets(calMinBuckets)
	return c
}

func (c *calendarQueue) width() Time { return Time(1) << c.shift }

// allocBuckets replaces the bucket array with nb empty buckets, reusing
// the spare arrays from the previous resize when they are the right
// size and carving fresh buckets from one contiguous backing allocation
// otherwise. The replaced arrays become the new spare.
func (c *calendarQueue) allocBuckets(nb int) {
	prev, prevHeads := c.buckets, c.heads
	if len(c.spareBuckets) == nb {
		c.buckets, c.heads = c.spareBuckets, c.spareHeads
		for i := range c.buckets {
			c.buckets[i] = c.buckets[i][:0]
			c.heads[i] = 0
		}
	} else {
		backing := make([]entry, nb*calBucketCap)
		c.buckets = make([][]entry, nb)
		for i := range c.buckets {
			c.buckets[i] = backing[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
		}
		c.heads = make([]int, nb)
	}
	c.spareBuckets, c.spareHeads = prev, prevHeads
	c.mask = nb - 1
}

func (c *calendarQueue) len() int { return c.n }

// bucketOf maps a time to its bucket index.
func (c *calendarQueue) bucketOf(when Time) int {
	return int(uint64(when)>>c.shift) & c.mask
}

func (c *calendarQueue) push(e entry) {
	if c.n == 0 || e.when < c.floor {
		c.floor = e.when
	}
	j := c.bucketOf(e.when)
	b := c.buckets[j]
	// Tail-append fast path: new events carry the largest seq yet
	// issued, so most pushes order after everything already in the
	// bucket — one compare instead of a binary search.
	if n := len(b); n == c.heads[j] || entryLess(b[n-1], e) {
		c.buckets[j] = append(b, e)
		c.pushes++
		c.n++
		if c.n > 2*len(c.buckets) {
			c.resize(2 * len(c.buckets))
		}
		return
	}
	// Binary search over the live region for the ascending insert
	// position.
	lo, hi := c.heads[j], len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(b[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.moved += laterThan(b[lo:], e.when)
	b = append(b, entry{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	c.buckets[j] = b
	c.stats.InsertMoves += uint64(len(b) - 1 - lo)
	c.pushes++
	c.n++
	if c.n > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	} else {
		c.maybeRecalibrate()
	}
}

// laterThan counts the entries of the sorted run tail, all ordering
// after an event at when, that lie strictly later than when: the drift
// meter's share of an insert's memmove. The rest are same-instant
// entries with a larger key, which shift too, but which no width could
// split from the inserted event. Both common shapes cost one compare: a
// keyed same-instant cluster at the bucket's end (no later entries), and
// FIFO seq order, where the inserted event carries the largest seq and
// so has no ties after it (every shifted entry is later).
func laterThan(tail []entry, when Time) int {
	n := len(tail)
	if tail[n-1].when == when {
		return 0
	}
	if tail[0].when > when {
		return n
	}
	lo, hi := 1, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tail[mid].when > when {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return n - lo
}

// maybeRecalibrate re-derives the bucket width in place when the drift
// meters show the current width no longer matches the front density.
func (c *calendarQueue) maybeRecalibrate() {
	if (c.pushes >= 256 && c.moved > calMovedPerPush*c.pushes) ||
		c.fallbacks > calMaxFallbacks {
		c.resize(len(c.buckets))
	}
}

func (c *calendarQueue) pop() (entry, bool) {
	if c.n == 0 {
		return entry{}, false
	}
	nb := len(c.buckets)
	start := c.bucketOf(c.floor)
	width := c.width()
	top := (c.floor &^ (width - 1)) + width
	for k := 0; k < nb; k++ {
		j := (start + k) & c.mask
		b := c.buckets[j]
		if h := c.heads[j]; h < len(b) && b[h].when < top {
			return c.take(j), true
		}
		top += width
	}
	// Empty year: direct search over the bucket heads for the global
	// minimum.
	c.fallbacks++
	c.stats.Fallbacks++
	best := -1
	for j, b := range c.buckets {
		if h := c.heads[j]; h < len(b) {
			if best < 0 || entryLess(b[h], c.buckets[best][c.heads[best]]) {
				best = j
			}
		}
	}
	e := c.take(best)
	c.maybeRecalibrate()
	return e, true
}

// take removes bucket j's head entry, advancing the floor and checking
// the shrink threshold.
func (c *calendarQueue) take(j int) entry {
	b := c.buckets[j]
	h := c.heads[j]
	e := b[h]
	h++
	if h == len(b) {
		c.buckets[j] = b[:0]
		c.heads[j] = 0
	} else {
		c.heads[j] = h
	}
	c.n--
	c.floor = e.when
	if nb := len(c.buckets); nb > calMinBuckets && c.n < nb/4 {
		c.resize(nb / 2)
	}
	return e
}

// resize redistributes every entry across nb buckets, re-deriving the
// bucket width so a front bucket covers about three events' worth of
// the queue-front time density. Called both for capacity doublings/
// halvings and (at unchanged nb) for pure width recalibration.
func (c *calendarQueue) resize(nb int) {
	newShift := c.calibrateShift()
	switch {
	case nb != len(c.buckets):
		c.stats.Resizes++
	case newShift == c.shift:
		// Pure recalibration that would not change the width: skip the
		// rebuild (and its allocations) and just reset the drift meters,
		// so a workload the calendar cannot model better than it already
		// does (e.g. sparse far-future events) is not charged a
		// redistribution every calMaxFallbacks pops.
		c.stats.NoopRecalibrations++
		c.moved, c.pushes, c.fallbacks = 0, 0, 0
		return
	default:
		c.stats.Recalibrations++
	}
	old := c.buckets
	oldHeads := c.heads
	c.shift = newShift
	c.allocBuckets(nb)
	c.n = 0
	for j, b := range old {
		for _, e := range b[oldHeads[j]:] {
			i := c.bucketOf(e.when)
			c.buckets[i] = append(c.buckets[i], e)
			c.n++
		}
	}
	// Redistribution appends in old-bucket order, which is not globally
	// sorted: restore each bucket's ascending (when, seq) invariant.
	for _, b := range c.buckets {
		insertionSort(b)
	}
	c.moved, c.pushes, c.fallbacks = 0, 0, 0
}

// calibrateShift samples the calSample front-most events and returns
// the width exponent closest to three times their mean gap (Brown's
// "bucket day" rule, rounded to a power of two): wide enough that a pop
// rarely crosses buckets, narrow enough that a bucket rarely holds more
// than a few events. Far-future outliers never enter the sample, so
// they cannot inflate the width.
func (c *calendarQueue) calibrateShift() uint {
	var sample [calSample]Time
	k := 0
	if c.n >= calSample {
		k = c.sampleFront(&sample)
	}
	if k < calSample {
		k = c.sampleScan(&sample)
	}
	if k < 2 {
		return c.shift
	}
	// Average the positive gaps only: a fan-out burst schedules dozens
	// of entries at one instant, and counting those zero gaps (or the
	// raw span over them) would collapse the width to nothing — the
	// degenerate-width thrash this replaced showed up as an empty-year
	// fallback storm with a meter-reset resize every few pops.
	var sum Time
	gaps := 0
	for i := 1; i < k; i++ {
		if d := sample[i] - sample[i-1]; d > 0 {
			sum += d
			gaps++
		}
	}
	if gaps == 0 {
		// Every sampled event shares one instant; the sample says
		// nothing about front density, so keep the current width.
		return c.shift
	}
	width := sum * 3 / Time(gaps)
	shift := uint(0)
	for Time(1)<<(shift+1) <= width {
		shift++
	}
	return shift
}

// sampleFront fills sample with the times of the front-most entries in
// ascending order by walking the current year the way pop does: window
// w of the year maps to bucket bucketOf(floor)+w, and that window's
// entries are exactly the bucket's live prefix below the window top
// (every entry is at or above the floor, so none belongs to an earlier
// year). Windows are visited in time order and buckets are sorted, so
// the first calSample entries seen are the calSample smallest times —
// the whole-queue scan's sample. It returns how many it found, fewer
// than calSample only when the year holds fewer.
func (c *calendarQueue) sampleFront(sample *[calSample]Time) int {
	width := c.width()
	top := (c.floor &^ (width - 1)) + width
	start := c.bucketOf(c.floor)
	k := 0
	for w := 0; w < len(c.buckets); w++ {
		j := (start + w) & c.mask
		for _, e := range c.buckets[j][c.heads[j]:] {
			if e.when >= top {
				break
			}
			sample[k] = e.when
			k++
			if k == calSample {
				c.stats.CalibrationVisits += calSample
				return k
			}
		}
		top += width
	}
	c.stats.CalibrationVisits += uint64(k)
	return k
}

// sampleScan fills sample with the calSample smallest times by
// insertion into a sorted window over every live entry: O(n), the
// fallback for queues whose current year is too sparse to sample.
func (c *calendarQueue) sampleScan(sample *[calSample]Time) int {
	k := 0
	for j, b := range c.buckets {
		for _, e := range b[c.heads[j]:] {
			w := e.when
			if k == calSample {
				if w >= sample[k-1] {
					continue
				}
				k--
			}
			i := k
			for i > 0 && sample[i-1] > w {
				sample[i] = sample[i-1]
				i--
			}
			sample[i] = w
			k++
		}
	}
	c.stats.CalibrationVisits += uint64(c.n)
	return k
}

// health returns the cumulative queue-health counters.
func (c *calendarQueue) health() QueueHealth { return c.stats }

// insertionSort restores ascending (when, seq) order; buckets are short
// and nearly sorted after redistribution, which is insertion sort's
// best case.
func insertionSort(b []entry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for j > 0 && entryLess(e, b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = e
	}
}
