package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// Per-layer self time from a runtime/pprof CPU profile. Each sample is
// charged to one layer: to gc when a background GC worker or sweeper
// runs it, otherwise to the innermost frame that belongs to a repo
// package. Runtime frames such as memmove and mallocgc therefore count
// for the repo code that called them. Samples with no repo frame at all
// (scheduler, net/http, this benchmark's own loops) go to other.

// layers are the buckets of the self-time split, in report order. The
// repo packages not named here (frame, traffic, misbehave, faults,
// trace, analytic) are small or off the measured paths and count as
// other.
var layers = []string{"sim", "medium", "mac", "core", "rng", "phys", "obs", "stats",
	"experiment", "topo", "serve", "atomicio", "gc", "other"}

// gcRoots are runtime functions whose samples are garbage-collector
// work no matter which goroutine's stack they run on.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a sample with the given stack is charged
// to; stack lists function names from the leaf outwards.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// repoLayer maps a fully qualified function name to its layer, "" for
// a function outside the simulator's packages.
func repoLayer(fn string) string {
	const internal = "dcfguard/internal/"
	if strings.HasPrefix(fn, "dcfguard.") {
		return "experiment" // the public facade forwards to experiment
	}
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	pkg, _, _ := strings.Cut(fn[len(internal):], ".")
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// split is the CPU time of a profile per layer.
type split struct {
	ns    map[string]int64
	total int64
}

// report fills <layer>.self_ms (CPU ms per measured run) and
// <layer>.share for every layer.
func (s split) report(m map[string]metric, runs int) {
	for _, l := range layers {
		m[l+".self_ms"] = metric{float64(s.ns[l]) / 1e6 / float64(max(runs, 1)), "ms"}
		m[l+".share"] = metric{float64(s.ns[l]) / float64(max(s.total, 1)), "frac"}
	}
}

// add merges another split into s.
func (s *split) add(o split) {
	for l, ns := range o.ns {
		s.ns[l] += ns
	}
	s.total += o.total
}

// alternate runs op in pairs, first plain and then under CPU profiling,
// until the budget is spent and at least minPairs pairs ran, so host
// drift hits both sides alike. op(i) performs the i-th pair's operation
// and returns its wall time, ok false when it failed. It returns the
// wall times of each side and the profiled side's merged layer split.
func alternate(budget float64, minPairs int, op func(i int) (float64, bool)) (plain, traced []float64, sp split, err error) {
	sp.ns = make(map[string]int64)
	t0 := time.Now()
	for i := 0; elapsed(t0) < budget || i < minPairs; i++ {
		if wall, ok := op(i); ok {
			plain = append(plain, wall)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, split{}, err
		}
		wall, ok := op(i)
		pprof.StopCPUProfile()
		if ok {
			traced = append(traced, wall)
		}
		one, err := layerSplit(prof.Bytes())
		if err != nil {
			return nil, nil, split{}, err
		}
		sp.add(one)
	}
	return plain, traced, sp, nil
}

// layerSplit charges every sample of a gzipped pprof CPU profile to its
// layer.
func layerSplit(gz []byte) (split, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return split{}, err
	}
	out := split{ns: make(map[string]int64)}
	for _, smp := range p.samples {
		var stack []string
		for _, id := range smp.locs {
			stack = append(stack, p.locs[id]...)
		}
		l := layerOf(stack)
		out.ns[l] += smp.cpuNs
		out.total += smp.cpuNs
	}
	return out, nil
}

// profile is the part of a pprof profile the split needs.
type profile struct {
	samples []sample
	locs    map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs  []uint64
	cpuNs int64
}

// parseProfile decodes the profile.proto fields the split reads:
// samples (location ids, values), locations (lines -> function ids),
// functions (name string index) and the string table. A CPU profile's
// second sample value is CPU nanoseconds.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawLoc struct {
		id    uint64
		funcs []uint64
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{} // function id -> name string index
		locs    []rawLoc
		samples []sample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []int64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a CPU value")
			}
			s.cpuNs = vals[1]
			samples = append(samples, s)
		case 4: // Location
			var l rawLoc
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					l.id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs = append(locs, l)
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locs: make(map[uint64][]string, len(locs))}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i, ok := funcs[f]; ok && i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locs[l.id] = names
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (body) or not (v).
func appendVarints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := varint(body)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
