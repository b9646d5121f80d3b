// Command perfbench is the repository benchmark: one process runs one
// named workload for a fixed wall-time budget, checks that the simulated
// outputs are correct, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload star-correct --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same workload again under CPU profiling and prints the
// per-layer metrics instead. It measures every layer from outside,
// through the packages' exported calls. See README.md beside this file
// for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one benchmark run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workload is one named measurement.
type workload struct {
	name string
	run  func(opts options) (result, error)
}

func workloads() []workload {
	return []workload{
		{"star-correct", func(o options) (result, error) { return runSim(starCorrect, o) }},
		{"random-4k", func(o options) (result, error) { return runSim(random4k, o) }},
		{"random-4k-2shard", func(o options) (result, error) { return runSim(random4k2Shard, o) }},
		{"serve-sweep", runServe},
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (star-correct, random-4k, random-4k-2shard, serve-sweep)")
		seed    = flag.Uint64("seed", 0, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "wall-time budget of the measured phase")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a profiled run instead of the end-to-end metrics")
		record  = flag.Bool("record", false, "print the reference digests of workload seeds 0-9 as Go source and exit")
	)
	flag.Parse()
	if *record {
		if err := recordReferences(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	var w *workload
	all := workloads()
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		names := make([]string, len(all))
		for i, x := range all {
			names[i] = x.name
		}
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}

	fp := fingerprint()
	fpLine, err := json.Marshal(map[string]any{"fingerprint": fp})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(fpLine))

	res, err := w.run(options{seed: *seed, seconds: *seconds, trace: *traced == 1})
	if err != nil {
		fatal(err)
	}
	res.Correct = res.Failed == 0
	printSummary(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printSummary writes a human-readable table to standard error,
// including the failed-operation fraction the result line carries as
// attempted/failed.
func printSummary(name string, res result) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: correct=%v attempted=%d failed=%d failed_frac=%.4f\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", k, m.Value, m.Unit)
	}
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process (Linux 4.0+), so peakRSSMB reads the peak of what ran since.
// Where the reset is unavailable peakRSSMB reads the process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			f := strings.Fields(line) // "VmHWM:  84204 kB"
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// overhead is the median of slow over the median of base, minus one;
// 0 when either side has no samples.
func overhead(slow, base []float64) float64 {
	if len(slow) == 0 || len(base) == 0 {
		return 0
	}
	return median(slow)/median(base) - 1
}

// tailLabel names the highest percentile of n samples that still has at
// least ten samples beyond it, with its value, for the summary.
func tailLabel(xs []float64) string {
	n := len(xs)
	if n < 20 {
		return fmt.Sprintf("n=%d (too few samples for a tail percentile)", n)
	}
	p := 100 * float64(n-10) / float64(n)
	return fmt.Sprintf("n=%d p%.0f=%.6g", n, p, quantile(xs, p/100))
}

// elapsed is the wall time since t0 in seconds.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
