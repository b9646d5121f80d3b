package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dcfguard/internal/experiment"
	"dcfguard/internal/serve"
)

// The serve-sweep workload: an in-process daemon with one worker per
// CPU, driven over its HTTP API by one closed-loop client that submits
// a job, follows its SSE stream to the terminal state, checks the
// results artifact, and only then submits the next job.

const (
	// jobCells is the number of cells (seeds) in one job.
	jobCells = 16
	// retainJobs bounds the terminal jobs the daemon keeps on disk, so
	// the data directory a restart recovers has a fixed size.
	retainJobs = 8
)

// cellSpec is one serve-sweep cell: the star-correct scenario cut to
// 2 simulated seconds, so daemon work is a visible share of a cell.
func cellSpec() experiment.ScenarioSpec {
	return experiment.ScenarioSpec{
		Name:     "star-correct-2s",
		Topo:     experiment.TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{3}},
		Protocol: "CORRECT",
		PM:       80,
		Duration: "2s",
	}
}

// daemon is one in-process dcfserved: the serve core behind an HTTP
// server on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.NewServer(serve.Options{DataDir: dir, Workers: runtime.NumCPU(), Retain: retainJobs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the HTTP side (ending open streams), drains the workers
// and waits for the server goroutine to return.
func (d *daemon) stop() {
	d.hs.Close()
	d.srv.Shutdown()
	<-d.done
}

// client is the closed-loop client: at most two connections, one for
// requests and one for the event stream.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

// get fetches url and returns the body of a 200 response.
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// ready polls /readyz until it answers 200.
func (c *client) ready(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.get(base + "/readyz"); err == nil {
			return nil
		}
	}
	return errors.New("daemon not ready within 30 s")
}

// jobRun is what the client saw of one job.
type jobRun struct {
	rss       float64 // peak resident MiB while the job ran
	submit    float64 // POST /jobs until acknowledged, s
	firstCell float64 // submit to the first cell event, s
	span      float64 // submit to the terminal state event, s
	lastCell  float64 // submit to the last cell event, s
	cells     int     // cell events seen
	results   []experiment.Result
}

// runJob submits one job and follows it to its terminal state.
func (c *client) runJob(base, name string, seeds []uint64) (jobRun, error) {
	var jr jobRun
	spec, err := json.Marshal(serve.JobSpec{Name: name, Scenario: cellSpec(), SeedList: seeds})
	if err != nil {
		return jr, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jr, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	jr.submit = elapsed(t0)
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("submit %s: %s", name, resp.Status)
	}

	resp, err = c.hc.Get(base + "/jobs/" + name + "/events")
	if err != nil {
		return jr, err
	}
	state, err := followEvents(resp.Body, t0, &jr)
	resp.Body.Close()
	if err != nil {
		return jr, fmt.Errorf("events of %s: %w", name, err)
	}
	if state != serve.StateDone {
		return jr, fmt.Errorf("job %s ended %s", name, state)
	}
	body, err := c.get(base + "/jobs/" + name + "/artifacts/results.json")
	if err != nil {
		return jr, err
	}
	return jr, json.Unmarshal(body, &jr.results)
}

// followEvents reads an SSE stream until a terminal state event,
// recording cell timings relative to t0, and returns the final state.
func followEvents(r io.Reader, t0 time.Time, jr *jobRun) (string, error) {
	br := bufio.NewReader(r)
	var kind, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream ended before a terminal state: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			at := elapsed(t0)
			switch kind {
			case "cell":
				if jr.cells == 0 {
					jr.firstCell = at
				}
				jr.lastCell = at
				jr.cells++
			case "state":
				var st struct{ State string }
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return "", err
				}
				switch st.State {
				case serve.StateDone, serve.StateFailed, serve.StateDegraded:
					jr.span = at
					return st.State, nil
				}
			}
			kind, data = "", ""
		}
	}
}

// sweep is the outcome of a closed-loop series of jobs.
type sweep struct {
	jobs   []jobRun
	events uint64
	rates  []float64 // events per second of each job span
}

// runJobs submits jobs one after another until the budget is spent and
// at least minJobs ran, checking every cell result.
func runJobs(c *client, d *daemon, prefix string, seeds []uint64, budget float64, minJobs int, chk *checker, t *tally) sweep {
	var sw sweep
	t0 := time.Now()
	for i := 0; elapsed(t0) < budget || i < minJobs; i++ {
		resetPeakRSS()
		jr, err := c.runJob(d.base, fmt.Sprintf("%s-%d", prefix, i), seeds)
		jr.rss = peakRSSMB()
		if err != nil {
			for range seeds {
				t.add(err)
			}
			continue
		}
		var events uint64
		for _, r := range jr.results {
			t.add(chk.check(r))
			events += r.EventsFired
		}
		sw.jobs = append(sw.jobs, jr)
		sw.events += events
		sw.rates = append(sw.rates, float64(events)/jr.span)
	}
	return sw
}

// pick returns one number per job.
func (sw sweep) pick(f func(jobRun) float64) []float64 {
	out := make([]float64, len(sw.jobs))
	for i, j := range sw.jobs {
		out[i] = f(j)
	}
	return out
}

// runServe runs the serve-sweep workload.
func runServe(o options) (result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	s, err := cellSpec().ToScenario()
	if err != nil {
		return result{}, err
	}
	seeds := cellSeeds(o.seed, jobCells)
	chk := newChecker(references["serve-sweep"], s.PayloadBytes, nil)
	var t tally
	c := newClient()
	defer c.tr.CloseIdleConnections()

	// A first pass fills the data directory up to the retention bound;
	// set-up is then the restart on what it left behind.
	d, err := startDaemon(dir)
	if err != nil {
		return result{}, err
	}
	runJobs(c, d, fmt.Sprintf("warm-%d", o.seed), seeds, 0, retainJobs, chk, &t)
	var setups []float64
	for i := 0; i < 21; i++ {
		d.stop()
		c.tr.CloseIdleConnections()
		t0 := time.Now()
		if d, err = startDaemon(dir); err != nil {
			return result{}, err
		}
		if err := c.ready(d.base); err != nil {
			d.stop()
			return result{}, err
		}
		setups = append(setups, elapsed(t0))
	}
	defer func() { d.stop() }()

	res := result{Metrics: map[string]metric{}}
	prefix := fmt.Sprintf("sweep-%d", o.seed)
	if !o.trace {
		a0 := totalAlloc()
		sw := runJobs(c, d, prefix, seeds, o.seconds, 2, chk, &t)
		alloc := totalAlloc() - a0
		verifyDirect(s, seeds, chk, &t)
		res.Attempted, res.Failed = t.attempted, t.failed
		res.Metrics["events_per_sec"] = metric{median(sw.rates), "1/s"}
		res.Metrics["job_s_p50"] = metric{median(sw.pick(func(j jobRun) float64 { return j.span })), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["alloc_bytes_per_event"] = metric{float64(alloc) / float64(max(sw.events, 1)), "B"}
		res.Metrics["max_rss_mb"] = metric{median(sw.pick(func(j jobRun) float64 { return j.rss })), "MiB"}
		for _, x := range []struct {
			name string
			f    func(jobRun) float64
		}{
			{"job span s", func(j jobRun) float64 { return j.span }},
			{"cells per s", func(j jobRun) float64 { return float64(len(j.results)) / j.span }},
			{"submit s", func(j jobRun) float64 { return j.submit }},
			{"first cell s", func(j jobRun) float64 { return j.firstCell }},
		} {
			v := sw.pick(x.f)
			fmt.Fprintf(os.Stderr, "perfbench: %s: p50=%.6g %s\n", x.name, median(v), tailLabel(v))
		}
		return res, nil
	}

	res.Metrics = perLayerZero()
	var all sweep
	calls := 0
	plain, traced, split, err := alternate(o.seconds/2, 2, func(int) (float64, bool) {
		calls++ // every call submits a job of its own name
		sw := runJobs(c, d, fmt.Sprintf("%s-%d", prefix, calls), seeds, 0, 1, chk, &t)
		all.jobs = append(all.jobs, sw.jobs...)
		if len(sw.jobs) == 0 {
			return 0, false
		}
		return sw.jobs[0].span, true
	})
	if err != nil {
		return result{}, err
	}
	split.report(res.Metrics, len(traced))
	res.Metrics["trace.overhead_frac"] = metric{overhead(traced, plain), "frac"}
	res.Metrics["serve.submit_ms"] = metric{1e3 * median(all.pick(func(j jobRun) float64 { return j.submit })), "ms"}
	res.Metrics["serve.first_cell_ms"] = metric{1e3 * median(all.pick(func(j jobRun) float64 { return j.firstCell })), "ms"}
	// Cell events reach the client in bursts (workers finish equal cells
	// together), so the gap is the mean over a job: first to last cell
	// event over the gaps between them.
	res.Metrics["serve.cell_gap_ms"] = metric{1e3 * median(all.pick(func(j jobRun) float64 {
		return (j.lastCell - j.firstCell) / float64(max(j.cells-1, 1))
	})), "ms"}

	cellJSON, err := json.Marshal(firstResult(all))
	if err != nil {
		return result{}, err
	}
	wdir := filepath.Join(dir, "write-driver")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return result{}, err
	}
	wms, err := writeDriver(wdir, len(cellJSON))
	if err != nil {
		return result{}, err
	}
	res.Metrics["atomicio.write_ms"] = metric{wms, "ms"}

	body, err := c.get(d.base + "/metrics")
	if err != nil {
		return result{}, err
	}
	for _, name := range []string{"cells_retried", "cells_failed", "admission_rejected"} {
		v, err := promCounter(body, "dcf_serve_"+name+"_total")
		if err != nil {
			return result{}, err
		}
		res.Metrics["serve."+name] = metric{v, "count"}
	}
	verifyDirect(s, seeds, chk, &t)
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}

// firstResult returns the first cell result of a sweep (the zero Result
// when none succeeded).
func firstResult(sw sweep) experiment.Result {
	for _, j := range sw.jobs {
		if len(j.results) > 0 {
			return j.results[0]
		}
	}
	return experiment.Result{}
}

// verifyDirect runs every cell seed without a reference digest directly
// through experiment.Run and compares with what the daemon returned.
func verifyDirect(s experiment.Scenario, seeds []uint64, chk *checker, t *tally) {
	for _, seed := range seeds {
		if _, ok := chk.refs[seed]; ok {
			continue
		}
		r, _, err := runCell(s, seed)
		if err == nil {
			if d := digest(r, chk.payload); d != chk.seen[seed] {
				err = fmt.Errorf("seed %d: direct run digest %s, daemon %s", seed, d, chk.seen[seed])
			}
		}
		t.add(err)
	}
}

// promCounter reads an unlabelled counter from Prometheus text; a
// counter the daemon never registered reads as 0.
func promCounter(text []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, nil
}
