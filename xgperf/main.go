// Command xgperf is the repository benchmark: wall-clock HTTP serving of
// the xgserve gateway, end to end and per layer.
//
//	bash xgperf/run.sh --workload schema-churn --seed 1 --seconds 40 --trace 0
//
// Each run starts an in-process gateway (server.New behind a net/http
// listener on 127.0.0.1, xgserve's defaults with GPUStep 0 and tracing off)
// and drives it from the same process through at most GOMAXPROCS
// keep-alive connections: an open phase of seeded Poisson arrivals, then a
// closed phase of back-to-back clients. Every output is checked by an
// oracle that does not use the grammar engine.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 a separate traced run reports the per-layer metrics and writes
// its spans to the --spans directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run sets up at least minSetups times and until setups have taken
// minSetupTime, at most maxSetups times; setup_s is their median. Small
// vocabularies set up in a third of a second, where three samples spread
// too much.
const (
	minSetups    = 3
	maxSetups    = 9
	minSetupTime = 3 * time.Second
)

func main() {
	wname := flag.String("workload", "", "workload: schema-hot, schema-churn, agent-mix, or all (each in turn)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "measured seconds per run (open + closed phase)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "directory for span dumps of traced runs (empty: none)")
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	run := []*workload{}
	if *wname == "all" {
		run = workloads
	} else {
		w, err := workloadByName(*wname)
		if err != nil {
			fatal(err)
		}
		run = append(run, w)
	}
	for _, w := range run {
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = runTraced(w, *seed, *seconds, *spans)
		} else {
			rep, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.print()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xgperf:", err)
	os.Exit(1)
}

// report is a run's printed outcome.
type report struct {
	lines     []string
	attempted int
	failed    int
	correct   bool
	m         *metrics
}

func (r *report) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines, then the result object as the
// last line of stdout.
func (r *report) print() {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, n := range r.m.names {
		fmt.Printf("%-34s %14.4f %s\n", n, r.m.m[n].Value, r.m.m[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.m.m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// runEndToEnd sets up several times (keeping the last gateway), runs
// the open and closed phases untraced, checks every output, and reports the
// end-to-end metrics.
func runEndToEnd(w *workload, seed int64, seconds float64) (*report, error) {
	p := makePlan(w, seed, seconds)
	conns := runtime.GOMAXPROCS(0)
	client := newClient(conns)
	defer client.CloseIdleConnections()

	var su *setup
	var setupS []float64
	var setupTotal time.Duration
	for i := 0; i < maxSetups && (i < minSetups || setupTotal < minSetupTime); i++ {
		if su != nil {
			su.gw.close()
			client.CloseIdleConnections()
		}
		// Each set-up, and each phase below, starts from a collected heap
		// with free memory returned to the OS, so that garbage and free spans
		// left by the one before do not bill it.
		debug.FreeOSMemory()
		var err error
		if su, err = runSetup(client, p); err != nil {
			return nil, err
		}
		setupS = append(setupS, secs(su.took))
		setupTotal += su.took
	}
	defer su.gw.close()
	if err := p.buildBodies(su.ids); err != nil {
		return nil, err
	}

	debug.FreeOSMemory()
	open := runOpen(client, su.gw.url, p.open, false)
	debug.FreeOSMemory()
	closed, err := runClosed(client, su.gw.url, p.closed, conns, closedSegments(p.closedSeconds), false)
	if err != nil {
		return nil, err
	}

	rep := &report{m: newMetrics(), correct: true}
	for _, ph := range []*phase{open, closed} {
		for _, r := range ph.results {
			p.check(r)
			r.raw = nil
		}
		c := ph.counts()
		rep.attempted += c.sent
		rep.failed += c.failed
		rep.addf("phase %-6s %s wall=%.2fs", ph.name, c, secs(ph.wall))
		for _, r := range ph.results {
			if r.failure != "" {
				rep.correct = false
				rep.addf("  failed seed=%d %s: %v", r.req.seed, r.failure, r.err)
				break
			}
		}
	}
	rep.addf("workload %s seed %d vocab %d: %d open requests at %.0f/s, %d closed requests, %d clients",
		w.name, seed, w.vocab, len(p.open), w.openRate, len(p.closed), conns)
	rep.addf("open-phase generator lag p50 %.3f ms, p99 %.3f ms", quantile(durMS(open.lag), 0.50), quantile(durMS(open.lag), 0.99))
	rep.addf("digest %s", digest(append(append([]*result(nil), open.results...), closed.results...)))

	m := rep.m
	m.set("setup_s", "s", median(setupS))
	// Open-phase timings, from the due time.
	var ttft, lat []float64
	for _, r := range open.results {
		if r.failure != "" {
			ttft, lat = append(ttft, inf), append(lat, inf)
			continue
		}
		ttft = append(ttft, ms(r.first.Sub(r.origin)))
		lat = append(lat, ms(r.done.Sub(r.origin)))
	}
	// Open-phase latencies are printed, not reported as metrics: over ten
	// runs on two vCPUs their spread was 0.3-0.9 of the median at p90 and up
	// to 0.48 at p50, wider than any bound a regression gate may use (see
	// LAYERS.md).
	rep.addf("open phase, %d requests: ttft p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		len(ttft), quantile(ttft, 0.50), quantile(ttft, 0.90), quantile(ttft, 0.99),
		quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99))
	// Closed-phase throughput is over the segments' time scaled to the
	// reference speed (see refspeed.go). The wall-time
	// rates are printed, not reported as metrics: they move with the host's
	// speed by more than any bound a gate may use.
	rt := closed.rates()
	rep.addf("closed phase, %d segments: tok_s %.1f tok/s, req_s %.2f req/s (wall time); reference run %.3f ms (median)",
		len(closed.segments), rt.tokS, rt.reqS, rt.refMS)
	m.set("tok_s_ref", "tok/s", rt.tokSRef)
	m.set("req_s_ref", "req/s", rt.reqSRef)

	open, closed, p.open, p.closed = nil, nil, nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("heap_live_mb", "MB", float64(mem.HeapInuse)/(1<<20))
	sort.Float64s(setupS)
	rep.addf("setup_s samples %v", setupS)
	return rep, nil
}

var inf = math.Inf(1)
