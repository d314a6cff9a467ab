// Command perfbench is the served-path benchmark: it stands up real
// internal/service nodes on loopback listeners, drives them with one
// seeded workload, checks every answer, and prints the workload's metrics.
//
//	perfbench --workload fig6-cold|lookup-warm|ingest-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times (setup_s is their
// median), runs it untraced for S seconds and prints the end-to-end
// metrics. With --trace 1 it runs the workload untraced and then traced,
// S/2 seconds each on fresh nodes, and prints the per-layer metrics the
// traced half's spans and /metrics deltas give, after checking that both
// halves made the same accesses and gave the same answers. Report lines
// come first; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, …}}
//
// A wrong answer (or a traced run that disagrees with the untraced one)
// makes correct false and the exit code 1. Files the run writes — WAL
// directories, the span dump of a traced run — go under .bench_build/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// A --trace 0 run sets its workload up at least minSetups times, and
// again until minSetupTime has gone into setups (at most maxSetups), each
// from a freshly collected heap; setup_s is the median.
const (
	minSetups    = 5
	maxSetups    = 50
	minSetupTime = time.Second
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig6-cold, lookup-warm or ingest-churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	s, ok := specOf(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig6-cold|lookup-warm|ingest-churn --seed N --seconds S --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := benchmark(ctx, s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(ctx context.Context, s spec, seed int64, dur time.Duration) (workload, error) {
	switch s.name {
	case "fig6-cold":
		return newFig6Cold(ctx, seed)
	case "lookup-warm":
		return newLookupWarm(ctx, seed, dur.Seconds())
	default:
		return newIngestChurn(seed), nil
	}
}

func benchmark(ctx context.Context, s spec, seed int64, dur time.Duration, traced bool) (*result, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d-%d", s.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(ctx, s, seed, dur)
	if err != nil {
		return nil, err
	}
	record(s, seed, dur, traced, w)
	c := newClient()
	defer c.close()
	if traced {
		return tracedRun(ctx, s, seed, w, c, dir, dur)
	}
	return untracedRun(ctx, s, w, c, dir, dur)
}

// record prints the reproducibility record of the run.
func record(s spec, seed int64, dur time.Duration, traced bool, w workload) {
	rec := map[string]any{
		"workload": s.name, "seed": seed, "seconds": dur.Seconds(), "traced": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
		"min_setups": minSetups, "tail_percentile": s.tailPct, "workload_config": w.config(),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("record %s\n", b)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func untracedRun(ctx context.Context, s spec, w workload, c *client, dir string, dur time.Duration) (*result, error) {
	var setups []float64
	var d *deployment
	for spent := 0.0; len(setups) < minSetups || (spent < minSetupTime.Seconds() && len(setups) < maxSetups); spent += setups[len(setups)-1] {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = w.setup(ctx, dir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p, err := measure(ctx, w, d, c, dur)
	if err != nil {
		d.close()
		return nil, err
	}
	wrong := w.check(p)
	var drift []string
	if s.name == "fig6-cold" {
		drift = accessDrift(w.texts(), p)
	}
	gated, extra := endToEnd(s, setups, p, len(wrong))
	res := &result{
		Correct:   len(wrong) == 0 && len(drift) == 0,
		Attempted: p.attempted(),
		Failed:    p.failed() + len(wrong),
		Metrics:   make(map[string]jsonMetric),
	}
	// The heap is the nodes': measured while they are up, once the run's
	// request records, which grow with its throughput, are dropped.
	p = nil
	gated = append(gated, heapMetric(liveHeapMB()))
	if err := d.close(); err != nil {
		return nil, err
	}
	report(s.name, append(gated, extra...))
	problems(s.name, "wrong answer", wrong)
	problems(s.name, "fidelity", drift)
	for _, m := range gated {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

func tracedRun(ctx context.Context, s spec, seed int64, w workload, c *client, dir string, dur time.Duration) (*result, error) {
	half := dur / 2
	d, err := w.setup(ctx, dir, nil)
	if err != nil {
		return nil, err
	}
	untraced, err := measure(ctx, w, d, c, half)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	if d, err = w.setup(ctx, dir, tr); err != nil {
		return nil, err
	}
	traced, err := measure(ctx, w, d, c, half)
	var prepUS []float64
	if err == nil {
		prepUS = timePrepare(d.nodes[0], w.texts(), tr)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", s.name, seed)),
		tr.between(0, math.MaxInt64)); err != nil {
		return nil, err
	}
	// The per-layer metrics see only the timed phase, not setup's warm-up.
	from := tr.at(traced.start)
	spans := tr.between(from, from+int64(traced.elapsed))

	wrong := append(w.check(untraced), w.check(traced)...)
	fid := fidelity(s.name, untraced, traced, spans, w.texts())
	sent := make([]string, 0, len(traced.queries))
	for _, q := range traced.queries {
		sent = append(sent, w.texts()[q.text])
	}
	layers := perLayer(layerInput{
		traced: traced, untraced: untraced, spans: spans, prepareUS: prepUS,
		planMisses: fifoMisses(sent, lookupPlanCap), planRequests: len(sent),
	})
	report(s.name, layers)
	problems(s.name, "wrong answer", wrong)
	problems(s.name, "fidelity", fid)
	res := &result{
		Correct:   len(wrong) == 0 && len(fid) == 0,
		Attempted: untraced.attempted() + traced.attempted(),
		Failed:    untraced.failed() + traced.failed() + len(wrong),
		Metrics:   make(map[string]jsonMetric),
	}
	for _, m := range layers {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

// timePrepare times System.Prepare / PrepareUCQ on the node's system for
// every distinct text — repeated, when there are few texts, to give at
// least 60 samples — and records each as a span.
func timePrepare(n *node, texts []string, tr *tracer) []float64 {
	reps := max(1, 60/len(texts))
	var us []float64
	for _, text := range texts {
		for r := 0; r < reps; r++ {
			start := tr.now()
			if _, err := prepare(n.sys, text); err != nil {
				continue // the service served this text, so it plans
			}
			end := tr.now()
			tr.add(span{Node: n.name, Kind: kindPrepare, Start: start, End: end})
			us = append(us, nsToUS(end-start))
		}
	}
	return us
}

// report prints one line per metric: workload, name, value, unit, sample
// count and a note.
func report(workload string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("metric %s %s = %.6g %s (n=%d)", workload, m.name, m.value, m.unit, m.n)
		if note := strings.TrimSpace(m.note); note != "" {
			line += " " + note
		}
		fmt.Println(line)
	}
}

// problems prints at most ten lines of one kind and a count of the rest.
func problems(workload, kind string, lines []string) {
	for i, l := range lines {
		if i == 10 {
			fmt.Printf("%s %s: … %d more\n", kind, workload, len(lines)-10)
			break
		}
		fmt.Printf("%s %s: %s\n", kind, workload, l)
	}
}
