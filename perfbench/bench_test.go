package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"toorjah/internal/load"
	"toorjah/internal/obs"
	"toorjah/internal/storage"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	d := newDist(xs)
	if got := d.pct(50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := d.pct(90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := beyond(len(d), 90); got != 10 {
		t.Errorf("samples beyond p90 of 100 = %d, want 10", got)
	}
	if !d.resolved(90) || d.resolved(99) {
		t.Errorf("100 samples: p90 resolved %v (want true), p99 resolved %v (want false)", d.resolved(90), d.resolved(99))
	}
	if got := newDist(nil).pct(50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	if got := windows(150, 50); got != 1 {
		t.Errorf("windows(150, p50) = %d, want 1 (below one full window)", got)
	}
	if got := windows(6000, 99); got != 5 {
		t.Errorf("windows(6000, p99) = %d, want 5", got)
	}
	if got := windows(3000, 99); got != 3 {
		t.Errorf("windows(3000, p99) = %d, want 3 (each window keeps 10 samples beyond p99)", got)
	}
	// Five windows of 1000; one burst window is slow. Its p99 is ignored.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000) / 100 // 0 … 9.99 in every window
		if i >= 2000 && i < 3000 {
			xs[i] += 100
		}
	}
	if got, want := windowedPct(xs, 99), newDist(xs[:1000]).pct(99); got != want {
		t.Errorf("windowed p99 = %g, want the calm windows' %g", got, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {30, 60}, // parallel probes overlapping each other
		{20, 25},   // nested inside another child
		{80, 120},  // running past the parent's end
		{200, 300}, // outside the parent
	}
	if got := coveredWithin(parent, children); got != 70 {
		t.Errorf("covered = %d, want 70 ([10,60] + [80,100])", got)
	}
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestOpenLoopTiming(t *testing.T) {
	ms := time.Millisecond
	// Sent 5ms late behind a stalled request: the stall counts.
	lat, late := openLoopTiming(10*ms, 15*ms, 20*ms)
	if lat != 10*ms || late != 5*ms {
		t.Errorf("late send: latency %v late %v, want 10ms 5ms", lat, late)
	}
	// On time: latency is the service time, lateness zero.
	lat, late = openLoopTiming(10*ms, 10*ms, 12*ms)
	if lat != 2*ms || late != 0 {
		t.Errorf("on-time send: latency %v late %v, want 2ms 0s", lat, late)
	}
	// A timer that fires a hair early is not negative lateness.
	if _, late = openLoopTiming(10*ms, 9*ms, 12*ms); late != 0 {
		t.Errorf("early send: late %v, want 0s", late)
	}
	rec := queryRec{due: 10 * ms, sent: 15 * ms, first: 17 * ms, end: 20 * ms}
	if rec.latency() != 10*ms || rec.firstAnswer() != 7*ms {
		t.Errorf("record: latency %v first answer %v, want 10ms 7ms", rec.latency(), rec.firstAnswer())
	}
}

func digestDB(db *storage.Database, names ...string) string {
	var parts []string
	for _, n := range names {
		var rows [][]string
		for _, r := range db.Table(n).Snapshot().Rows() {
			rows = append(rows, r)
		}
		parts = append(parts, n+":"+load.HashAnswers(rows))
	}
	return strings.Join(parts, " ")
}

func TestSeedDeterminism(t *testing.T) {
	rels := []string{"pub1", "pub2", "conf", "rev", "sub", "rev_icde"}
	_, a := fig6Data(1)
	_, b := fig6Data(1)
	_, c := fig6Data(2)
	if digestDB(a, rels...) != digestDB(b, rels...) {
		t.Error("fig6-cold: the same seed gave different data")
	}
	if digestDB(a, rels...) == digestDB(c, rels...) {
		t.Error("fig6-cold: different seeds gave the same data")
	}
	for _, r := range rels {
		if x, y := a.Table(r).Snapshot().Len(), c.Table(r).Snapshot().Len(); x != y {
			t.Errorf("fig6-cold: relabelling changed %s from %d to %d rows", r, x, y)
		}
	}

	_, db1 := lookupData(1)
	t1, s1 := lookupSequence(1, db1, 500)
	_, db1b := lookupData(1)
	t1b, s1b := lookupSequence(1, db1b, 500)
	if !reflect.DeepEqual(t1, t1b) || !reflect.DeepEqual(s1, s1b) {
		t.Error("lookup-warm: the same seed gave different requests")
	}
	_, db2 := lookupData(2)
	if t2, _ := lookupSequence(2, db2, 500); reflect.DeepEqual(t1, t2) {
		t.Error("lookup-warm: different seeds gave the same requests")
	}

	w1, w1b, w2 := newIngestChurn(1), newIngestChurn(1), newIngestChurn(2)
	if w1.base != w1b.base || !reflect.DeepEqual(w1.vals, w1b.vals) {
		t.Error("ingest-churn: the same seed gave different inputs")
	}
	if w1.base == w2.base && reflect.DeepEqual(w1.vals, w2.vals) {
		t.Error("ingest-churn: different seeds gave the same inputs")
	}
}

func TestChurnWindowStates(t *testing.T) {
	for _, c := range []struct {
		p      int64
		lo, hi int
	}{
		{0, 0, churnWindow},
		{1, 0, churnWindow + churnBatch},          // first insert applied
		{2, churnBatch, churnWindow + churnBatch}, // its delete applied
		{3, churnBatch, churnWindow + 2*churnBatch},
		{4, 2 * churnBatch, churnWindow + 2*churnBatch},
	} {
		if lo, hi := window(c.p); lo != c.lo || hi != c.hi {
			t.Errorf("window(%d) = [%d, %d), want [%d, %d)", c.p, lo, hi, c.lo, c.hi)
		}
	}
	w := newIngestChurn(7)
	if w.expected(0, 2) == w.expected(0, 4) {
		t.Error("consecutive full windows have the same expected answers")
	}
}

const exposition0 = `# HELP toorjah_cache_hits_total Hits.
# TYPE toorjah_cache_hits_total counter
toorjah_cache_hits_total{relation="a"} 3
toorjah_cache_hits_total{relation="b"} 4
`

const exposition1 = `# HELP toorjah_cache_hits_total Hits.
# TYPE toorjah_cache_hits_total counter
toorjah_cache_hits_total{relation="a"} 10
toorjah_cache_hits_total{relation="b"} 4
toorjah_cache_hits_total{relation="c,d"} 2
# HELP toorjah_remote_retries_total Retries.
# TYPE toorjah_remote_retries_total counter
toorjah_remote_retries_total{peer="http://x",relation="a"} 5
`

func TestScrapeDelta(t *testing.T) {
	before, err := obs.ParseExposition(strings.NewReader(exposition0))
	if err != nil {
		t.Fatal(err)
	}
	after, err := obs.ParseExposition(strings.NewReader(exposition1))
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeDelta(before, after, famCacheHits, famRemoteRetries, famCacheMisses)
	want := map[string]float64{famCacheHits: 9, famRemoteRetries: 5, famCacheMisses: 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deltas = %v, want %v", got, want)
	}
}

func TestFIFOMisses(t *testing.T) {
	// Capacity 2: a, b planned; a hits; c evicts a; a is planned again.
	if got := fifoMisses([]string{"a", "b", "a", "c", "a", "c"}, 2); got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads, the same metrics in the same order with the same units, and
// the workload shapes its reasons state.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []listedMetric `json:"end_to_end"`
		PerLayer  []listedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if _, ok := specOf(w.Name); !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	for _, s := range specs {
		if listed[s.name] != s.listed {
			t.Errorf("workload %s: listed in BENCHMARK.json %v, the program says %v", s.name, listed[s.name], s.listed)
		}
	}
	// The names and units each kind of run reports, from an empty phase.
	empty, err := obs.ParseExposition(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	p := &phase{elapsed: time.Second, before: []*obs.Scrape{empty}, after: []*obs.Scrape{empty}}
	gated, _ := endToEnd(specs[0], []float64{1}, p, 0)
	gated = append(gated, heapMetric(1))
	for name, c := range map[string]struct {
		listed []listedMetric
		got    []metric
	}{
		"end_to_end": {b.EndToEnd, gated},
		"per_layer":  {b.PerLayer, perLayer(layerInput{traced: p, untraced: p})},
	} {
		if len(c.listed) != len(c.got) {
			t.Errorf("%s lists %d metrics, the program reports %d", name, len(c.listed), len(c.got))
			continue
		}
		for i, m := range c.got {
			if l := c.listed[i]; l.Name != m.name || l.Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), the program reports %s (%s)", name, i, l.Name, l.Unit, m.name, m.unit)
			}
		}
	}
	why := make(map[string]string)
	for _, w := range b.Workloads {
		why[w.Name] = w.Why
	}
	for name, facts := range map[string][]string{
		"lookup-warm": {fmt.Sprintf("%d/s", lookupRate), fmt.Sprintf("%d in flight", lookupWorkers),
			fmt.Sprintf("%d ms", lookupSLO.Milliseconds()), "65536-entry cache", fmt.Sprintf("%d plans", lookupPlanCap)},
		"ingest-churn": {"fsync " + churnFsync, fmt.Sprintf("every %d s", int(churnSnapshot.Seconds())),
			fmt.Sprintf("%d-row", churnBatch), fmt.Sprintf("every %d ms", churnStep.Milliseconds()),
			fmt.Sprintf("%d-row window", churnWindow), fmt.Sprintf("query every %d ms", churnQueryGap.Milliseconds()),
			fmt.Sprintf("mod %d", churnRange), fmt.Sprintf("%d-entry cache", churnCache)},
	} {
		for _, f := range facts {
			if !strings.Contains(why[name], f) {
				t.Errorf("%s: BENCHMARK.json's reason does not state %q", name, f)
			}
		}
	}
}

// listedMetric is a metric as BENCHMARK.json lists it.
type listedMetric struct{ Name, Unit string }
