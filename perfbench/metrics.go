package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"toorjah/internal/gen"
)

// metric is one reported number with its sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// spec names a workload, the highest tail percentile its rate resolves
// (reported beside the bounded p90), and whether BENCHMARK.json lists it.
// fig6-cold runs from the command line only: its timings are CPU-bound,
// and the host's CPU speed alone spread its query_p50_ms past the largest
// bound a metric may have (see README).
type spec struct {
	name    string
	tailPct float64
	listed  bool
}

var specs = []spec{
	{"fig6-cold", 90, false},
	{"lookup-warm", 99, true},
	{"ingest-churn", 99, true},
}

func specOf(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// heapMetric is the last gated metric, the live heap in MiB.
func heapMetric(mb float64) metric {
	return metric{"heap_mb", "MB", mb, 1, "live heap after a forced GC, nodes up, request records dropped"}
}

// querySamples are the latencies and times to first answer of a phase's
// completed queries, in send order (first answers only of queries that
// had answers).
func querySamples(p *phase) (lat, first []float64) {
	for _, q := range p.queries {
		if q.err != nil {
			continue
		}
		lat = append(lat, durMS(q.latency()))
		if q.answers > 0 {
			first = append(first, durMS(q.firstAnswer()))
		}
	}
	return lat, first
}

func queryDists(p *phase) (lat, first dist, okQueries int) {
	l, f := querySamples(p)
	return newDist(l), newDist(f), len(l)
}

// endToEnd computes the end-to-end metrics of an untraced phase in which
// wrong operations answered wrongly. The first group is what the final
// JSON line carries, but for heap_mb, which is measured after the phase's
// records are dropped (heapMetric); the rest is printed for the workloads
// where it exists.
func endToEnd(s spec, setups []float64, p *phase, wrong int) (gated, extra []metric) {
	latS, firstS := querySamples(p)
	lat, n := newDist(latS), len(latS)
	ops := p.ops()
	cpu := float64(p.use1.cpu-p.use0.cpu) / 1e6
	gated = []metric{
		{"setup_s", "s", newDist(setups).pct(50), len(setups), "median of the run's setups"},
		{"query_p50_ms", "ms", windowedPct(latS, 50), n, windowNote(n, 50)},
		{"queries_per_s", "1/s", float64(n) / p.elapsed.Seconds(), n, ""},
		{"cpu_ms_per_op", "ms", cpu / float64(max(ops, 1)), ops, "process CPU, client included"},
	}
	accesses := make([]float64, 0, n)
	for _, q := range p.queries {
		if q.err == nil {
			accesses = append(accesses, float64(q.done.Accesses))
		}
	}
	attempted, failed := p.attempted(), p.failed()+wrong
	// Printed, not bounded: under the host's CPU steal their run-to-run
	// spread exceeds the largest bound a metric may have (see README).
	extra = []metric{
		{"query_p90_ms", "ms", windowedPct(latS, 90), n, windowNote(n, 90) + resolvedNote(lat, 90)},
		{"first_answer_p50_ms", "ms", windowedPct(firstS, 50), len(firstS), "queries with answers" + windowNote(len(firstS), 50)},
		{"accesses_per_query", "count", mean(accesses), n, "done line accesses"},
		{"failed_frac", "ratio", float64(failed) / float64(max(attempted, 1)), attempted, "failed or wrong"},
	}
	if ticks := p.use1.hostTicks - p.use0.hostTicks; ticks > 0 {
		extra = append(extra, metric{"host_steal_frac", "ratio", float64(p.use1.stealTicks-p.use0.stealTicks) / float64(ticks),
			int(ticks), "CPU time the hypervisor gave other guests; wall-clock metrics inflate with it"})
	}
	if s.tailPct > 90 {
		extra = append(extra, metric{fmt.Sprintf("query_p%g_ms", s.tailPct), "ms", windowedPct(latS, s.tailPct), n,
			windowNote(n, s.tailPct) + resolvedNote(lat, s.tailPct)})
	}
	if s.name == "fig6-cold" {
		extra = append(extra, perText(p, gen.PublicationQueries)...)
	}
	if s.name == "lookup-warm" {
		miss := 0
		for _, q := range p.queries {
			if q.err != nil || q.latency() > lookupSLO {
				miss++
			}
		}
		extra = append(extra, metric{"slo_miss_frac", "ratio", float64(miss) / float64(max(len(p.queries), 1)),
			len(p.queries), fmt.Sprintf("limit %v at %d/s offered", lookupSLO, lookupRate)})
	}
	if len(p.ingests) > 0 {
		var ing []float64
		rows := 0
		for _, g := range p.ingests {
			if g.err == nil {
				ing = append(ing, durMS(g.end-g.start))
				rows += g.applied
			}
		}
		d := newDist(ing)
		extra = append(extra,
			metric{"ingest_p50_ms", "ms", d.pct(50), len(d), ""},
			metric{"ingest_p99_ms", "ms", d.pct(99), len(d), resolvedNote(d, 99)},
			metric{"ingest_rows_per_s", "1/s", float64(rows) / p.elapsed.Seconds(), len(d), "applied rows"})
	}
	return gated, extra
}

// perText breaks accesses, latency and time to first answer down by
// query text.
func perText(p *phase, texts []string) []metric {
	lat := make([][]float64, len(texts))
	first := make([][]float64, len(texts))
	acc := make([][]float64, len(texts))
	for _, q := range p.queries {
		if q.err == nil {
			acc[q.text] = append(acc[q.text], float64(q.done.Accesses))
			lat[q.text] = append(lat[q.text], durMS(q.latency()))
			if q.answers > 0 {
				first[q.text] = append(first[q.text], durMS(q.firstAnswer()))
			}
		}
	}
	var out []metric
	for i, t := range texts {
		name, _, _ := strings.Cut(t, "(")
		out = append(out,
			metric{"accesses_per_query[" + name + "]", "count", mean(acc[i]), len(acc[i]), ""},
			metric{"query_p50_ms[" + name + "]", "ms", newDist(lat[i]).pct(50), len(lat[i]), ""},
			metric{"first_answer_p50_ms[" + name + "]", "ms", newDist(first[i]).pct(50), len(first[i]), ""})
	}
	return out
}

// windowNote says how many windows a windowed percentile took the median
// of.
func windowNote(n int, p float64) string {
	if w := windows(n, p); w > 1 {
		return fmt.Sprintf(" [median of %d windows]", w)
	}
	return ""
}

func resolvedNote(d dist, p float64) string {
	if d.resolved(p) {
		return ""
	}
	return fmt.Sprintf(" (under-sampled: highest resolved percentile is p%g)", highestTail(len(d)))
}

// attempted counts every operation the phase started; failed those that
// errored (wrong answers are added by the caller).
func (p *phase) attempted() int { return len(p.queries) + len(p.ingests) }
func (p *phase) failed() int    { return p.attempted() - p.ops() }

// Counter families the per-layer metrics read from /metrics deltas.
const (
	famCacheHits      = "toorjah_cache_hits_total"
	famCacheMisses    = "toorjah_cache_misses_total"
	famCacheCoalesced = "toorjah_cache_coalesced_total"
	famCacheEvictions = "toorjah_cache_evictions_total"
	famSourceAccesses = "toorjah_source_accesses_total"
	famSourceTrips    = "toorjah_source_round_trips_total"
	famRemoteTrips    = "toorjah_remote_round_trips_total"
	famRemoteRetries  = "toorjah_remote_retries_total"
)

// layerInput is what the per-layer metrics are computed from: the traced
// phase and its spans, the untraced phase of the same run, and the timed
// Prepare calls.
type layerInput struct {
	traced, untraced *phase
	spans            []span
	prepareUS        []float64
	planMisses       int
	planRequests     int
}

// perLayer computes every per-layer metric. Per-query ratios divide by the
// traced phase's completed queries.
func perLayer(in layerInput) []metric {
	p := in.traced
	lat, _, nq := queryDists(p)
	q := float64(max(nq, 1))
	head := scrapeDelta(p.before[0], p.after[0], famCacheHits, famCacheMisses, famCacheCoalesced,
		famCacheEvictions, famSourceAccesses, famSourceTrips, famRemoteTrips, famRemoteRetries)

	// Spans by request, and the node0 handler span of each query.
	handlers := make(map[string]span)
	children := make(map[string][]span) // node0 source and remote spans
	var walSpans, probeSpans []span
	byParent := make(map[int][]interval) // child intervals by parent span index
	for _, s := range in.spans {
		switch {
		case s.Kind == kindQuery && s.Node == "node0":
			handlers[s.Req] = s
		case s.Kind == kindSource || s.Kind == kindRemote:
			children[s.Req] = append(children[s.Req], s)
		case s.Kind == kindWAL:
			walSpans = append(walSpans, s)
		case s.Kind == kindProbe:
			probeSpans = append(probeSpans, s)
		}
		if (s.Kind == kindWAL || s.Kind == kindProbe) && s.Parent >= 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s.iv())
		}
	}

	var handlerMS, overheadUS, gapUS, elapsedMS, selfMS, firstMS []float64
	var answers, tuples, trips []float64
	for _, r := range p.queries {
		if r.err != nil {
			continue
		}
		answers = append(answers, float64(r.answers))
		tuples = append(tuples, float64(r.done.Tuples))
		trips = append(trips, float64(r.done.Batches))
		elapsedMS = append(elapsedMS, r.done.ElapsedMS)
		h, ok := handlers[r.done.TraceID]
		if !ok {
			continue
		}
		handlerMS = append(handlerMS, h.durMS())
		overheadUS = append(overheadUS, h.durUS()-msToUS(r.done.ElapsedMS))
		gapUS = append(gapUS, nsToUS(int64(r.end-r.sent))-h.durUS())
		if r.answers > 0 && h.First > 0 {
			firstMS = append(firstMS, nsToMS(h.First-h.Start))
		}
		var ivs []interval
		for _, c := range children[r.done.TraceID] {
			ivs = append(ivs, c.iv())
		}
		selfMS = append(selfMS, r.done.ElapsedMS-nsToMS(coveredWithin(h.iv(), ivs)))
	}

	var sourceBusyNS int64
	var sourceBindings int
	var rttMS, wireUS, peerMS, ingestMS, applyUS []float64
	for i, s := range in.spans {
		switch {
		case s.Kind == kindSource && s.Node == "node0":
			sourceBusyNS += s.dur()
			sourceBindings += s.N
		case s.Kind == kindRemote:
			rttMS = append(rttMS, s.durMS())
			wireUS = append(wireUS, nsToUS(selfTime(s.iv(), byParent[i])))
		case s.Kind == kindIngest:
			ingestMS = append(ingestMS, s.durMS())
			applyUS = append(applyUS, nsToUS(selfTime(s.iv(), byParent[i])))
		}
	}
	for _, s := range probeSpans {
		peerMS = append(peerMS, s.durMS())
	}
	var walUS []float64
	for _, s := range walSpans {
		walUS = append(walUS, s.durUS())
	}

	hits, misses := head[famCacheHits], head[famCacheMisses]
	hitFrac := 0.0
	if hits+misses > 0 {
		hitFrac = hits / (hits + misses)
	}
	var syncsPerBatch, bytesPerRow, snapshots float64
	if p.hasWAL {
		appends := float64(p.wal1.Appends - p.wal0.Appends)
		if appends > 0 {
			syncsPerBatch = float64(p.wal1.Syncs-p.wal0.Syncs) / appends
		}
		rows := 0
		for _, g := range p.ingests {
			rows += g.applied
		}
		if rows > 0 {
			bytesPerRow = float64(p.wal1.AppendedBytes-p.wal0.AppendedBytes) / float64(rows)
		}
		snapshots = float64(p.wal1.Snapshots - p.wal0.Snapshots)
	}
	ops := float64(max(p.ops(), 1))
	gcFrac := 0.0
	if tot := p.use1.totalCPU - p.use0.totalCPU; tot > 0 {
		gcFrac = (p.use1.gcCPU - p.use0.gcCPU) / tot
	}
	var late []float64
	if p.open {
		for _, r := range p.queries {
			_, l := openLoopTiming(r.due, r.sent, r.end)
			late = append(late, durMS(l))
		}
	}
	ulat, _, unq := queryDists(in.untraced)
	overhead, qpsLoss := 0.0, 0.0
	if u := ulat.pct(50); u > 0 {
		overhead = 100 * (lat.pct(50)/u - 1)
	}
	if unq > 0 {
		qpsLoss = 100 * (1 - (float64(nq)/p.elapsed.Seconds())/(float64(unq)/in.untraced.elapsed.Seconds()))
	}
	usPerAccess := 0.0
	if sourceBindings > 0 {
		usPerAccess = nsToUS(sourceBusyNS) / float64(sourceBindings)
	}
	planPer1k := 0.0
	if in.planRequests > 0 {
		planPer1k = 1000 * float64(in.planMisses) / float64(in.planRequests)
	}
	drift := p.rowsEnd - p.rowsStart
	if drift < 0 {
		drift = -drift
	}

	d := func(xs []float64) dist { return newDist(xs) }
	return []metric{
		{"service.query_handler_ms_p50", "ms", d(handlerMS).pct(50), len(handlerMS), ""},
		{"service.query_overhead_us_p50", "us", d(overheadUS).pct(50), len(overheadUS), "handler minus done-line elapsed"},
		{"service.client_gap_us_p50", "us", d(gapUS).pct(50), len(gapUS), "client round trip minus handler"},
		{"service.answer_lines_per_query", "count", mean(answers), len(answers), ""},
		{"service.ingest_handler_ms_p50", "ms", d(ingestMS).pct(50), len(ingestMS), ""},
		{"core.prepare_us_p50", "us", d(in.prepareUS).pct(50), len(in.prepareUS), "timed Prepare/PrepareUCQ"},
		{"core.plan_misses_per_1k", "count", planPer1k, in.planRequests, fmt.Sprintf("FIFO of %d plans", lookupPlanCap)},
		{"exec.elapsed_ms_p50", "ms", d(elapsedMS).pct(50), len(elapsedMS), ""},
		{"exec.self_ms_p50", "ms", d(selfMS).pct(50), len(selfMS), "elapsed minus source/remote span union"},
		{"exec.first_answer_ms_p50", "ms", d(firstMS).pct(50), len(firstMS), "handler start to first body write"},
		{"exec.tuples_per_query", "count", mean(tuples), len(tuples), ""},
		{"exec.round_trips_per_query", "count", mean(trips), len(trips), ""},
		{"cache.hits_per_query", "count", hits / q, nq, ""},
		{"cache.misses_per_query", "count", misses / q, nq, ""},
		{"cache.coalesced_per_query", "count", head[famCacheCoalesced] / q, nq, ""},
		{"cache.evictions_per_query", "count", head[famCacheEvictions] / q, nq, ""},
		{"cache.hit_frac", "ratio", hitFrac, int(hits + misses), "hits / (hits + misses)"},
		{"source.accesses_per_query", "count", head[famSourceAccesses] / q, nq, ""},
		{"source.round_trips_per_query", "count", head[famSourceTrips] / q, nq, ""},
		{"source.busy_ms_per_query", "ms", nsToMS(sourceBusyNS) / q, nq, "node0 local source spans"},
		{"source.us_per_access", "us", usPerAccess, sourceBindings, ""},
		{"storage.apply_us_p50", "us", d(applyUS).pct(50), len(applyUS), "ingest handler minus WAL hook"},
		{"storage.live_rows_drift", "count", float64(drift), 2, fmt.Sprintf("rows %d -> %d", p.rowsStart, p.rowsEnd)},
		{"remote.round_trips_per_query", "count", head[famRemoteTrips] / q, nq, ""},
		{"remote.rtt_ms_p50", "ms", d(rttMS).pct(50), len(rttMS), ""},
		{"remote.peer_handler_ms_p50", "ms", d(peerMS).pct(50), len(peerMS), "node1 /probe handler"},
		{"remote.wire_us_p50", "us", d(wireUS).pct(50), len(wireUS), "round trip minus peer handler"},
		{"remote.retries", "count", head[famRemoteRetries], nq, ""},
		{"wal.append_us_p50", "us", d(walUS).pct(50), len(walUS), ""},
		{"wal.append_us_p99", "us", d(walUS).pct(99), len(walUS), resolvedNote(d(walUS), 99)},
		{"wal.syncs_per_batch", "count", syncsPerBatch, int(p.wal1.Appends - p.wal0.Appends), ""},
		{"wal.bytes_per_row", "B", bytesPerRow, len(p.ingests), "appended bytes per applied row"},
		{"wal.snapshots", "count", snapshots, 1, ""},
		{"runtime.alloc_kb_per_op", "KB", float64(p.use1.allocBytes-p.use0.allocBytes) / 1024 / ops, int(ops), ""},
		{"runtime.gc_cpu_frac", "ratio", gcFrac, 1, ""},
		{"bench.generator_late_ms_p99", "ms", d(late).pct(99), len(late), "open loop only"},
		{"bench.trace_overhead_pct", "%", overhead, nq,
			fmt.Sprintf("traced vs untraced query_p50_ms; queries_per_s %.3g%% lower", qpsLoss)},
	}
}

// fidelity compares the traced run with the untraced run of the same seed
// and with the program's own accounting, returning one line per breach.
func fidelity(name string, untraced, traced *phase, spans []span, texts []string) []string {
	var out []string
	// The traced decorators must see exactly the accesses each done line
	// reports: the program counts below its cache, where they sit.
	seen := make(map[string]int)
	for _, s := range spans {
		if (s.Kind == kindSource || s.Kind == kindRemote) && s.Node == "node0" {
			seen[s.Req] += s.N
		}
	}
	for i, r := range traced.queries {
		if r.err == nil && seen[r.done.TraceID] != r.done.Accesses {
			out = append(out, fmt.Sprintf("traced request %d: done line reports %d accesses, sources saw %d",
				i, r.done.Accesses, seen[r.done.TraceID]))
		}
	}
	switch name {
	case "fig6-cold":
		// One client, no cache: each text's access count is exact.
		out = append(out, accessDrift(texts, untraced, traced)...)
	case "lookup-warm":
		// The same schedule in both runs: request by request, the same
		// answers and the same accesses.
		for i := 0; i < min(len(untraced.queries), len(traced.queries)); i++ {
			u, t := untraced.queries[i], traced.queries[i]
			if u.err != nil || t.err != nil {
				continue
			}
			if u.digest != t.digest || u.done.Accesses != t.done.Accesses {
				out = append(out, fmt.Sprintf("request %d: untraced %s/%d accesses, traced %s/%d",
					i, u.digest, u.done.Accesses, t.digest, t.done.Accesses))
			}
		}
	}
	return out
}

// accessDrift reports every text whose access count was not the same on
// every request of the given phases.
func accessDrift(texts []string, phases ...*phase) []string {
	counts := make(map[int]map[int]int)
	for _, p := range phases {
		for _, r := range p.queries {
			if r.err != nil {
				continue
			}
			if counts[r.text] == nil {
				counts[r.text] = make(map[int]int)
			}
			counts[r.text][r.done.Accesses]++
		}
	}
	var out []string
	for t, c := range counts {
		if len(c) > 1 {
			out = append(out, fmt.Sprintf("access drift on %q: %s", texts[t], formatCounts(c)))
		}
	}
	sort.Strings(out)
	return out
}

func formatCounts(c map[int]int) string {
	keys := make([]int, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d accesses ×%d", k, c[k])
	}
	return strings.Join(parts, ", ")
}
