package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"toorjah"
	"toorjah/internal/cq"
	"toorjah/internal/load"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// workload is one seeded traffic mix. The constructor derives every input
// from the seed and computes the reference answers before any clock runs.
type workload interface {
	// texts are the distinct query texts the run may send.
	texts() []string
	// setup generates and loads the data into fresh nodes, opens the WAL
	// and warms what the workload warms: everything setup_s times. With a
	// tracer the nodes are built with traced sources and handlers.
	setup(ctx context.Context, dir string, tr *tracer) (*deployment, error)
	// drive runs the timed phase for dur, recording every request.
	drive(ctx context.Context, d *deployment, c *client, dur time.Duration, p *phase)
	// check returns one description per wrong answer of the phase.
	check(p *phase) []string
	// config is the workload's shape for the reproducibility record.
	config() map[string]any
}

// deployment is one set-up instance of a workload. nodes[0] serves the
// timed requests.
type deployment struct {
	nodes []*node
}

func (d *deployment) close() error {
	var first error
	for _, n := range d.nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// queryRec is one /query request. Times are offsets from the phase start;
// due equals sent in a closed loop.
type queryRec struct {
	text    int
	due     time.Duration
	sent    time.Duration
	first   time.Duration // first answer line; 0 when there was none
	end     time.Duration
	answers int
	digest  string
	done    doneLine
	err     error
	// pSend and pRecv are the acknowledged ingest steps at send and at
	// the done line (ingest-churn).
	pSend, pRecv int64
}

// latency is the client-observed time of the request, from when it was
// due; firstAnswer the time to its first answer line (0 without one).
func (r queryRec) latency() time.Duration {
	lat, _ := openLoopTiming(r.due, r.sent, r.end)
	return lat
}
func (r queryRec) firstAnswer() time.Duration {
	if r.first == 0 {
		return 0
	}
	return r.first - r.due
}

// ingestRec is one /ingest request.
type ingestRec struct {
	start, end time.Duration
	rows       int
	applied    int
	err        error
}

// usage is the process's resource use at one instant.
type usage struct {
	cpu        time.Duration // user + system CPU time of the process
	allocBytes uint64        // bytes allocated since start
	gcCPU      float64       // runtime-estimated GC CPU seconds
	totalCPU   float64       // runtime-estimated total CPU seconds
	// hostTicks and stealTicks are the machine's CPU time and the part the
	// hypervisor gave to other guests (/proc/stat), in clock ticks.
	hostTicks, stealTicks uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	u := usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
	u.hostTicks, u.stealTicks = hostCPU()
	return u
}

// hostCPU reads the machine's total and stolen CPU ticks from the first
// line of /proc/stat ("cpu user nice system idle iowait irq softirq steal
// …"); zeros where it is unavailable.
func hostCPU() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// phase is everything one timed phase observed.
type phase struct {
	start   time.Time
	elapsed time.Duration
	open    bool // open loop: latency runs from the due time
	queries []queryRec
	ingests []ingestRec

	use0, use1         usage
	before, after      []*obs.Scrape // per node
	wal0, wal1         wal.Stats
	hasWAL             bool
	rowsStart, rowsEnd int
}

func (p *phase) since() time.Duration { return time.Since(p.start) }

// waitUntil sleeps until offset at of the phase; false when ctx ended
// first.
func (p *phase) waitUntil(ctx context.Context, at time.Duration) bool {
	wait := at - p.since()
	if wait <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ops counts completed operations.
func (p *phase) ops() int {
	n := 0
	for _, q := range p.queries {
		if q.err == nil {
			n++
		}
	}
	for _, g := range p.ingests {
		if g.err == nil {
			n++
		}
	}
	return n
}

// measure runs one timed phase on a deployment: /metrics and WAL counters
// before and after, and process usage around it.
func measure(ctx context.Context, w workload, d *deployment, c *client, dur time.Duration) (*phase, error) {
	p := &phase{}
	head := d.nodes[0]
	for _, n := range d.nodes {
		s, err := c.scrape(ctx, n.url)
		if err != nil {
			return nil, err
		}
		p.before = append(p.before, s)
	}
	if head.wlog != nil {
		p.hasWAL, p.wal0 = true, head.wlog.Stats()
	}
	p.rowsStart = head.liveRows()
	p.use0 = readUsage()
	p.start = time.Now()
	w.drive(ctx, d, c, dur, p)
	p.elapsed = time.Since(p.start)
	p.use1 = readUsage()
	for _, n := range d.nodes {
		s, err := c.scrape(ctx, n.url)
		if err != nil {
			return nil, err
		}
		p.after = append(p.after, s)
	}
	if p.hasWAL {
		p.wal1 = head.wlog.Stats()
	}
	p.rowsEnd = head.liveRows()
	return p, nil
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runQuery sends one query and records it.
func runQuery(ctx context.Context, c *client, base string, p *phase, text int, body string, due time.Duration) queryRec {
	rec := queryRec{text: text, due: due, sent: p.since()}
	if !p.open {
		rec.due = rec.sent
	}
	rep, err := c.query(ctx, base, body)
	rec.end = p.since()
	if err != nil {
		rec.err = err
		return rec
	}
	if !rep.first.IsZero() {
		rec.first = rep.first.Sub(p.start)
	}
	rec.answers = len(rep.answers)
	rec.digest = load.HashAnswers(rep.answers)
	rec.done = rep.done
	return rec
}

// openLoop sends n requests on a fixed schedule — request i is due at
// i·interval after the phase start — from a fixed set of workers, so at
// most that many are in flight. A worker that frees up late sends the
// next request at once; its latency still runs from its due time.
func openLoop(ctx context.Context, p *phase, n int, interval time.Duration, workers int, do func(i int, due time.Duration) queryRec) {
	p.open = true
	recs := make([]queryRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := time.Duration(i) * interval
				if !p.waitUntil(ctx, due) {
					return
				}
				recs[i] = do(i, due)
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		if r.end > 0 { // skips requests a cancelled context never sent
			p.queries = append(p.queries, r)
		}
	}
}

// answerRef is a reference answer: count and load.HashAnswers digest.
type answerRef struct {
	count  int
	digest string
}

// runnable is a prepared CQ or UCQ.
type runnable interface {
	Execute(context.Context, ...toorjah.ExecOption) (*toorjah.Result, error)
}

// prepare plans a CQ or, for a multi-line text, a UCQ.
func prepare(sys *toorjah.System, text string) (runnable, error) {
	if cq.IsUnion(text) {
		return sys.PrepareUCQ(text)
	}
	return sys.Prepare(text)
}

// references answers every text on a system holding every relation of db
// locally, with the library's default executor.
func references(ctx context.Context, sch *schema.Schema, db *storage.Database, texts []string) ([]answerRef, error) {
	ref := toorjah.NewSystem(sch)
	if err := ref.BindDatabase(db); err != nil {
		return nil, err
	}
	out := make([]answerRef, len(texts))
	for i, text := range texts {
		q, err := prepare(ref, text)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", text, err)
		}
		res, err := q.Execute(ctx)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", text, err)
		}
		rows := make([][]string, 0, res.Answers.Len())
		for _, t := range res.Answers.Tuples() {
			rows = append(rows, t.Strings())
		}
		out[i] = answerRef{count: len(rows), digest: load.HashAnswers(rows)}
	}
	return out, nil
}

// checkRefs compares every answered request with its text's reference.
func checkRefs(p *phase, texts []string, refs []answerRef) []string {
	var wrong []string
	for i, q := range p.queries {
		if q.err != nil {
			continue
		}
		if r := refs[q.text]; q.answers != r.count || q.digest != r.digest {
			wrong = append(wrong, fmt.Sprintf("request %d %q: %d answers digest %s, reference %d digest %s",
				i, texts[q.text], q.answers, q.digest, r.count, r.digest))
		}
	}
	return wrong
}
