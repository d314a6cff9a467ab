package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"toorjah"
	"toorjah/internal/load"
	"toorjah/internal/service"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// ingest-churn shape. The cache capacity and the key range are recorded
// in BENCHMARK.json. The window is small so that a query makes few /probe
// round trips: over a 64-row window a query chained six, and its median
// rose 50–70% whenever other guests contended for the host's CPU.
const (
	churnWindow   = 16                    // live rows of the window relation
	churnBatch    = 8                     // rows per ingest request
	churnStep     = 10 * time.Millisecond // pace of the ingest client's steps
	churnQueryGap = 15 * time.Millisecond // pace of the query client's sends
	churnRange    = 4096                  // keys recycle modulo this: the working set
	churnCache    = 1024                  // node0's cache capacity, below the working set
	churnValues   = 4                     // distinct attribute values
	churnFsync    = wal.FsyncAlways
	churnSnapshot = 2 * time.Second
	churnSegment  = 256 << 10
)

const churnSchema = `
	win^oo(K, P)
	attr^io(K, V)`

// churnTexts are the query client's CQ and UCQ. The UCQ's disjuncts probe
// attr with the same bindings.
var churnTexts = []string{
	"q(K, V) :- win(K, P), attr(K, V)",
	"q(K) :- win(K, P), attr(K, t0)\nq(K) :- win(K, P), attr(K, t1)",
}

// ingestChurn slides a window over node0's durable relation win — each
// ingest step inserts the next churnBatch keys and then deletes the oldest
// churnBatch — while a query client joins the window with attr, which
// node0 attaches from node1. Every step is acknowledged only after the
// WAL has synced it. Both clients are closed loops with a fixed pace —
// the ingest client starts a step at most every churnStep, the query
// client a query at most every churnQueryGap — so neither takes both
// cores, and every run makes the same number of queries per window state:
// the cache hits, misses and /probe round trips per query do not follow
// the host's speed.
type ingestChurn struct {
	seed   int64
	base   int      // key offset of sequence number 0
	vals   [][2]int // attr values of every key
	setups int      // setups so far, naming their WAL directories

	memo map[churnState]string // expected digest per state; check is single-threaded
}

// churnState is one query text over one window state.
type churnState struct {
	text int
	p    int64
}

func newIngestChurn(seed int64) *ingestChurn {
	rng := rand.New(rand.NewSource(seed))
	w := &ingestChurn{seed: seed, base: rng.Intn(churnRange), vals: make([][2]int, churnRange),
		memo: make(map[churnState]string)}
	for k := range w.vals {
		a := rng.Intn(churnValues)
		w.vals[k] = [2]int{a, (a + 1 + rng.Intn(churnValues-1)) % churnValues}
	}
	return w
}

func (w *ingestChurn) texts() []string { return churnTexts }

// key and row of sequence number s.
func (w *ingestChurn) key(s int) int { return (w.base + s) % churnRange }
func (w *ingestChurn) row(s int) []string {
	k := w.key(s)
	return []string{fmt.Sprintf("k%d", k), fmt.Sprintf("p%d", k)}
}

func (w *ingestChurn) rows(lo, hi int) [][]string {
	out := make([][]string, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, w.row(s))
	}
	return out
}

// window is the sequence range [lo, hi) live once p ingest requests have
// been applied: step j inserts [W+jB, W+(j+1)B) (request 2j+1), then
// deletes [jB, (j+1)B) (request 2j+2).
func window(p int64) (lo, hi int) {
	j := int((p - 1) / 2)
	switch {
	case p == 0:
		return 0, churnWindow
	case p%2 == 1:
		return j * churnBatch, churnWindow + (j+1)*churnBatch
	default:
		return (j + 1) * churnBatch, churnWindow + (j+1)*churnBatch
	}
}

// expected is the digest of a text's answers over the window of state p.
func (w *ingestChurn) expected(text int, p int64) string {
	if d, ok := w.memo[churnState{text, p}]; ok {
		return d
	}
	lo, hi := window(p)
	var rows [][]string
	for s := lo; s < hi; s++ {
		k := w.key(s)
		name := fmt.Sprintf("k%d", k)
		for _, v := range w.vals[k] {
			switch {
			case text == 0:
				rows = append(rows, []string{name, fmt.Sprintf("t%d", v)})
			case v <= 1: // the UCQ asks for t0 or t1
				rows = append(rows, []string{name})
			}
		}
	}
	if text == 1 {
		rows = dedup(rows)
	}
	d := load.HashAnswers(rows)
	w.memo[churnState{text, p}] = d
	return d
}

func dedup(rows [][]string) [][]string {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		if !seen[r[0]] {
			seen[r[0]] = true
			out = append(out, r)
		}
	}
	return out
}

func (w *ingestChurn) setup(ctx context.Context, dir string, tr *tracer) (*deployment, error) {
	sch, err := toorjah.ParseSchema(churnSchema)
	if err != nil {
		return nil, err
	}
	peerDB := storage.NewDatabase()
	attr, err := peerDB.Create("attr", 2)
	if err != nil {
		return nil, err
	}
	for k, vs := range w.vals {
		for _, v := range vs {
			attr.Insert(storage.Row{fmt.Sprintf("k%d", k), fmt.Sprintf("t%d", v)})
		}
	}
	d := &deployment{}
	peer, err := startPeer(sch, peerDB, tr)
	if err != nil {
		return nil, err
	}
	d.nodes = append(d.nodes, peer)

	localDB := storage.NewDatabase()
	win, err := localDB.Create("win", 2)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, r := range w.rows(0, churnWindow) {
		win.Insert(storage.Row(r))
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{Capacity: churnCache}), remoteOptions)
	if err := bind(sys, "node0", localDB, tr); err != nil {
		d.close()
		return nil, err
	}
	if err := attachPeer(ctx, sys, peer, tr, "attr"); err != nil {
		d.close()
		return nil, err
	}
	w.setups++
	wdir := filepath.Join(dir, fmt.Sprintf("wal-%d", w.setups))
	if err := os.RemoveAll(wdir); err != nil {
		d.close()
		return nil, err
	}
	l, _, err := wal.Open(wal.Options{Dir: wdir, Fsync: churnFsync,
		SnapshotInterval: churnSnapshot, SegmentMaxBytes: churnSegment})
	if err != nil {
		d.close()
		return nil, err
	}
	service.WireWAL(sys, l)
	if tr != nil {
		tr.traceCommits(sys, "node0", l)
	}
	if err := l.Snapshot(); err != nil { // the durable base state, as on a first boot
		l.Close()
		d.close()
		return nil, err
	}
	head, err := startNode("node0", sys, tr, service.WithWAL(l))
	if err != nil {
		l.Close()
		d.close()
		return nil, err
	}
	head.wlog, head.table = l, "win"
	d.nodes = append([]*node{head}, d.nodes...)
	return d, nil
}

func (w *ingestChurn) config() map[string]any {
	return map[string]any{
		"window_rows": churnWindow, "batch_rows": churnBatch, "key_range": churnRange,
		"cache_capacity": churnCache, "fsync": churnFsync, "snapshot_interval_s": churnSnapshot.Seconds(),
		"segment_bytes": churnSegment, "clients": "1 ingest + 1 query", "loop": "closed",
		"ingest_step_ms": durMS(churnStep), "query_gap_ms": durMS(churnQueryGap),
	}
}

func (w *ingestChurn) drive(ctx context.Context, d *deployment, c *client, dur time.Duration, p *phase) {
	base := d.nodes[0].url
	var acked atomic.Int64 // ingest requests applied and acknowledged
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for j := 0; ctx.Err() == nil && p.since() < dur; j++ {
			if !p.waitUntil(ctx, time.Duration(j)*churnStep) {
				return
			}
			ins := w.rows(churnWindow+j*churnBatch, churnWindow+(j+1)*churnBatch)
			del := w.rows(j*churnBatch, (j+1)*churnBatch)
			for _, step := range []struct {
				op   string
				rows [][]string
			}{{"insert", ins}, {"delete", del}} {
				rec := ingestRec{start: p.since(), rows: len(step.rows)}
				rec.applied, rec.err = c.ingest(ctx, base, "win", step.op, step.rows)
				rec.end = p.since()
				p.ingests = append(p.ingests, rec)
				if rec.err != nil || rec.applied != rec.rows {
					return // the window is no longer the generator's: stop writing
				}
				acked.Add(1)
			}
		}
	}()
	offset := int(uint64(w.seed) % uint64(len(churnTexts)))
	for i := 0; p.waitUntil(ctx, time.Duration(i)*churnQueryGap); i++ {
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
		t := (offset + i) % len(churnTexts)
		pSend := acked.Load()
		rec := runQuery(ctx, c, base, p, t, churnTexts[t], 0)
		rec.pSend, rec.pRecv = pSend, acked.Load()
		p.queries = append(p.queries, rec)
	}
	wg.Wait()
}

// check accepts an answer set only if it is exactly the answer over one
// window state that existed while the query ran: from the acknowledged
// state at send to the one after the acknowledged state at its done line
// (a request being applied may already be visible).
func (w *ingestChurn) check(p *phase) []string {
	var wrong []string
	for i, q := range p.queries {
		if q.err != nil {
			continue
		}
		ok := false
		for s := q.pSend; s <= q.pRecv+1 && !ok; s++ {
			ok = w.expected(q.text, s) == q.digest
		}
		if !ok {
			wrong = append(wrong, fmt.Sprintf("request %d %q: %d answers digest %s match no window state in [%d, %d]",
				i, churnTexts[q.text], q.answers, q.digest, q.pSend, q.pRecv+1))
		}
	}
	for i, g := range p.ingests {
		if g.err == nil && g.applied != g.rows {
			wrong = append(wrong, fmt.Sprintf("ingest %d applied %d of %d rows", i, g.applied, g.rows))
		}
	}
	return wrong
}
