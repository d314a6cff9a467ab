package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
	"toorjah/internal/wal"
)

// Span kinds, one per layer boundary the traced run times.
const (
	kindQuery   = "query"   // a node's /query handler
	kindIngest  = "ingest"  // a node's /ingest handler
	kindProbe   = "probe"   // a peer's /probe handler
	kindSource  = "source"  // a local table source probe
	kindRemote  = "remote"  // a remote-source round trip to a peer
	kindWAL     = "wal"     // the write-ahead-log commit hook
	kindPrepare = "prepare" // a timed System.Prepare / PrepareUCQ
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin. Req is the service's trace ID of the query the call
// served (the ID the done line reports and peers receive), when known.
type span struct {
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Rel    string `json:"rel,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
	// N is the bindings a probe carried or the rows a commit appended.
	N int `json:"n,omitempty"`
	// First is when a /query handler first wrote to the response body.
	First int64 `json:"first_ns,omitempty"`
}

func (s span) iv() interval     { return interval{s.Start, s.End} }
func (s span) dur() int64       { return s.End - s.Start }
func (s span) durMS() float64   { return float64(s.dur()) / 1e6 }
func (s span) durUS() float64   { return float64(s.dur()) / 1e3 }
func nsToMS(ns int64) float64   { return float64(ns) / 1e6 }
func nsToUS(ns int64) float64   { return float64(ns) / 1e3 }
func msToUS(ms float64) float64 { return ms * 1e3 }

// tracer keeps spans in memory for the life of a traced run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at is an instant on the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// between returns the spans that started in [from, to], with parents
// linked: a source or remote span's parent is the /query span of the same
// request, a peer's /probe span's parent is the remote round trip of the
// same request that contains it, a commit span's parent is the /ingest
// span that contains it.
func (t *tracer) between(from, to int64) []span {
	var spans []span
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Start >= from && s.Start <= to {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	queries := make(map[string]int)
	remotes := make(map[string][]int)
	var ingests []int
	for i, s := range spans {
		switch s.Kind {
		case kindQuery:
			queries[s.Req] = i
		case kindRemote:
			remotes[s.Req] = append(remotes[s.Req], i)
		case kindIngest:
			ingests = append(ingests, i)
		}
	}
	contains := func(outer, inner span) bool { return outer.Start <= inner.Start && inner.End <= outer.End }
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kindSource, kindRemote:
			if q, ok := queries[s.Req]; ok && s.Req != "" {
				s.Parent = q
			}
		case kindProbe:
			for _, r := range remotes[s.Req] {
				if contains(spans[r], *s) {
					s.Parent = r
					break
				}
			}
		case kindWAL:
			for _, g := range ingests {
				if contains(spans[g], *s) {
					s.Parent = g
					break
				}
			}
		}
	}
	return spans
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps a node's route table: /query, /ingest and /probe requests
// each record a span. For /query the span takes the request's trace ID
// from the done line the handler wrote, and the time of the first body
// write; for /probe, from the trace header the calling node sent.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind string
		switch r.URL.Path {
		case "/query":
			kind = kindQuery
		case "/ingest":
			kind = kindIngest
		case "/probe":
			kind = kindProbe
		default:
			h.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w, t: t}
		start := t.now()
		h.ServeHTTP(cw, r)
		s := span{Node: node, Kind: kind, Start: start, End: t.now()}
		switch kind {
		case kindQuery:
			s.First = cw.first
			var done struct {
				TraceID string `json:"trace_id"`
			}
			if json.Unmarshal(cw.last, &done) == nil {
				s.Req = done.TraceID
			}
		case kindProbe:
			s.Req = r.Header.Get(obs.TraceHeader)
		}
		t.add(s)
	})
}

// captureWriter notes when the handler first wrote and keeps its last
// write (the done line of a /query response: the service encodes each
// NDJSON frame in one write).
type captureWriter struct {
	http.ResponseWriter
	t     *tracer
	first int64
	last  []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.first == 0 {
		c.first = c.t.now()
	}
	c.last = append(c.last[:0], p...)
	return c.ResponseWriter.Write(p)
}

// Flush forwards to the connection, so answers still stream.
func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// probeSpan records one source call.
// req is the query's trace ID, "" on the context-free probe paths.
func (t *tracer) probeSpan(req, node, kind, rel string, start int64, n int) {
	t.add(span{Node: node, Kind: kind, Rel: rel, Start: start, End: t.now(), Req: req, N: n})
}

// tracedTable decorates a local table source with a span per probe. It
// forwards everything else — Relation, Snapshot (re-decorated), Epoch and
// Table — so snapshot pinning, cache keys, mutability and the commit hook
// behave exactly as on the bare source.
type tracedTable struct {
	inner *source.TableSource
	t     *tracer
	node  string
}

func (s *tracedTable) Relation() *schema.Relation { return s.inner.Relation() }
func (s *tracedTable) Table() *storage.Table      { return s.inner.Table() }
func (s *tracedTable) Epoch() uint64              { return s.inner.Epoch() }

func (s *tracedTable) Snapshot() source.Wrapper {
	// A TableSource always snapshots to a TableSource.
	return &tracedTable{inner: s.inner.Snapshot().(*source.TableSource), t: s.t, node: s.node}
}

func (s *tracedTable) Access(binding []string) ([]storage.Row, error) {
	start := s.t.now()
	rows, err := s.inner.Access(binding)
	s.t.probeSpan("", s.node, kindSource, s.inner.Relation().Name, start, 1)
	return rows, err
}

func (s *tracedTable) AccessBatch(bindings [][]string) ([][]storage.Row, error) {
	start := s.t.now()
	rows, err := s.inner.AccessBatch(bindings)
	s.t.probeSpan("", s.node, kindSource, s.inner.Relation().Name, start, len(bindings))
	return rows, err
}

func (s *tracedTable) AccessSyms(ctx context.Context, bindings [][]sym.ID) ([][]storage.IRow, error) {
	start := s.t.now()
	rows, err := s.inner.AccessSyms(ctx, bindings)
	s.t.probeSpan(obs.TraceIDFromContext(ctx), s.node, kindSource, s.inner.Relation().Name, start, len(bindings))
	return rows, err
}

// tracedRemote decorates a remote source (an unversioned-snapshot,
// table-less wrapper) with a span per round trip, forwarding the same
// method set the bare remote source has.
type tracedRemote struct {
	inner *remote.Source
	t     *tracer
	node  string
}

func (s *tracedRemote) Relation() *schema.Relation { return s.inner.Relation() }
func (s *tracedRemote) Epoch() uint64              { return s.inner.Epoch() }

func (s *tracedRemote) Access(binding []string) ([]storage.Row, error) {
	start := s.t.now()
	rows, err := s.inner.Access(binding)
	s.t.probeSpan("", s.node, kindRemote, s.inner.Relation().Name, start, 1)
	return rows, err
}

func (s *tracedRemote) AccessBatch(bindings [][]string) ([][]storage.Row, error) {
	start := s.t.now()
	rows, err := s.inner.AccessBatch(bindings)
	s.t.probeSpan("", s.node, kindRemote, s.inner.Relation().Name, start, len(bindings))
	return rows, err
}

func (s *tracedRemote) AccessBatchCtx(ctx context.Context, bindings [][]string) ([][]storage.Row, error) {
	start := s.t.now()
	rows, err := s.inner.AccessBatchCtx(ctx, bindings)
	s.t.probeSpan(obs.TraceIDFromContext(ctx), s.node, kindRemote, s.inner.Relation().Name, start, len(bindings))
	return rows, err
}

func (s *tracedRemote) AccessSyms(ctx context.Context, bindings [][]sym.ID) ([][]storage.IRow, error) {
	start := s.t.now()
	rows, err := s.inner.AccessSyms(ctx, bindings)
	s.t.probeSpan(obs.TraceIDFromContext(ctx), s.node, kindRemote, s.inner.Relation().Name, start, len(bindings))
	return rows, err
}

// bindTraced binds every relation of the schema to the same-named table
// of db through a tracedTable — BindDatabase with decorated sources.
func (t *tracer) bindTraced(sys *toorjah.System, node string, db *storage.Database) error {
	for _, rel := range sys.Schema().Relations() {
		tab := db.Table(rel.Name)
		if tab == nil {
			tab = storage.NewTable(rel.Name, rel.Arity()) // as BindDatabase does
		}
		src, err := source.NewTableSource(rel, tab)
		if err != nil {
			return err
		}
		sys.Bind(&tracedTable{inner: src, t: t, node: node})
	}
	return nil
}

// bindTracedRemote rebinds relations already attached from the system's
// only peer through a tracedRemote over the same client, so the peer's
// telemetry (and /metrics) still counts every round trip.
func (t *tracer) bindTracedRemote(sys *toorjah.System, node string, relations ...string) error {
	peers := sys.RemotePeers()
	if len(peers) != 1 {
		return fmt.Errorf("perfbench: want one attached peer, have %d", len(peers))
	}
	for _, name := range relations {
		rel := sys.Schema().Relation(name)
		if rel == nil {
			return fmt.Errorf("perfbench: unknown relation %s", name)
		}
		sys.Bind(&tracedRemote{inner: peers[0].Source(rel), t: t, node: node})
	}
	return nil
}

// traceCommits times every write-ahead-log append: it replaces the commit
// hook WireWAL installed with one that wraps the same AppendCommit.
func (t *tracer) traceCommits(sys *toorjah.System, node string, l *wal.Log) {
	sys.SetCommitHook(func(ev toorjah.CommitEvent) {
		start := t.now()
		l.AppendCommit(ev)
		t.add(span{Node: node, Kind: kindWAL, Rel: ev.Relation, Start: start, End: t.now(), N: len(ev.Rows)})
	})
}
