package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/service"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// node is one in-process toorjahd: the real service route table on a
// loopback listener, as cmd/loadgen stands its cluster up.
type node struct {
	name  string
	sys   *toorjah.System
	url   string
	hs    *http.Server
	done  chan struct{} // closed when Serve has returned
	wlog  *wal.Log
	table string // the relation whose live rows the run follows ("" = none)
}

// startNode serves sys on a fresh loopback port; with a tracer the route
// table is wrapped so each request records a span.
func startNode(name string, sys *toorjah.System, tr *tracer, opts ...service.Option) (*node, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: node %s: %w", name, err)
	}
	h := service.New(sys, toorjah.Options{}, opts...).Handler()
	if tr != nil {
		h = tr.handler(name, h)
	}
	n := &node{name: name, sys: sys, url: "http://" + lis.Addr().String(),
		hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(lis) // returns ErrServerClosed once close runs
	}()
	return n, nil
}

// close stops the node, waits for its server loop to exit and closes its
// write-ahead log.
func (n *node) close() error {
	err := n.hs.Close()
	<-n.done
	if n.wlog != nil {
		if werr := n.wlog.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// liveRows is the live row count of the node's followed relation.
func (n *node) liveRows() int {
	if n.table == "" {
		return 0
	}
	return n.sys.DataInfo()[n.table].Rows
}

// bind attaches every relation of db to sys, through traced sources when
// a tracer is given.
func bind(sys *toorjah.System, nodeName string, db *storage.Database, tr *tracer) error {
	if tr != nil {
		return tr.bindTraced(sys, nodeName, db)
	}
	return sys.BindDatabase(db)
}

// remoteOptions tunes the federation client as cmd/loadgen's cluster does.
var remoteOptions = toorjah.WithRemoteOptions(toorjah.RemoteOptions{
	Timeout:   5 * time.Second,
	RetryBase: time.Millisecond,
	RetryMax:  20 * time.Millisecond,
})

// startPeer serves db as node1: no cache, untraced sources (its work is
// timed by its /probe handler span).
func startPeer(sch *schema.Schema, db *storage.Database, tr *tracer) (*node, error) {
	sys := toorjah.NewSystem(sch)
	if err := sys.BindDatabase(db); err != nil {
		return nil, err
	}
	return startNode("node1", sys, tr)
}

// attachPeer sources the relations from the peer, through a traced
// remote source when a tracer is given.
func attachPeer(ctx context.Context, sys *toorjah.System, peer *node, tr *tracer, relations ...string) error {
	if err := sys.AttachRemote(ctx, peer.url+"="+strings.Join(relations, ",")); err != nil {
		return err
	}
	if tr != nil {
		return tr.bindTracedRemote(sys, "node0", relations...)
	}
	return nil
}

// client speaks the service's HTTP protocol.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// doneLine is the summary frame ending a /query response.
type doneLine struct {
	Done      bool    `json:"done"`
	Answers   int     `json:"answers"`
	Accesses  int     `json:"accesses"`
	Batches   int     `json:"batches"`
	Tuples    int     `json:"tuples"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Truncated bool    `json:"truncated"`
	TraceID   string  `json:"trace_id"`
}

// reply is one /query response as the client saw it.
type reply struct {
	answers [][]string
	first   time.Time // first answer line read; zero when there was none
	done    doneLine
}

// query POSTs one query text and reads the NDJSON stream to the done line.
func (c *client) query(ctx context.Context, base, text string) (reply, error) {
	var rep reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", strings.NewReader(text))
	if err != nil {
		return rep, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("query: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var f struct {
			Answer []string `json:"answer"`
			Error  string   `json:"error"`
			doneLine
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return rep, fmt.Errorf("query: bad frame %q: %w", sc.Text(), err)
		}
		switch {
		case f.Error != "":
			return rep, fmt.Errorf("query: %s", f.Error)
		case f.Done:
			rep.done = f.doneLine
			if rep.done.Answers != len(rep.answers) {
				return rep, fmt.Errorf("query: done line counts %d answers, stream had %d", rep.done.Answers, len(rep.answers))
			}
			return rep, nil
		default:
			if rep.first.IsZero() {
				rep.first = time.Now()
			}
			rep.answers = append(rep.answers, f.Answer)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("query: %w", err)
	}
	return rep, fmt.Errorf("query: stream ended without a done line")
}

// ingest POSTs one batch of rows to /ingest and returns how many rows it
// applied.
func (c *client) ingest(ctx context.Context, base, relation, op string, rows [][]string) (int, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return 0, err
		}
	}
	u := base + "/ingest?relation=" + url.QueryEscape(relation) + "&op=" + op
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	return ack.Applied, nil
}

// scrape reads a node's /metrics.
func (c *client) scrape(ctx context.Context, base string) (*obs.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}
