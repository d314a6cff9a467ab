package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"toorjah"
	"toorjah/internal/cache"
	"toorjah/internal/gen"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// lookup-warm shape. The offered rate and the latency limit are recorded
// in BENCHMARK.json.
const (
	lookupRate    = 200 // offered requests per second
	lookupWorkers = 2   // requests in flight at most
	lookupSLO     = 20 * time.Millisecond
	lookupZipfS   = 1.1 // Zipf exponent of the constants
	lookupPeerRel = "rev_icde"
	// lookupPlanCap is the service's warm-plan capacity (its unexported
	// maxPreparedPlans), which the request texts outnumber.
	lookupPlanCap = 1024
)

// lookupTemplates are the parameterized point CQs and UCQs; %[1]s is a
// paper constant, %[2]s a person constant, %[3]s a second paper. Every
// access they make is bound by their constants.
var lookupTemplates = []string{
	"q(R) :- pub1(%[1]s, R)",
	"q(P) :- sub(P, %[2]s)",
	"q(R, E) :- pub1(%[1]s, R), rev_icde(R, %[1]s, E)",
	"q(A) :- sub(S, %[2]s), pub1(S, A)",
	"q(R) :- pub1(%[1]s, R)\nq(R) :- pub1(%[3]s, R)",
	"q(E) :- rev_icde(%[2]s, %[1]s, E)",
}

// lookupWarm runs seeded point lookups as an open loop against a
// two-node federation: node0 holds every relation but rev_icde, which it
// attaches from node1, and serves through the default-size cache, warmed
// with the whole working set during setup.
type lookupWarm struct {
	seed   int64
	all    []string // distinct texts, in order of first use
	seq    []int    // the request sequence, as indices into all
	refs   []answerRef
	warmup []string // texts whose accesses cover the working set
}

func lookupData(seed int64) (*schema.Schema, *storage.Database) {
	return gen.Publication(seed, gen.DefaultPublication())
}

// newLookupWarm draws the request sequence for a run of the given length
// and answers every distinct text on the reference system.
func newLookupWarm(ctx context.Context, seed int64, seconds float64) (*lookupWarm, error) {
	sch, db := lookupData(seed)
	w := &lookupWarm{seed: seed}
	w.all, w.seq = lookupSequence(seed, db, int(lookupRate*seconds))
	w.warmup = lookupWorkingSet(db)
	refs, err := references(ctx, sch, db, w.all)
	if err != nil {
		return nil, err
	}
	w.refs = refs
	return w, nil
}

// lookupSequence draws n requests: a uniform template, and constants by a
// Zipf law over a seed-shuffled ranking of the papers, persons and
// rev_icde rows.
func lookupSequence(seed int64, db *storage.Database, n int) (texts []string, seq []int) {
	cfg := gen.DefaultPublication()
	rng := rand.New(rand.NewSource(seed))
	revRows := db.Table(lookupPeerRel).Snapshot().Rows()
	papers, persons, revs := rng.Perm(cfg.Papers), rng.Perm(cfg.Persons), rng.Perm(len(revRows))
	zPaper := rand.NewZipf(rng, lookupZipfS, 1, uint64(cfg.Papers-1))
	zPerson := rand.NewZipf(rng, lookupZipfS, 1, uint64(cfg.Persons-1))
	zRev := rand.NewZipf(rng, lookupZipfS, 1, uint64(len(revRows)-1))
	index := make(map[string]int)
	for i := 0; i < n; i++ {
		tpl := rng.Intn(len(lookupTemplates))
		paper := fmt.Sprintf("paper%d", papers[zPaper.Uint64()])
		person := fmt.Sprintf("person%d", persons[zPerson.Uint64()])
		other := fmt.Sprintf("paper%d", papers[zPaper.Uint64()])
		if tpl == 5 { // a (person, paper) pair that occurs in rev_icde
			row := revRows[revs[zRev.Uint64()]]
			person, paper = row[0], row[1]
		}
		text := fmt.Sprintf(lookupTemplates[tpl], paper, person, other)
		id, ok := index[text]
		if !ok {
			id = len(texts)
			index[text] = id
			texts = append(texts, text)
		}
		seq = append(seq, id)
	}
	return texts, seq
}

// lookupWorkingSet lists texts whose accesses together cover every access
// any lookup can make: each single-constant template for every paper and
// person, and the pair template for every rev_icde row.
func lookupWorkingSet(db *storage.Database) []string {
	cfg := gen.DefaultPublication()
	var out []string
	for i := 0; i < cfg.Papers; i++ {
		paper := fmt.Sprintf("paper%d", i)
		out = append(out, fmt.Sprintf(lookupTemplates[0], paper), fmt.Sprintf(lookupTemplates[2], paper))
	}
	for i := 0; i < cfg.Persons; i++ {
		person := fmt.Sprintf("person%d", i)
		out = append(out, fmt.Sprintf(lookupTemplates[1], "", person), fmt.Sprintf(lookupTemplates[3], "", person))
	}
	seen := make(map[string]bool)
	for _, row := range db.Table(lookupPeerRel).Snapshot().Rows() {
		text := fmt.Sprintf(lookupTemplates[5], row[1], row[0])
		if !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	return out
}

func (w *lookupWarm) texts() []string { return w.all }

func (w *lookupWarm) setup(ctx context.Context, dir string, tr *tracer) (*deployment, error) {
	sch, db := lookupData(w.seed)
	local, peerDB := storage.NewDatabase(), storage.NewDatabase()
	for _, rel := range sch.Relations() {
		to := local
		if rel.Name == lookupPeerRel {
			to = peerDB
		}
		if err := to.Attach(db.Table(rel.Name)); err != nil {
			return nil, err
		}
	}
	d := &deployment{}
	peer, err := startPeer(sch, peerDB, tr)
	if err != nil {
		return nil, err
	}
	d.nodes = append(d.nodes, peer)
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}), remoteOptions)
	if err := bind(sys, "node0", local, tr); err != nil {
		d.close()
		return nil, err
	}
	if err := attachPeer(ctx, sys, peer, tr, lookupPeerRel); err != nil {
		d.close()
		return nil, err
	}
	if err := warm(ctx, sys, w.warmup); err != nil {
		d.close()
		return nil, err
	}
	head, err := startNode("node0", sys, tr)
	if err != nil {
		d.close()
		return nil, err
	}
	d.nodes = append([]*node{head}, d.nodes...)
	return d, nil
}

func (w *lookupWarm) drive(ctx context.Context, d *deployment, c *client, dur time.Duration, p *phase) {
	n := min(len(w.seq), int(lookupRate*dur.Seconds()))
	openLoop(ctx, p, n, time.Second/lookupRate, lookupWorkers, func(i int, due time.Duration) queryRec {
		t := w.seq[i]
		return runQuery(ctx, c, d.nodes[0].url, p, t, w.all[t], due)
	})
}

func (w *lookupWarm) check(p *phase) []string { return checkRefs(p, w.all, w.refs) }

func (w *lookupWarm) config() map[string]any {
	return map[string]any{
		"scale": gen.DefaultPublication(), "peer_relation": lookupPeerRel,
		"cache_capacity": cache.DefaultCapacity, "working_set_texts": len(w.warmup),
		"offered_rate_per_s": lookupRate, "in_flight": lookupWorkers, "loop": "open",
		"latency_limit_ms": durMS(lookupSLO), "zipf_s": lookupZipfS,
		"distinct_texts": len(w.all), "plan_cap": lookupPlanCap,
	}
}

// warm executes texts on sys with the served (pipelined) executor from
// two goroutines, filling the system's cache.
func warm(ctx context.Context, sys *toorjah.System, texts []string) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(texts); i += len(errs) {
				q, err := prepare(sys, texts[i])
				if err == nil {
					_, err = q.Execute(ctx, toorjah.OnAnswer(func(toorjah.Tuple) {}))
				}
				if err != nil {
					errs[g] = fmt.Errorf("warm-up %q: %w", texts[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
