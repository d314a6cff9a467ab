package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"toorjah"
	"toorjah/internal/gen"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// fig6Instance is the gen.Publication seed of the fig6-cold instance. A
// run's seed relabels it (relabel), so every seed sees different values
// in an isomorphic instance: the Fig. 6 queries make exactly the same
// accesses on every seed, and on this instance each of q1–q3 has answers.
const fig6Instance = 4

// fig6Fixed are the constants the Fig. 6 queries mention; relabelling
// keeps them.
var fig6Fixed = map[string]bool{"icde": true, "y2008": true, "acc": true, "rej": true}

// fig6Cold runs Fig. 6 q1–q3 round-robin from one closed-loop client
// against one node with the cross-query cache off.
type fig6Cold struct {
	seed int64
	refs []answerRef
}

func newFig6Cold(ctx context.Context, seed int64) (*fig6Cold, error) {
	w := &fig6Cold{seed: seed}
	sch, db := fig6Data(seed)
	refs, err := references(ctx, sch, db, w.texts())
	if err != nil {
		return nil, err
	}
	w.refs = refs
	return w, nil
}

func fig6Data(seed int64) (*schema.Schema, *storage.Database) {
	sch, db := gen.Publication(fig6Instance, gen.SmallPublication())
	return sch, relabel(sch, db, seed, fig6Fixed)
}

func (w *fig6Cold) texts() []string { return gen.PublicationQueries }

func (w *fig6Cold) setup(ctx context.Context, dir string, tr *tracer) (*deployment, error) {
	sch, db := fig6Data(w.seed)
	sys := toorjah.NewSystem(sch) // no cache: every access reaches a source
	if err := bind(sys, "node0", db, tr); err != nil {
		return nil, err
	}
	n, err := startNode("node0", sys, tr)
	if err != nil {
		return nil, err
	}
	return &deployment{nodes: []*node{n}}, nil
}

// drive sends whole rounds of q1–q3 until dur has passed, so every run
// sends the same mix and accesses_per_query is the same on every run.
func (w *fig6Cold) drive(ctx context.Context, d *deployment, c *client, dur time.Duration, p *phase) {
	texts := w.texts()
	offset := int(uint64(w.seed) % uint64(len(texts)))
	for ctx.Err() == nil && p.since() < dur {
		for k := range texts {
			t := (offset + k) % len(texts)
			p.queries = append(p.queries, runQuery(ctx, c, d.nodes[0].url, p, t, texts[t], 0))
		}
	}
}

func (w *fig6Cold) check(p *phase) []string { return checkRefs(p, w.texts(), w.refs) }

func (w *fig6Cold) config() map[string]any {
	return map[string]any{
		"instance_seed": fig6Instance, "scale": gen.SmallPublication(), "cache": "off",
		"clients": 1, "loop": "closed", "texts": len(w.texts()),
	}
}

// relabel returns an isomorphic copy of db. Values are grouped into
// families by their letter prefix (person…, paper…, conf…, y…); within a
// family a seed-derived permutation renames them, values in fixed stay as
// they are, and every table's rows are shuffled.
func relabel(sch *schema.Schema, db *storage.Database, seed int64, fixed map[string]bool) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	families := make(map[string][]string)
	seen := make(map[string]bool)
	for _, rel := range sch.Relations() {
		for _, row := range db.Table(rel.Name).Snapshot().Rows() {
			for _, v := range row {
				if !fixed[v] && !seen[v] {
					seen[v] = true
					fam := strings.TrimRight(v, "0123456789")
					families[fam] = append(families[fam], v)
				}
			}
		}
	}
	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)
	rename := make(map[string]string, len(seen))
	for _, fam := range names {
		vals := families[fam]
		sort.Strings(vals)
		for i, j := range rng.Perm(len(vals)) {
			rename[vals[i]] = vals[j]
		}
	}
	out := storage.NewDatabase()
	for _, rel := range sch.Relations() {
		rows := db.Table(rel.Name).Snapshot().Rows()
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		t, err := out.Create(rel.Name, rel.Arity())
		if err != nil {
			panic(fmt.Sprintf("relabel: %v", err)) // fresh database, schema names are distinct
		}
		for _, row := range rows {
			nr := make(storage.Row, len(row))
			for i, v := range row {
				if r, ok := rename[v]; ok {
					v = r
				}
				nr[i] = v
			}
			t.Insert(nr)
		}
	}
	return out
}
