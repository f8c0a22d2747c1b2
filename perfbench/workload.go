package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"probtopk/internal/cartel"
	"probtopk/internal/server"
	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

// Request kinds. The four query kinds each have their own endpoint; appends
// go to POST /tables/{name}/tuples.
const (
	kindTopK     = "topk"
	kindTypical  = "typical"
	kindBatch    = "batch"
	kindBaseline = "baseline"
	kindAppend   = "append"
)

var queryKinds = []string{kindTopK, kindTypical, kindBatch, kindBaseline}

// baselineSemantics excludes utopk: it runs the unbounded exact DP (see
// NOTES.md).
var baselineSemantics = []string{"ukranks", "ptk", "globaltopk", "intopk", "expectedrank"}

// request is one generated HTTP request. Every query is a POST with a JSON
// body, so the daemon and the in-process replay decode the same bytes.
type request struct {
	kind     string
	table    string
	semantic string // baseline semantic
	path     string
	body     []byte
	tuples   []uncertain.Tuple // appended tuples
}

// table is one generated table: its name and its CSV upload body.
type table struct {
	name   string
	csv    []byte
	lo, hi float64 // score range, so appends land at every rank
}

// makeTables builds the benchmark's dataset: the eight tables the queries
// read — four synthetic Figure-13a tables (200 tuples, 30% in ME groups)
// and four CarTel-substitute areas (60 road segments binned into 4 mutually
// exclusive delay bins) — and the ingest table, a 50-tuple synthetic table
// that takes the window's appends and that no query reads. They do not
// depend on the workload seed: DP cost differs by tens of percent between
// draws of a CarTel area, which would swamp the run-to-run spread the
// bounds are set against.
func makeTables() (query []table, ingest table, err error) {
	mk := func(name string, t *uncertain.Table) (table, error) {
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return table{}, err
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, tp := range t.Tuples() {
			lo, hi = min(lo, tp.Score), max(hi, tp.Score)
		}
		return table{name: name, csv: buf.Bytes(), lo: lo, hi: hi}, nil
	}
	add := func(name string, t *uncertain.Table) error {
		tb, err := mk(name, t)
		query = append(query, tb)
		return err
	}
	for i := int64(0); i < 4; i++ {
		t, err := synth.Generate(synth.Config{Seed: 1 + i}.WithDefaults())
		if err != nil {
			return nil, table{}, err
		}
		if err := add(fmt.Sprintf("syn%d", i), t); err != nil {
			return nil, table{}, err
		}
	}
	for i := int64(0); i < 4; i++ {
		area := cartel.GenerateArea(cartel.Config{Segments: 60, Seed: 101 + i})
		t, err := area.CongestionTable(4, 0)
		if err != nil {
			return nil, table{}, err
		}
		if err := add(fmt.Sprintf("car%d", i), t); err != nil {
			return nil, table{}, err
		}
	}
	t, err := synth.Generate(synth.Config{N: 50, Seed: 500}.WithDefaults())
	if err != nil {
		return nil, table{}, err
	}
	ingest, err = mk("ingest", t)
	return query, ingest, err
}

// Query parameter space: pτ on a 2000-point log grid over [minThreshold,
// maxThreshold] and the line cap over [minLines, maxLines] give ~4·10⁴
// combinations per (table, k, kind), so a run, which starts on an empty
// answer cache, almost never sends a query twice. Both ranges are kept
// narrow: the line cap and pτ set most of a query's cost within its class,
// and a wide range would make a run's medians hinge on a few draws.
const (
	thresholdSteps = 2000
	minThreshold   = 2e-3
	maxThreshold   = 4e-3
	minLines       = 50
	maxLines       = 70
)

// drawThreshold draws pτ from stratum i of n equal parts of the grid.
func drawThreshold(r *rand.Rand, i, n int) float64 {
	step := i*thresholdSteps/n + r.IntN(thresholdSteps/n)
	return minThreshold * math.Pow(maxThreshold/minThreshold, float64(step)/float64(thresholdSteps-1))
}

// queryGen describes a query mix: the tables, the k values and the kind
// slots; queryStream deals its classes and make draws the rest.
type queryGen struct {
	tables []string
	ks     []int
	mix    [4]int // slots of topk, typical, batch, baseline in every 10 queries
}

// class is the part of a query that sets most of its cost.
type class struct {
	kind     string
	table    int
	k        int
	semantic string // baseline queries
}

// queryStream is one client's query sequence. The kinds follow a fixed
// pattern that spreads the mix's slots evenly, and each kind deals its
// classes from its own deck, reshuffled after every pass. Every stretch of
// a run therefore sends each kind's classes in equal proportions, so its
// medians do not hinge on which classes the seed happened to draw; pτ, the
// line cap and the other free parameters are drawn per query.
type queryStream struct {
	g     *queryGen
	r     *rand.Rand
	slots []int      // kind index of each position in the pattern
	decks [4][]class // per kind: every class once
	pos   [4]int     // per kind: next card
	slot  int        // next position in slots
}

func (g *queryGen) stream(r *rand.Rand) *queryStream {
	s := &queryStream{g: g, r: r}
	total := 0
	for _, n := range g.mix {
		total += n
	}
	// Position p goes to the kind furthest behind its share of p+1 slots.
	var count [4]int
	for p := 0; p < total; p++ {
		best, bestLag := 0, math.Inf(-1)
		for i, n := range g.mix {
			if lag := float64(n*(p+1))/float64(total) - float64(count[i]); n > 0 && lag > bestLag {
				best, bestLag = i, lag
			}
		}
		count[best]++
		s.slots = append(s.slots, best)
	}
	for i, kind := range queryKinds {
		if g.mix[i] == 0 {
			continue
		}
		for t := range g.tables {
			if kind == kindBaseline {
				// Baselines take no k from the class: the class is the
				// semantic, and k is drawn per query.
				for _, sem := range baselineSemantics {
					s.decks[i] = append(s.decks[i], class{kind: kind, table: t, semantic: sem})
				}
				continue
			}
			for _, k := range g.ks {
				s.decks[i] = append(s.decks[i], class{kind: kind, table: t, k: k})
			}
		}
		s.pos[i] = len(s.decks[i])
	}
	return s
}

func (s *queryStream) next() *request {
	i := s.slots[s.slot]
	s.slot = (s.slot + 1) % len(s.slots)
	deck := s.decks[i]
	if s.pos[i] == len(deck) {
		s.r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		s.pos[i] = 0
	}
	c := deck[s.pos[i]]
	s.pos[i]++
	return s.g.make(s.r, c)
}

// make draws the free parameters of one query of class c.
func (g *queryGen) make(r *rand.Rand, c class) *request {
	kind, k := c.kind, c.k
	req := &request{kind: kind, table: g.tables[c.table]}
	lines := minLines + r.IntN(maxLines-minLines+1)
	var q server.QueryRequest
	switch kind {
	case kindTopK:
		req.path = "/tables/" + req.table + "/topk"
		q = server.QueryRequest{K: k, Threshold: drawThreshold(r, 0, 1), MaxLines: lines}
	case kindTypical:
		req.path = "/tables/" + req.table + "/typical"
		q = server.QueryRequest{K: k, C: 2 + r.IntN(4), Threshold: drawThreshold(r, 0, 1), MaxLines: lines}
	case kindBatch:
		// A threshold sweep: one k at a low, a middle and a high pτ.
		req.path = "/tables/" + req.table + "/topk/batch"
		q = server.QueryRequest{MaxLines: lines}
		for i := 0; i < 3; i++ {
			q.Queries = append(q.Queries, server.BatchQueryJSON{K: k, Threshold: drawThreshold(r, i, 3)})
		}
	case kindBaseline:
		req.semantic = c.semantic
		req.path = "/tables/" + req.table + "/baseline/" + req.semantic
		// Baselines take only k (and p for ptk): k is drawn from a wide
		// range so repeats, which the answer cache would serve, stay rare.
		q = server.QueryRequest{K: 2 + r.IntN(39)}
		if req.semantic == "ptk" {
			q.P = 0.1 + 0.8*float64(r.IntN(801))/800
		}
	}
	req.body = mustJSON(q)
	return req
}

// appendGen draws durable appends of 1–4 tuples to a uniformly chosen
// table of its list, with scores anywhere in the table's range. A quarter of the
// multi-tuple appends form a new mutually exclusive group.
type appendGen struct {
	tables []table
	seq    int
}

func (g *appendGen) next(r *rand.Rand) *request {
	t := g.tables[r.IntN(len(g.tables))]
	g.seq++
	n := 1 + r.IntN(4)
	group := ""
	if n >= 2 && r.IntN(4) == 0 {
		group = fmt.Sprintf("ing%d", g.seq)
	}
	req := &request{kind: kindAppend, table: t.name, path: "/tables/" + t.name + "/tuples"}
	var body server.TableRequest
	weights := make([]float64, n)
	sum := 0.0
	for j := range weights {
		weights[j] = 0.05 + 0.9*r.Float64()
		sum += weights[j]
	}
	for j := 0; j < n; j++ {
		tp := uncertain.Tuple{
			ID:    fmt.Sprintf("ing%d-%d", g.seq, j),
			Score: t.lo + (t.hi-t.lo)*r.Float64(),
			Prob:  weights[j],
			Group: group,
		}
		if group != "" {
			tp.Prob = 0.95 * weights[j] / sum
		}
		req.tuples = append(req.tuples, tp)
		body.Tuples = append(body.Tuples, server.TupleJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group})
	}
	req.body = mustJSON(body)
	return req
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite numbers are marshalled
	}
	return data
}

// workload is one traffic mix: closed-loop query connections and one
// open-loop connection sending durable appends to the ingest table.
type workload struct {
	name    string
	clients int // closed-loop query connections
	// hotSet, when positive, draws every query uniformly from this many
	// distinct queries, all answered once during set-up.
	hotSet int
	gen    queryGen
}

// appendRate is the appends per second each workload sends to the ingest
// table during the window.
const appendRate = 50

// Each workload stresses a different layer; NOTES.md gives the reasons.
var workloads = map[string]workload{
	"cold-mix": {name: "cold-mix", clients: 1,
		gen: queryGen{ks: []int{2, 5, 10}, mix: [4]int{6, 2, 1, 1}}},
	"hot-hits": {name: "hot-hits", clients: 1, hotSet: 256,
		gen: queryGen{ks: []int{2, 5}, mix: [4]int{6, 2, 1, 1}}},
}

// Random streams derived from the seed. Query connection i uses stream
// i+1; each connection and the appender have their own stream, so no
// sequence depends on how fast the others ran.
const (
	streamHot     = 100
	streamVerify  = 200
	streamAppends = 300
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// hotQueries draws the hot-hits query set: n distinct queries.
func hotQueries(g *queryGen, seed int64, n int) []*request {
	s := g.stream(newRand(seed, streamHot))
	seen := map[string]bool{}
	var out []*request
	for len(out) < n {
		q := s.next()
		key := q.path + string(q.body)
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// warmQueries are sent during set-up: one top-k query per table and k, at
// parameters the window never draws. They prepare every table in the
// engine's cache and run each class's code path once, and they make set-up
// mostly DP work rather than process start and fsync, which drift more on a
// shared host.
func warmQueries(tables []string, ks []int) []*request {
	var out []*request
	for _, name := range tables {
		for _, k := range ks {
			out = append(out, &request{kind: kindTopK, table: name, path: "/tables/" + name + "/topk",
				body: mustJSON(server.QueryRequest{K: k, Threshold: 0.01, MaxLines: 50})})
		}
	}
	return out
}

// verifySample draws perKind queries of every kind for the output check.
func verifySample(w workload, seed int64, hot []*request, perKind int) []*request {
	r := newRand(seed, streamVerify)
	var out []*request
	for _, kind := range queryKinds {
		if w.hotSet > 0 {
			var ofKind []*request
			for _, q := range hot {
				if q.kind == kind {
					ofKind = append(ofKind, q)
				}
			}
			for i := 0; i < perKind && len(ofKind) > 0; i++ {
				out = append(out, ofKind[r.IntN(len(ofKind))])
			}
			continue
		}
		for i := 0; i < perKind; i++ {
			c := class{kind: kind, table: r.IntN(len(w.gen.tables)), k: w.gen.ks[r.IntN(len(w.gen.ks))],
				semantic: baselineSemantics[r.IntN(len(baselineSemantics))]}
			out = append(out, w.gen.make(r, c))
		}
	}
	return out
}

// requestTimeout bounds every request: a hang counts as a failure instead
// of wedging the run.
const requestTimeout = 10 * time.Second
