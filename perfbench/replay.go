package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probtopk"
	"probtopk/internal/baselines"
	"probtopk/internal/core"
	"probtopk/internal/engine"
	"probtopk/internal/persist"
	"probtopk/internal/pmf"
	"probtopk/internal/server"
	"probtopk/internal/server/anscache"
	"probtopk/internal/server/fairness"
	"probtopk/internal/server/flight"
	"probtopk/internal/typical"
	"probtopk/internal/uncertain"
)

// The replay sends a window's request sequences through each layer's public
// functions in-process, in the order internal/server calls them, so every
// layer call can be wrapped in a span from outside the program. It mirrors
// serveQuery/computeAndFill (queries) and handleAppendTuples/maybeCheckpoint
// (appends) under the daemon's default configuration; the fidelity check
// compares its answers with the daemon's byte for byte, so the mirror cannot
// drift unnoticed.

// replayState is the in-process stand-in for one daemon.
type replayState struct {
	eng     *engine.Engine
	cache   *anscache.Cache
	fair    *fairness.Throttler
	fl      flight.Group[flightResult]
	man     *persist.Manager
	nshards int
	names   []string
	tabs    map[string]*atomic.Pointer[tabState]
	idx     map[string]*uncertain.Index // touched only by the single appender

	// Exact DP work, summed over every main-algorithm run.
	dpRuns, cells, depth, units atomic.Int64
}

type tabState struct {
	tab  *uncertain.Table
	snap *uncertain.Snapshot
}

type flightResult struct {
	data []byte
	err  error
}

var errShed = errors.New("shed by fairness")

// newReplayState opens a fresh persist.Manager on dir with the daemon's
// default options and installs the tables as PUT would.
func newReplayState(dir string, tables []table) (*replayState, error) {
	man, _, err := persist.Open(dir, persist.Options{
		Fsync: true, CheckpointEvery: 256, Shards: min(runtime.GOMAXPROCS(0), persist.MaxShards),
	})
	if err != nil {
		return nil, err
	}
	rs := &replayState{
		eng:     engine.NewPartitioned(probtopk.DefaultEngineCacheSize, man.Shards()),
		cache:   anscache.New(server.DefaultAnswerCacheSize),
		fair:    fairness.New(fairness.Config{}),
		man:     man,
		nshards: man.Shards(),
		tabs:    map[string]*atomic.Pointer[tabState]{},
		idx:     map[string]*uncertain.Index{},
	}
	for _, t := range tables {
		tab, err := uncertain.ReadCSV(bytes.NewReader(t.csv))
		if err != nil {
			man.Close()
			return nil, err
		}
		if err := man.LogPut(t.name, tab.Tuples()); err != nil {
			man.Close()
			return nil, err
		}
		st := &tabState{tab: tab, snap: tab.Snapshot()}
		if idx, err := uncertain.NewIndexOf(tab.Tuples()); err == nil {
			st.snap.SetIndexView(idx.Freeze())
			rs.idx[t.name] = idx
		}
		p := &atomic.Pointer[tabState]{}
		p.Store(st)
		rs.tabs[t.name] = p
		rs.names = append(rs.names, t.name)
	}
	return rs, nil
}

// resolved is a decoded query with the server's sentinels substituted.
type resolved struct {
	kind, semantic string
	k, c           int
	threshold      float64
	lines          int
	p              float64
	batch          []engine.Query
	fingerprint    string
}

// decodeQuery mirrors the server's strict JSON decoding and resolution for
// the fields the workloads send.
func decodeQuery(r *request) (*resolved, error) {
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	var q server.QueryRequest
	if err := dec.Decode(&q); err != nil {
		return nil, err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, errors.New("trailing data after the query object")
	}
	rq := &resolved{kind: r.kind, semantic: r.semantic, k: q.K, c: q.C, threshold: q.Threshold, lines: q.MaxLines, p: q.P}
	if rq.threshold == 0 {
		rq.threshold = 0.001
	}
	if rq.lines == 0 {
		rq.lines = probtopk.DefaultMaxLines
	}
	var b strings.Builder
	if r.kind == kindBaseline {
		fmt.Fprintf(&b, "baseline/%s?k=%d&p=%g", r.semantic, q.K, q.P)
	} else {
		fmt.Fprintf(&b, "%s?k=%d&thr=%g&lines=%d&c=%d", r.kind, q.K, rq.threshold, rq.lines, q.C)
	}
	for _, m := range q.Queries {
		rq.batch = append(rq.batch, engine.Query{K: m.K, Threshold: m.Threshold})
		fmt.Fprintf(&b, "&q=%d:%g", m.K, m.Threshold)
	}
	rq.fingerprint = b.String()
	return rq, nil
}

// query replays one query request.
func (rs *replayState) query(tr *tracer, client string, id int64, r *request) ([]byte, error) {
	root := tr.begin("request", -1, id)
	defer tr.end(root)
	sp := tr.begin("fairness.decide", root, id)
	shed := rs.fair.Decide(client)
	tr.end(sp)
	if shed {
		return nil, errShed
	}
	sp = tr.begin("server.decode", root, id)
	rq, err := decodeQuery(r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st := rs.tabs[r.table].Load()
	key := anscache.Key{Table: r.table, Snapshot: st.snap.ID(), Query: rq.fingerprint}
	sp = tr.begin("anscache.get", root, id)
	data, ok := rs.cache.Get(key)
	tr.end(sp)
	if ok {
		return data, nil
	}
	sp = tr.begin("flight.do", root, id)
	fkey := fmt.Sprintf("%s\x00%d\x00%s", r.table, st.snap.ID(), rq.fingerprint)
	res, _ := rs.fl.Do(fkey, func() flightResult {
		return rs.computeAndFill(tr, sp, id, client, st.snap, rq, key)
	})
	tr.end(sp)
	return res.data, res.err
}

func (rs *replayState) computeAndFill(tr *tracer, parent int, id int64, client string, snap *uncertain.Snapshot, rq *resolved, key anscache.Key) flightResult {
	sp := tr.begin("fairness.acquire", parent, id)
	release, ok := rs.fair.AcquireCompute(client)
	tr.end(sp)
	if !ok {
		return flightResult{err: errShed}
	}
	defer release()
	costStart := time.Now()
	sp = tr.begin("engine.prepare", parent, id)
	prep, err := rs.eng.PrepareSnapshot(snap)
	tr.end(sp)
	if err != nil {
		return flightResult{err: err}
	}
	build, err := rs.compute(tr, parent, id, prep, rq)
	if err != nil {
		return flightResult{err: err}
	}
	sp = tr.begin("server.encode", parent, id)
	data, err := json.Marshal(build())
	tr.end(sp)
	if err != nil {
		return flightResult{err: err}
	}
	sp = tr.begin("anscache.put", parent, id)
	rs.cache.Put(key, data, time.Since(costStart))
	tr.end(sp)
	return flightResult{data: data}
}

// compute runs the layer that answers rq and returns the builder of the
// response value; building it is the server's encode work.
func (rs *replayState) compute(tr *tracer, parent int, id int64, prep *uncertain.Prepared, rq *resolved) (func() any, error) {
	params := core.Params{K: rq.k, Threshold: rq.threshold, MaxLines: rq.lines, TrackVectors: true}
	switch rq.kind {
	case kindTopK, kindTypical:
		sp := tr.begin("core.dp", parent, id)
		res, err := rs.eng.DistributionPrepared(prep, params)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rs.count(res)
		if rq.kind == kindTopK {
			return func() any { return distResponse(rq.k, res, prep) }, nil
		}
		sp = tr.begin("typical.select", parent, id)
		ans, err := typical.Select(res.Dist, rq.c)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return func() any {
			resp := server.TypicalResponse{K: rq.k, C: rq.c, Cost: ans.Cost, Lines: []server.LineJSON{}}
			pub := make([]probtopk.Line, 0, len(ans.Lines))
			for _, l := range ans.Lines {
				lj := lineJSON(prep, l)
				resp.Lines = append(resp.Lines, lj)
				pub = append(pub, probtopk.Line{Score: lj.Score, Prob: lj.Prob, Vector: lj.Vector, VectorProb: lj.VectorProb})
			}
			resp.SpreadMean, resp.SpreadMax = probtopk.TypicalSpread(pub)
			return resp
		}, nil
	case kindBatch:
		sp := tr.begin("core.dp", parent, id)
		results, err := rs.eng.BatchPrepared(prep, params, rq.batch, 0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			rs.count(res)
		}
		return func() any {
			resp := server.BatchResponse{Results: make([]server.DistributionResponse, len(results))}
			for i, res := range results {
				resp.Results[i] = distResponse(rq.batch[i].K, res, prep)
			}
			return resp
		}, nil
	case kindBaseline:
		sp := tr.begin("baselines."+rq.semantic, parent, id)
		resp, err := baselineAnswer(prep, rq)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return func() any { return resp }, nil
	}
	return nil, fmt.Errorf("not a query kind: %q", rq.kind)
}

func (rs *replayState) count(res *core.Result) {
	rs.dpRuns.Add(1)
	rs.cells.Add(int64(res.Cells))
	rs.depth.Add(int64(res.ScanDepth))
	rs.units.Add(int64(res.Units))
}

func lineJSON(prep *uncertain.Prepared, l pmf.Line) server.LineJSON {
	out := server.LineJSON{Score: l.Score, Prob: l.Prob, VectorProb: l.VecProb}
	if l.Vec != nil {
		out.Vector = prep.IDs(l.Vec.Slice())
	}
	return out
}

func distResponse(k int, res *core.Result, prep *uncertain.Prepared) server.DistributionResponse {
	d := res.Dist
	resp := server.DistributionResponse{K: k, ScanDepth: res.ScanDepth, TotalMass: d.TotalMass(), Lines: []server.LineJSON{}}
	for _, l := range d.Lines() {
		resp.Lines = append(resp.Lines, lineJSON(prep, l))
	}
	if len(resp.Lines) > 0 {
		resp.Stats = &server.DistStatsJSON{Mean: d.Mean(), StdDev: d.StdDev(), Median: d.Median(), Min: d.Min(), Max: d.Max()}
	}
	return resp
}

// baselineAnswer computes a §5 baseline with internal/baselines directly.
func baselineAnswer(prep *uncertain.Prepared, rq *resolved) (server.BaselineResponse, error) {
	resp := server.BaselineResponse{Semantic: rq.semantic, K: rq.k}
	tupleProbs := func(positions []int, probs []float64) []server.TupleProbJSON {
		out := []server.TupleProbJSON{}
		for _, pos := range positions {
			tp := prep.Tuples[pos]
			out = append(out, server.TupleProbJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, InTopK: probs[pos]})
		}
		return out
	}
	switch rq.semantic {
	case "ukranks":
		rows, err := baselines.UKRanks(prep, rq.k)
		if err != nil {
			return resp, err
		}
		resp.Ranks = []server.RankedTupleJSON{}
		for _, a := range rows {
			rt := server.RankedTupleJSON{Rank: a.Rank, Prob: a.Prob}
			if a.Position >= 0 {
				rt.ID, rt.Score = prep.Tuples[a.Position].ID, prep.Tuples[a.Position].Score
			}
			resp.Ranks = append(resp.Ranks, rt)
		}
	case "ptk", "globaltopk":
		var positions []int
		var err error
		if rq.semantic == "ptk" {
			resp.P = rq.p
			positions, err = baselines.PTk(prep, rq.k, rq.p)
		} else {
			positions, err = baselines.GlobalTopk(prep, rq.k)
		}
		if err != nil {
			return resp, err
		}
		probs, err := baselines.InTopkProbs(prep, rq.k)
		if err != nil {
			return resp, err
		}
		resp.Tuples = tupleProbs(positions, probs)
	case "intopk":
		probs, err := baselines.InTopkProbs(prep, rq.k)
		if err != nil {
			return resp, err
		}
		positions := make([]int, prep.Len())
		for i := range positions {
			positions[i] = i
		}
		resp.Tuples = tupleProbs(positions, probs)
	case "expectedrank":
		positions, err := baselines.ExpectedRankTopk(prep, rq.k)
		if err != nil {
			return resp, err
		}
		ranks := baselines.ExpectedRanks(prep)
		resp.Expected = []server.ExpectedRankJSON{}
		for _, pos := range positions {
			tp := prep.Tuples[pos]
			resp.Expected = append(resp.Expected, server.ExpectedRankJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Rank: ranks[pos]})
		}
	default:
		return resp, fmt.Errorf("unknown baseline %q", rq.semantic)
	}
	return resp, nil
}

// appendTuples replays one append request.
func (rs *replayState) appendTuples(tr *tracer, client string, id int64, r *request) error {
	root := tr.begin("request", -1, id)
	defer tr.end(root)
	sp := tr.begin("fairness.decide", root, id)
	shed := rs.fair.Decide(client)
	tr.end(sp)
	if shed {
		return errShed
	}
	sp = tr.begin("server.decode", root, id)
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	var body server.TableRequest
	err := dec.Decode(&body)
	tr.end(sp)
	if err != nil {
		return err
	}
	ptr := rs.tabs[r.table]
	old := ptr.Load()

	sp = tr.begin("uncertain.clone_validate", root, id)
	candidate := old.tab.Clone()
	appended := make([]uncertain.Tuple, 0, len(body.Tuples))
	for _, tp := range body.Tuples {
		appended = append(appended, uncertain.Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group})
		candidate.Add(appended[len(appended)-1])
	}
	err = candidate.Validate()
	if err == nil {
		err = checkUniqueIDs(candidate)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("persist.log_append", root, id)
	err = rs.man.LogAppend(r.table, appended)
	tr.end(sp)
	if err != nil {
		return err
	}
	next := &tabState{tab: candidate, snap: candidate.Snapshot()}
	if idx := rs.idx[r.table]; idx != nil {
		sp = tr.begin("uncertain.index_insert", root, id)
		for _, tp := range appended {
			if _, err = idx.Insert(tp); err != nil {
				break
			}
		}
		if err == nil {
			next.snap.SetIndexView(idx.Freeze())
		} else {
			delete(rs.idx, r.table)
		}
		tr.end(sp)
	}
	ptr.Store(next)

	sp = tr.begin("anscache.invalidate", root, id)
	rs.cache.InvalidateTable(r.table)
	tr.end(sp)
	sp = tr.begin("engine.invalidate", root, id)
	rs.eng.Invalidate(old.tab)
	tr.end(sp)
	if rs.man.CheckpointDue() {
		sp = tr.begin("persist.checkpoint", root, id)
		err = rs.checkpoint()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.begin("server.encode", root, id)
	_, err = json.Marshal(server.TableInfo{Name: r.table, Tuples: candidate.Len(), Version: candidate.Version(), Snapshot: next.snap.ID()})
	tr.end(sp)
	return err
}

func checkUniqueIDs(t *uncertain.Table) error {
	seen := make(map[string]bool, t.Len())
	for _, tp := range t.Tuples() {
		if seen[tp.ID] {
			return fmt.Errorf("duplicate tuple id %q", tp.ID)
		}
		seen[tp.ID] = true
	}
	return nil
}

// checkpoint mirrors the server's shard-by-shard checkpoint. The replay has
// one appender, so no mutation can run between a shard's watermark and the
// gathering of its states.
func (rs *replayState) checkpoint() error {
	states := map[string]*uncertain.Snapshot{}
	wms := make([]uint64, rs.nshards)
	for shard := range wms {
		wm, err := rs.man.BeginShardCheckpoint(shard)
		if err != nil {
			return err
		}
		wms[shard] = wm
		for _, name := range rs.names {
			if persist.ShardOf(name, rs.nshards) == shard {
				states[name] = rs.tabs[name].Load().snap
			}
		}
	}
	return rs.man.CompleteCheckpoint(states, wms)
}

// replayRun is what one replay of a window measured.
type replayRun struct {
	byKind    map[string][]time.Duration // request time per kind
	blocks    [][]span                   // traced runs: one block per replay goroutine
	queries   int
	reqTime   time.Duration // summed request time
	allocMB   float64       // TotalAlloc growth over the replay
	dpRuns    int64
	cells     int64
	depth     int64
	units     int64
	state     *replayState
	failures  int
	firstFail error
}

// runReplay replays win on a fresh replayState in dir: each closed-loop
// client's sequence on its own goroutine, as fast as answers come, and the
// acknowledged appends on the window's schedule. traced records spans.
func runReplay(dir string, tables []table, warm []*request, win *window, traced bool) (*replayRun, error) {
	rs, err := newReplayState(dir, tables)
	if err != nil {
		return nil, err
	}
	for i, r := range warm {
		if _, err := rs.query(nil, "perfbench-warm", int64(i), r); err != nil {
			rs.man.Close()
			return nil, fmt.Errorf("replay warm-up %s: %w", r.path, err)
		}
	}
	for _, c := range []*atomic.Int64{&rs.dpRuns, &rs.cells, &rs.depth, &rs.units} {
		c.Store(0)
	}
	type result struct {
		tr      *tracer
		byKind  map[string][]time.Duration
		reqTime time.Duration
		queries int
		fails   int
		err     error
	}
	var streams []func(res *result)
	for i, c := range win.clients {
		base := int64(i+1) << 40
		streams = append(streams, func(res *result) {
			for j, r := range c.sent {
				t0 := time.Now()
				_, err := rs.query(res.tr, queryClient(i), base+int64(j), r)
				d := time.Since(t0)
				res.byKind[r.kind] = append(res.byKind[r.kind], d)
				res.reqTime += d
				res.queries++
				if err != nil {
					res.fails++
					if res.err == nil {
						res.err = fmt.Errorf("%s %s: %w", r.path, r.body, err)
					}
				}
			}
		})
	}
	streams = append(streams, func(res *result) {
		a := win.appends
		start := time.Now()
		for j, r := range a.sent {
			if !a.samples[j].ok {
				continue // the daemon did not apply it either
			}
			if d := time.Until(start.Add(a.due[j])); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			err := rs.appendTuples(res.tr, appendClient, int64(j), r)
			d := time.Since(t0)
			res.byKind[kindAppend] = append(res.byKind[kindAppend], d)
			res.reqTime += d
			if err != nil {
				res.fails++
				if res.err == nil {
					res.err = fmt.Errorf("%s: %w", r.path, err)
				}
			}
		}
	})
	results := make([]*result, len(streams))
	epoch := time.Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	for i, s := range streams {
		res := &result{byKind: map[string][]time.Duration{}}
		if traced {
			res.tr = &tracer{epoch: epoch}
		}
		results[i] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			s(res)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	run := &replayRun{byKind: map[string][]time.Duration{}, state: rs,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		dpRuns:  rs.dpRuns.Load(), cells: rs.cells.Load(), depth: rs.depth.Load(), units: rs.units.Load()}
	for _, res := range results {
		for k, v := range res.byKind {
			run.byKind[k] = append(run.byKind[k], v...)
		}
		if res.tr != nil {
			run.blocks = append(run.blocks, res.tr.spans)
		}
		run.queries += res.queries
		run.reqTime += res.reqTime
		run.failures += res.fails
		if run.firstFail == nil {
			run.firstFail = res.err
		}
	}
	return run, nil
}

// checkFidelity answers the verify sample through the replay's final state
// and requires the daemon's bytes.
func checkFidelity(rs *replayState, answers []answer) error {
	for i, a := range answers {
		got, err := rs.query(nil, "perfbench-verify", int64(i), a.req)
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", a.req.path, a.req.body, err)
		}
		if !bytes.Equal(got, a.body) {
			return fmt.Errorf("replay drifted from the daemon on %s %s:\n daemon %s\n replay %s", a.req.path, a.req.body, a.body, got)
		}
	}
	return nil
}
