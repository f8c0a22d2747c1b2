package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// row is one row of a unit's dynamic-programming table: either a plain
// uncertain tuple (one take branch) or a compressed rule tuple (§3.3.1, one
// take branch per constituent tuple). exit marks rows at which a top-k
// vector may end (the enabled exit points of §3.3.2/§3.3.3).
type row struct {
	skipFactor float64
	branches   []pmf.TakeBranch
	exit       bool
}

// skipTrue returns the boundary-aware skip factor for vector-probability
// tracking: the probability that this row contributes no tuple ranked
// strictly above the given boundary score. Members tied with the boundary
// are free to appear — the recorded vector stays a top-k vector regardless
// (Theorem 1) — which is what makes the tracked VecProb the exact vector
// probability even when ties and ME groups interact.
func (r row) skipTrue(bound float64) float64 {
	s := 1.0
	for _, b := range r.branches {
		if b.Shift > bound {
			s -= b.Factor
		}
	}
	if s < 0 {
		return 0
	}
	return s
}

// Distribution computes the score distribution of top-k vectors with the
// paper's main dynamic-programming algorithm (§3.2–§3.4).
//
// The table is scanned to the Theorem-2 depth n, decomposed into units —
// maximal lead-tuple regions and individual non-lead tuples — and one DP is
// run per unit, conditioning on the unit containing the vector's k-th (last)
// tuple. ME groups above the unit are compressed into rule tuples; exit
// points are enabled only at the unit's rows. The per-unit distributions are
// merged and coalesced to Params.MaxLines.
//
// The per-query working state comes from the process-wide Scratch pool, so
// steady-state repeated queries allocate near-zero.
func Distribution(p *uncertain.Prepared, params Params) (*Result, error) {
	s := GetScratch()
	defer PutScratch(s)
	return DistributionScratch(p, params, s)
}

// DistributionScratch is Distribution running against an explicit Scratch,
// for callers (the query engine, the sliding window) that manage scratch
// lifetime themselves. The result is bit-identical to running with a fresh
// zero Scratch.
func DistributionScratch(p *uncertain.Prepared, params Params, s *Scratch) (*Result, error) {
	if err := params.validate(p); err != nil {
		return nil, err
	}
	n := ScanDepth(p, params.K, params.Threshold)
	res := &Result{ScanDepth: n}
	units := p.UnitsPrefix(n)
	res.Units = len(units)
	s.grid.Arena = &s.arena
	perUnit, helpers := runUnits(p, units, params, dpWorkers(params, len(units), n), s, &res.Cells)
	dists := perUnit[:0]
	for _, d := range perUnit {
		if !d.IsEmpty() {
			dists = append(dists, d)
		}
	}
	res.Dist = pmf.MergeAll(dists)
	// The per-unit distributions are dead after the merge (MergeAll always
	// returns fresh storage); recycle them for the next query. dists is the
	// compacted filter of perUnit, so each distribution appears exactly once.
	for _, d := range dists {
		if d != res.Dist {
			s.putDist(d)
		}
	}
	s.co.Coalesce(res.Dist, params.MaxLines, params.CoalesceMode)
	if params.TrackVectors {
		res.Dist.NormalizeVectors()
	}
	// The DP allocated its vector nodes from the scratch arenas; the result
	// outlives this call, so copy its surviving vectors (at most
	// MaxLines × k nodes — a sliver of what the DP churned) out of the arenas
	// before they are recycled for the next query.
	res.Dist.DetachVectors()
	s.arena.Reset()
	for _, h := range helpers {
		h.arena.Reset()
		PutScratch(h)
	}
	return res, nil
}

// autoParallelWork is the minimum DP work estimate (scan depth × k) at
// which Parallelism == 0 fans out. BenchmarkDPCrossover at -cpu 2 on a
// 2-vCPU Xeon sets it: from work 96 up, two workers beat one at every point
// (by 2–20%); from 88 to 92 the two were within noise; below that, queries
// take well under a millisecond and on the synthetic table the second worker
// lost by up to 45%, its start-up and hand-off costing more than it saves.
// Of the topkd cold-mix classes (BenchmarkDPClasses), all but k=2 synth
// (work 88–96) fan out.
const autoParallelWork = 96

// dpWorkers resolves Params.Parallelism to a worker count: ≥ 2 is an
// explicit fan-out, 1 or negative forces serial, and 0 auto-tunes — serial
// for small queries (work below autoParallelWork), otherwise one worker per
// processor, never more than one per unit.
func dpWorkers(params Params, units, scanDepth int) int {
	w := params.Parallelism
	if w == 0 {
		if scanDepth*params.K < autoParallelWork {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > units {
		w = units
	}
	if w < 2 {
		return 1
	}
	return w
}

// runUnits runs the independent unit DPs on the given number of workers and
// returns their distributions by unit index, so the merge that follows is
// the same whatever the worker count; cell counts are summed atomically.
//
// Worker 0 is the caller, running on the query's own Scratch s. Each of the
// other workers−1 goroutines runs on a pooled Scratch, returned as helpers:
// their arenas back vector nodes of the per-unit results, so the caller
// releases them only after detaching the answer. With one worker no
// goroutine starts.
//
// Units are claimed from the last one down. A later unit has more prefix
// rows above it, so the largest units start first and the run ends on small
// ones, which keeps the workers' finishing times close.
func runUnits(p *uncertain.Prepared, units []uncertain.Unit, params Params, workers int, s *Scratch, cells *int) (perUnit []*pmf.Dist, helpers []*Scratch) {
	perUnit = make([]*pmf.Dist, len(units))
	var next, counted atomic.Int64
	next.Store(int64(len(units)))
	run := func(ws *Scratch) {
		local := 0
		for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
			perUnit[i] = runUnitDP(ws.buildUnitRows(p, units[i]), params, ws, &local)
		}
		counted.Add(int64(local))
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		ws := GetScratch()
		ws.grid.Arena = &ws.arena
		helpers = append(helpers, ws)
		go func() {
			defer wg.Done()
			run(ws)
		}()
	}
	run(s)
	wg.Wait()
	*cells += int(counted.Load())
	return perUnit, helpers
}

// buildUnitRows constructs the DP rows for one unit.
//
// For a lead-tuple region [a, b): the rows are the compressed groups of
// positions [0, a) followed by the region's tuples, each an enabled exit
// point. Region tuples are lead tuples, so every ME constraint that could
// affect a vector ending inside the region is confined to positions < a.
//
// For a non-lead tuple q: the rows are the compressed groups of positions
// [0, q) with q's own group removed (its higher-ranked mates must simply not
// appear, which conditioning on q's presence already implies), followed by
// the single row q, the only enabled exit point.
//
// The rows and their branches are built into s's buffers and stay valid until
// the next call. Each position above the unit adds at most one branch and
// each unit position exactly one, so reserving u.End branches up front means
// the buffer never moves while rows point into it.
func (s *Scratch) buildUnitRows(p *uncertain.Prepared, u uncertain.Unit) []row {
	skipGroup := -1
	if u.Kind == uncertain.UnitNonLead {
		skipGroup = p.Tuples[u.Start].Group
	}
	if cap(s.branches) < u.End {
		s.branches = make([]pmf.TakeBranch, 0, u.End)
	}
	branches, rows := s.branches[:0], s.rows[:0]
	for pos := 0; pos < u.Start; pos++ {
		// A group's lead is its first member in rank order, so visiting
		// leads only compresses each group above the unit exactly once.
		tp := &p.Tuples[pos]
		if !tp.Lead || tp.Group == skipGroup {
			continue
		}
		first := len(branches)
		mass := 0.0
		for _, m := range p.GroupMembers(tp.Group) {
			if m >= u.Start {
				break
			}
			mp := &p.Tuples[m]
			branches = append(branches, pmf.TakeBranch{Shift: mp.Score, Factor: mp.Prob, Tuple: m})
			mass += mp.Prob
		}
		r := row{skipFactor: 1 - mass, branches: branches[first:]}
		if r.skipFactor < 0 {
			r.skipFactor = 0
		}
		rows = append(rows, r)
	}
	for pos := u.Start; pos < u.End; pos++ {
		tp := &p.Tuples[pos]
		branches = append(branches, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: pos})
		rows = append(rows, row{skipFactor: 1 - tp.Prob, branches: branches[len(branches)-1:], exit: true})
	}
	s.branches, s.rows = branches, rows
	return rows
}

// runUnitDP executes one bottom-up dynamic program over rows.
//
// After processing rows[i..], dists[j] is the score distribution of choosing
// j tuples from those rows such that the deepest chosen row is an exit row;
// the probability of a line is the product of the chosen tuples'
// probabilities and the skip factors of all unchosen rows above the deepest
// chosen one — exactly the configuration sub-event semantics of Theorem 3.
// The answer is dists[k] after the top row.
//
// Column j at row i reaches the answer only through the i rows above it,
// each adding at most one tuple, so the columns j < k−i are dead and are
// never computed (nor counted in cells): up to k(k−1)/2 cells fewer per
// unit.
func runUnitDP(rows []row, params Params, s *Scratch, cells *int) *pmf.Dist {
	k := params.K
	dists, next := s.columns(k)
	exitPoint := s.exitPoint()
	// pool recycles the previous generation's distributions: after a row is
	// processed, the old column entries are unreachable and their line
	// storage can back the next row's outputs. When the local pool is dry,
	// distributions recycled from earlier units and queries (the Scratch
	// free list) are used before allocating.
	pool := s.pool[:0]
	fromPool := func() *pmf.Dist {
		if n := len(pool); n > 0 {
			d := pool[n-1]
			pool = pool[:n-1]
			return d
		}
		return s.getDist()
	}
	// One closure for the whole unit: binding r.skipTrue per row would
	// allocate a method value (a copy of the row) on every iteration.
	var cur *row
	var adjust func(float64) float64
	if params.TrackVectors {
		adjust = func(bound float64) float64 { return cur.skipTrue(bound) }
	}
	for i := len(rows) - 1; i >= 0; i-- {
		cur = &rows[i]
		r := cur
		for j := k; j >= max(1, k-i); j-- {
			var take *pmf.Dist
			if j == 1 {
				if r.exit {
					take = exitPoint
				}
			} else {
				take = dists[j-1]
			}
			d := s.grid.Combine(fromPool(), dists[j], r.skipFactor, take, r.branches,
				params.MaxLines, params.CoalesceMode, params.TrackVectors, adjust)
			next[j] = d
			*cells++
		}
		// Dead columns have no next entry, so this also retires them.
		for j := 1; j <= k; j++ {
			if dists[j] != nil {
				pool = append(pool, dists[j])
			}
			dists[j], next[j] = next[j], nil
		}
	}
	// Everything except the answer column is dead: recycle it.
	for _, d := range pool {
		s.putDist(d)
	}
	clear(pool)
	s.pool = pool[:0]
	for j := 1; j < k; j++ {
		s.putDist(dists[j])
	}
	ans := dists[k]
	clear(dists)
	if ans == nil {
		return pmf.New()
	}
	return ans
}
