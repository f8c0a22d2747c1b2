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
// lifetime themselves: the one-threshold case of DistributionBatch. The
// result is bit-identical to running with a fresh zero Scratch.
func DistributionScratch(p *uncertain.Prepared, params Params, s *Scratch) (*Result, error) {
	res, err := DistributionBatch(p, params, []float64{params.Threshold}, s)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// answerPlan is how DistributionBatch assembles one answer from the batch's
// unit answers: the first cut units of the deepest scan, then the truncated
// boundary unit of a shallower scan when it has one.
type answerPlan struct {
	depth, units, cut int
	boundary          int // index of the boundary unit's answer; -1 for none
	same              int // index of an earlier answer of equal depth; -1 for none
}

// DistributionBatch answers one main-algorithm query per threshold; every
// other setting comes from params, whose Threshold is ignored. Result i
// answers thresholds[i] and is bit-identical, counters included, to
// DistributionScratch with that threshold.
//
// A unit's DP depends on K, the line cap, the coalesce mode and vector
// tracking, but not on pτ: the threshold only sets the Theorem-2 scan depth,
// and a shallower scan's units are the deepest scan's first units, the last
// one possibly truncated at the shallower depth. So the batch runs the
// deepest scan's unit DPs, plus the truncated boundary unit of each
// shallower depth, once, on params.Parallelism workers, and assembles every
// answer from its own units: merged in unit order (pmf.Merger), coalesced
// to MaxLines, then copied out of the scratch buffers. Unit answers are
// shared between answers and never modified.
func DistributionBatch(p *uncertain.Prepared, params Params, thresholds []float64, s *Scratch) ([]*Result, error) {
	if len(thresholds) == 0 {
		return nil, nil
	}
	for _, t := range thresholds {
		params.Threshold = t
		if err := params.validate(p); err != nil {
			return nil, err
		}
	}
	deepest := 0
	plans := s.plans[:0]
	for _, t := range thresholds {
		d := ScanDepth(p, params.K, t)
		plans = append(plans, answerPlan{depth: d, boundary: -1, same: -1})
		deepest = max(deepest, d)
	}
	units := p.UnitsPrefix(deepest)
	jobs := append(s.jobs[:0], units...)
	for i := range plans {
		pl := &plans[i]
		for j := range plans[:i] {
			if plans[j].depth == pl.depth {
				pl.same = j
				break
			}
		}
		if pl.same >= 0 {
			continue
		}
		own := units
		if pl.depth < deepest {
			own = p.UnitsPrefix(pl.depth)
		}
		pl.units, pl.cut = len(own), len(own)
		if c := len(own) - 1; c >= 0 && own[c] != units[c] {
			pl.boundary, pl.cut = len(jobs), c
			jobs = append(jobs, own[c])
		}
	}
	s.plans, s.jobs = plans, jobs
	s.grid.Arena = &s.arena
	done, helpers := runUnits(p, jobs, params, dpWorkers(params, len(jobs), deepest), s)

	results := make([]*Result, len(plans))
	for i, pl := range plans {
		if pl.same >= 0 {
			// Equal depth, equal units: the same answer. The copy shares the
			// detached (immutable) vectors.
			prev := results[pl.same]
			results[i] = &Result{Dist: prev.Dist.Clone(), ScanDepth: prev.ScanDepth, Units: prev.Units, Cells: prev.Cells}
			continue
		}
		res := &Result{ScanDepth: pl.depth, Units: pl.units}
		var boundary []unitAnswer
		if pl.boundary >= 0 {
			boundary = done[pl.boundary : pl.boundary+1]
		}
		own := s.merging[:0]
		for _, part := range [2][]unitAnswer{done[:pl.cut], boundary} {
			for _, a := range part {
				res.Cells += a.cells
				if !a.dist.IsEmpty() {
					own = append(own, a.dist)
				}
			}
		}
		merged := s.merge.MergeAll(own)
		clear(own)
		s.merging = own[:0]
		s.co.Coalesce(merged, params.MaxLines, params.CoalesceMode)
		// Only the at most MaxLines surviving lines leave the scratch buffers.
		res.Dist = merged.Clone()
		if params.TrackVectors {
			res.Dist.NormalizeVectors()
		}
		// The DP allocated its vector nodes from the scratch arenas; the
		// result outlives this call, so copy its surviving vectors (at most
		// MaxLines × k nodes — a sliver of what the DP churned) out of the
		// arenas before they are recycled for the next query.
		res.Dist.DetachVectors()
		results[i] = res
	}

	// Every answer is detached: recycle the unit answers into the Scratch
	// whose free list the DP drew them from, then the arenas and helpers.
	for _, a := range done {
		a.owner.putDist(a.dist)
	}
	clear(done)
	s.arena.Reset()
	for _, h := range helpers {
		h.arena.Reset()
		PutScratch(h)
	}
	clear(helpers)
	return results, nil
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

// unitAnswer is one unit DP's answer, its cell count, and the Scratch that
// built it — whose free list the answer goes back to.
type unitAnswer struct {
	dist  *pmf.Dist
	cells int
	owner *Scratch
}

// runUnits runs the independent unit DPs on the given number of workers and
// returns their answers by unit index, so the merges that follow are the
// same whatever the worker count.
//
// Worker 0 is the caller, running on the query's own Scratch s. Each of the
// other workers−1 goroutines runs on a pooled Scratch, returned as helpers:
// their arenas back vector nodes of the unit answers, so the caller
// releases them only after detaching every result. With one worker no
// goroutine starts. Both returned slices are s's buffers.
//
// Units are claimed from the last one down. A later unit has more prefix
// rows above it, so the largest units start first and the run ends on small
// ones, which keeps the workers' finishing times close.
func runUnits(p *uncertain.Prepared, units []uncertain.Unit, params Params, workers int, s *Scratch) (done []unitAnswer, helpers []*Scratch) {
	if cap(s.done) < len(units) {
		s.done = make([]unitAnswer, len(units))
	}
	done = s.done[:len(units)]
	helpers = s.helpers[:0]
	if workers < 2 {
		for i := len(units) - 1; i >= 0; i-- {
			done[i] = runUnit(p, units[i], params, s)
		}
		return done, helpers
	}
	var next atomic.Int64
	next.Store(int64(len(units)))
	run := func(ws *Scratch) {
		for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
			done[i] = runUnit(p, units[i], params, ws)
		}
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
	s.helpers = helpers
	return done, helpers
}

// runUnit runs one unit's DP on ws.
func runUnit(p *uncertain.Prepared, u uncertain.Unit, params Params, ws *Scratch) unitAnswer {
	a := unitAnswer{owner: ws}
	a.dist = runUnitDP(ws.buildUnitRows(p, u), params, ws, &a.cells)
	return a
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
