package core

import (
	"sync"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// maxFreeDists bounds the number of recycled distributions a Scratch retains
// between queries, so a one-off huge query cannot pin its working set in the
// pool forever.
const maxFreeDists = 64

// maxKeptRows bounds every buffer a pooled Scratch keeps, in entries: the
// unit-row and branch buffers (about 40 and 24 bytes each), the lines of
// each recycled distribution, and the combine, merge and coalescing buffers.
// The reason is the same: a scan of a few hundred tuples fits many times
// over, an exact query over a huge table does not pin its buffers after the
// query.
const maxKeptRows = 1 << 14

// Scratch is the reusable per-query working state of the main dynamic
// program: the fused combine/coalesce buffers, the merge and closest-pair
// coalescing buffers of the final answer, and a free list of recycled
// intermediate distributions. A zero Scratch is ready to use; a Scratch must
// not be used concurrently.
//
// Steady-state query serving obtains Scratches from a process-wide sync.Pool
// via GetScratch/PutScratch, which makes repeated queries allocate near-zero:
// the DP's intermediate distributions, grid cells and heap storage all come
// from earlier queries.
type Scratch struct {
	grid  pmf.GridCombiner
	merge pmf.Merger
	co    pmf.Coalescer
	free  []*pmf.Dist
	exit  *pmf.Dist
	// arena backs every vector node the DP allocates for one query
	// (grid.Arena points at it while a query runs). DistributionBatch
	// detaches the surviving vectors from every result and resets the arena
	// before returning, so the hundreds of thousands of intermediate nodes
	// per query never reach the garbage collector.
	arena pmf.VectorArena

	// Buffers the DP refills for every unit: the unit's rows and their take
	// branches (buildUnitRows), the current and next DP columns, and the
	// distributions the current unit retired (runUnitDP).
	rows     []row
	branches []pmf.TakeBranch
	cols     []*pmf.Dist
	pool     []*pmf.Dist

	// Buffers DistributionBatch refills for every batch: the answer plans,
	// the units to run, their answers, the helper Scratches of a fan-out and
	// the unit answers of the answer being merged.
	plans   []answerPlan
	jobs    []uncertain.Unit
	done    []unitAnswer
	helpers []*Scratch
	merging []*pmf.Dist
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the process-wide pool.
func PutScratch(s *Scratch) {
	if s != nil {
		s.trim()
		scratchPool.Put(s)
	}
}

// trim drops buffers grown past maxKeptRows entries: rows and branches
// together, since rows point into the branch buffer, the per-unit buffers,
// and the combine, merge and coalescing buffers. Recycled distributions are
// bounded on the way in (putDist).
func (s *Scratch) trim() {
	if cap(s.rows) > maxKeptRows || cap(s.branches) > maxKeptRows {
		s.rows, s.branches = nil, nil
	}
	if cap(s.jobs) > maxKeptRows || cap(s.done) > maxKeptRows || cap(s.merging) > maxKeptRows {
		s.jobs, s.done, s.merging = nil, nil, nil
	}
	s.grid.Trim(maxKeptRows)
	s.merge.Trim(maxKeptRows)
	s.co.Trim(maxKeptRows)
}

// getDist pops a recycled distribution, or returns nil when none is free
// (the combiner then allocates a fresh one).
func (s *Scratch) getDist() *pmf.Dist {
	if n := len(s.free); n > 0 {
		d := s.free[n-1]
		s.free = s.free[:n-1]
		return d
	}
	return nil
}

// putDist recycles a distribution whose contents are no longer reachable,
// unless the free list is full or d holds more than maxKeptRows lines.
func (s *Scratch) putDist(d *pmf.Dist) {
	if d == nil || len(s.free) >= maxFreeDists || d.Cap() > maxKeptRows {
		return
	}
	d.Reset()
	s.free = append(s.free, d)
}

// columns returns the current and next DP columns for a k-column run, both
// all nil; runUnitDP leaves them all nil when it returns.
func (s *Scratch) columns(k int) (cur, next []*pmf.Dist) {
	if cap(s.cols) < 2*(k+1) {
		s.cols = make([]*pmf.Dist, 2*(k+1))
	}
	c := s.cols[:2*(k+1)]
	return c[:k+1], c[k+1:]
}

// exitPoint returns the shared single-line distribution {(0, 1)} used as the
// take source of enabled exit rows. It is read-only for the DP, so one
// instance per Scratch suffices.
func (s *Scratch) exitPoint() *pmf.Dist {
	if s.exit == nil {
		s.exit = pmf.PointVec(0, 1, nil, 1)
	}
	return s.exit
}
