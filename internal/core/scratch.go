package core

import (
	"sync"

	"probtopk/internal/pmf"
)

// maxFreeDists bounds the number of recycled distributions a Scratch retains
// between queries, so a one-off huge query cannot pin its working set in the
// pool forever.
const maxFreeDists = 64

// maxKeptRows bounds the unit-row and branch buffers a pooled Scratch keeps
// (in entries; about 40 and 24 bytes each), for the same reason: a scan of a
// few hundred tuples fits many times over, an exact scan of a huge table
// does not pin its buffers after the query.
const maxKeptRows = 1 << 14

// Scratch is the reusable per-query working state of the main dynamic
// program: the fused combine/coalesce buffers, the closest-pair coalescing
// buffers, and a free list of recycled intermediate distributions. A zero
// Scratch is ready to use; a Scratch must not be used concurrently.
//
// Steady-state query serving obtains Scratches from a process-wide sync.Pool
// via GetScratch/PutScratch, which makes repeated queries allocate near-zero:
// the DP's intermediate distributions, grid cells and heap storage all come
// from earlier queries.
type Scratch struct {
	grid pmf.GridCombiner
	co   pmf.Coalescer
	free []*pmf.Dist
	exit *pmf.Dist
	// arena backs every vector node the DP allocates for one query
	// (grid.Arena points at it while a query runs). DistributionScratch
	// detaches the surviving vectors from the result and resets the arena
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

// trim drops row buffers grown past maxKeptRows, rows and branches together
// since rows point into the branch buffer.
func (s *Scratch) trim() {
	if cap(s.rows) > maxKeptRows || cap(s.branches) > maxKeptRows {
		s.rows, s.branches = nil, nil
	}
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

// putDist recycles a distribution whose contents are no longer reachable.
func (s *Scratch) putDist(d *pmf.Dist) {
	if d == nil || len(s.free) >= maxFreeDists {
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
