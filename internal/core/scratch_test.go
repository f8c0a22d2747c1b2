package core

import (
	"testing"

	"probtopk/internal/pmf"
	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

// TestScratchTrim: a Scratch going back to the pool keeps buffers sized for
// ordinary scans but drops those a huge query grew: rows and branches
// together, since rows point into the branch buffer, and the per-unit
// buffers. Its free list never takes a distribution above the bound, so an
// exact query cannot pin its huge intermediate distributions there.
func TestScratchTrim(t *testing.T) {
	s := &Scratch{rows: make([]row, 0, maxKeptRows), branches: make([]pmf.TakeBranch, 0, maxKeptRows),
		jobs: make([]uncertain.Unit, 0, maxKeptRows), done: make([]unitAnswer, 0, maxKeptRows)}
	s.trim()
	if cap(s.rows) != maxKeptRows || cap(s.branches) != maxKeptRows || cap(s.jobs) != maxKeptRows || cap(s.done) != maxKeptRows {
		t.Fatalf("buffers at the bound were dropped: rows %d, branches %d, jobs %d, done %d",
			cap(s.rows), cap(s.branches), cap(s.jobs), cap(s.done))
	}
	s = &Scratch{rows: make([]row, 0, 8), branches: make([]pmf.TakeBranch, 0, maxKeptRows+1),
		jobs: make([]uncertain.Unit, 0, 8), done: make([]unitAnswer, 0, maxKeptRows+1)}
	s.trim()
	if s.rows != nil || s.branches != nil || s.jobs != nil || s.done != nil {
		t.Fatalf("oversized buffers kept: rows %d, branches %d, jobs %d, done %d",
			cap(s.rows), cap(s.branches), cap(s.jobs), cap(s.done))
	}

	lines := func(n int) *pmf.Dist {
		ls := make([]pmf.Line, n)
		for i := range ls {
			ls[i] = pmf.Line{Score: float64(i), Prob: 1 / float64(n)}
		}
		return pmf.FromLines(ls)
	}
	s = new(Scratch)
	s.putDist(lines(maxKeptRows))
	s.putDist(lines(maxKeptRows + 1))
	if len(s.free) != 1 || s.free[0].Cap() != maxKeptRows {
		t.Fatalf("free list kept %d distributions, want only the one at the bound", len(s.free))
	}
}

// TestColdQueryAllocs guards the allocation-free merge tail: once its
// Scratch is warm, a serial k=2 query on the 200-tuple synthetic table
// (pτ 3·10⁻³, 60 lines, vectors) allocates little beyond its result (about
// 10 allocations; a merge that allocates per tournament node makes ~200).
// The warm-up is long because a recycled distribution grows only when a
// larger answer lands on it, which takes a couple of dozen queries to
// settle.
func TestColdQueryAllocs(t *testing.T) {
	tab, err := synth.Generate(synth.Config{Seed: 1}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	p := prep(t, tab)
	params := Params{K: 2, Threshold: 3e-3, MaxLines: 60, TrackVectors: true, Parallelism: 1}
	s := new(Scratch)
	query := func() {
		if _, err := DistributionScratch(p, params, s); err != nil {
			t.Fatal(err)
		}
	}
	for range 30 {
		query()
	}
	if allocs := testing.AllocsPerRun(20, query); allocs > 32 {
		t.Fatalf("%.0f allocations per warm query, want ≤ 32", allocs)
	}
}
