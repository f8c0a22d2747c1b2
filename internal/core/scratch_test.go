package core

import (
	"testing"

	"probtopk/internal/pmf"
)

// TestScratchTrim: a Scratch going back to the pool keeps row buffers sized
// for ordinary scans but drops those a huge scan grew, rows and branches
// together since rows point into the branch buffer.
func TestScratchTrim(t *testing.T) {
	s := &Scratch{rows: make([]row, 0, maxKeptRows), branches: make([]pmf.TakeBranch, 0, maxKeptRows)}
	s.trim()
	if cap(s.rows) != maxKeptRows || cap(s.branches) != maxKeptRows {
		t.Fatalf("buffers at the bound were dropped: rows %d, branches %d", cap(s.rows), cap(s.branches))
	}
	s = &Scratch{rows: make([]row, 0, 8), branches: make([]pmf.TakeBranch, 0, maxKeptRows+1)}
	s.trim()
	if s.rows != nil || s.branches != nil {
		t.Fatalf("oversized buffers kept: rows %d, branches %d", cap(s.rows), cap(s.branches))
	}
}
