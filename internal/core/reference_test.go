package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// refDistribution is the main algorithm as it stood before the DP skipped
// dead columns, built its rows into Scratch buffers and merged in reusable
// buffers: serial, every column of every row computed, rows allocated per
// unit with a map as the seen-set, the unit answers unioned by a test-local
// tournament. It is the reference the production path must match bit for
// bit. Its Cells counts only the live cells, those a pruned DP computes.
func refDistribution(p *uncertain.Prepared, params Params) *Result {
	s := new(Scratch)
	s.grid.Arena = &s.arena
	n := ScanDepth(p, params.K, params.Threshold)
	res := &Result{ScanDepth: n}
	units := p.UnitsPrefix(n)
	res.Units = len(units)
	var dists []*pmf.Dist
	for _, u := range units {
		if d := refRunUnitDP(refBuildUnitRows(p, u), params, s, &res.Cells); !d.IsEmpty() {
			dists = append(dists, d)
		}
	}
	res.Dist = refMergeAll(dists)
	s.co.Coalesce(res.Dist, params.MaxLines, params.CoalesceMode)
	if params.TrackVectors {
		res.Dist.NormalizeVectors()
	}
	res.Dist.DetachVectors()
	return res
}

func refBuildUnitRows(p *uncertain.Prepared, u uncertain.Unit) []row {
	var rows []row
	var skipGroup = -1
	if u.Kind == uncertain.UnitNonLead {
		skipGroup = p.Tuples[u.Start].Group
	}
	seen := make(map[int]bool)
	for pos := 0; pos < u.Start; pos++ {
		g := p.Tuples[pos].Group
		if g == skipGroup || seen[g] {
			continue
		}
		seen[g] = true
		var r row
		mass := 0.0
		for _, m := range p.GroupMembers(g) {
			if m >= u.Start {
				break
			}
			tp := p.Tuples[m]
			r.branches = append(r.branches, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: m})
			mass += tp.Prob
		}
		if r.skipFactor = 1 - mass; r.skipFactor < 0 {
			r.skipFactor = 0
		}
		rows = append(rows, r)
	}
	for pos := u.Start; pos < u.End; pos++ {
		tp := p.Tuples[pos]
		rows = append(rows, row{
			skipFactor: 1 - tp.Prob,
			branches:   []pmf.TakeBranch{{Shift: tp.Score, Factor: tp.Prob, Tuple: pos}},
			exit:       true,
		})
	}
	return rows
}

func refRunUnitDP(rows []row, params Params, s *Scratch, cells *int) *pmf.Dist {
	k := params.K
	dists := make([]*pmf.Dist, k+1)
	next := make([]*pmf.Dist, k+1)
	var cur *row
	var adjust func(float64) float64
	if params.TrackVectors {
		adjust = func(bound float64) float64 { return cur.skipTrue(bound) }
	}
	for i := len(rows) - 1; i >= 0; i-- {
		cur = &rows[i]
		for j := k; j >= 1; j-- {
			var take *pmf.Dist
			if j == 1 {
				if cur.exit {
					take = s.exitPoint()
				}
			} else {
				take = dists[j-1]
			}
			next[j] = s.grid.Combine(nil, dists[j], cur.skipFactor, take, cur.branches,
				params.MaxLines, params.CoalesceMode, params.TrackVectors, adjust)
			if j >= k-i {
				*cells++ // a live cell: it can still reach column k
			}
		}
		copy(dists, next)
	}
	if dists[k] == nil {
		return pmf.New()
	}
	return dists[k]
}

// refMergeAll is the tournament union the main algorithm has always used:
// pairs (0, 1), (2, 3), … with an odd last input passing through, round
// after round; each union takes the lower score first (the left input's on
// a tie) and adds an Eps-equal score into the previous line, keeping the
// vector with the strictly higher vector probability.
func refMergeAll(ds []*pmf.Dist) *pmf.Dist {
	if len(ds) == 0 {
		return pmf.New()
	}
	work := make([][]pmf.Line, len(ds))
	for i, d := range ds {
		work[i] = d.Lines()
	}
	for len(work) > 1 {
		var merged [][]pmf.Line
		for i := 0; i < len(work); i += 2 {
			if i+1 < len(work) {
				merged = append(merged, refMerge(work[i], work[i+1]))
			} else {
				merged = append(merged, work[i])
			}
		}
		work = merged
	}
	// The lines are sorted with no two within Eps, so FromLines keeps them
	// as they are.
	return pmf.FromLines(work[0])
}

func refMerge(a, b []pmf.Line) []pmf.Line {
	var out []pmf.Line
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var l pmf.Line
		if j >= len(b) || (i < len(a) && a[i].Score <= b[j].Score) {
			l = a[i]
			i++
		} else {
			l = b[j]
			j++
		}
		if n := len(out); n > 0 && math.Abs(out[n-1].Score-l.Score) <= pmf.Eps*max(1, math.Abs(out[n-1].Score), math.Abs(l.Score)) {
			out[n-1].Prob += l.Prob
			if l.VecProb > out[n-1].VecProb {
				out[n-1].Vec, out[n-1].VecProb, out[n-1].VecBound = l.Vec, l.VecProb, l.VecBound
			}
			continue
		}
		out = append(out, l)
	}
	return out
}

// refTable draws a table of up to maxN tuples with many score ties and ME
// groups of up to five members, each group's mass kept below 1.
func refTable(r *rand.Rand, maxN int) *uncertain.Table {
	n := 1 + r.Intn(maxN)
	groups := 1 + n/3
	tuples := make([]uncertain.Tuple, n)
	mass := make(map[string]float64)
	for i := range tuples {
		score := float64(r.Intn(n/2 + 2))
		if r.Intn(2) == 0 {
			score += r.Float64()
		}
		group := ""
		if r.Intn(5) < 2 {
			group = fmt.Sprintf("g%d", r.Intn(groups))
		}
		tuples[i] = uncertain.Tuple{ID: fmt.Sprint(i), Score: score, Prob: 0.02 + 0.9*r.Float64(), Group: group}
		mass[group] += tuples[i].Prob
	}
	tab := uncertain.NewTable()
	for _, tp := range tuples {
		if m := mass[tp.Group]; tp.Group != "" && m > 0.97 {
			tp.Prob *= 0.97 / m
		}
		tab.Add(tp)
	}
	return tab
}

// bitIdentical asserts two distributions agree exactly, line by line: the
// score, probability, representative vector, vector probability and bound.
func bitIdentical(t *testing.T, name string, got, want *pmf.Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d lines, want %d", name, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Line(i), want.Line(i)
		if g.Score != w.Score || g.Prob != w.Prob || g.VecProb != w.VecProb || g.VecBound != w.VecBound ||
			!slices.Equal(g.Vec.Slice(), w.Vec.Slice()) {
			t.Fatalf("%s: line %d = %+v %v, want %+v %v", name, i, g, g.Vec.Slice(), w, w.Vec.Slice())
		}
	}
}

// TestReferenceBitIdentical: skipping dead columns, building rows into
// Scratch buffers and fanning units out over workers (the caller's Scratch
// as worker 0, largest units first) must not change a single bit of the
// answer. Exact line caps run on small tables, where the unlimited
// distributions stay small; capped runs use tables of up to 60 tuples.
func TestReferenceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := new(Scratch) // reused across queries, like the engine's pooled ones
	for trial := 0; trial < 40; trial++ {
		for _, maxLines := range []int{0, 16, 64} {
			maxN := 60
			if maxLines == 0 {
				maxN = 10
			}
			tab := refTable(r, maxN)
			if err := tab.Validate(); err != nil {
				t.Fatal(err)
			}
			p := prep(t, tab)
			threshold := 0.0
			if r.Intn(2) == 0 {
				threshold = 1e-3
			}
			for _, k := range []int{1, 2, 5, 20} {
				for _, track := range []bool{false, true} {
					params := Params{K: k, Threshold: threshold, MaxLines: maxLines, TrackVectors: track,
						CoalesceMode: pmf.CoalesceMode(r.Intn(2))}
					want := refDistribution(p, params)
					for _, par := range []int{0, 1, 2, 7} {
						params.Parallelism = par
						name := fmt.Sprintf("trial %d n=%d k=%d lines=%d track=%v par=%d", trial, p.Len(), k, maxLines, track, par)
						got, err := DistributionScratch(p, params, s)
						if err != nil {
							t.Fatal(err)
						}
						if got.ScanDepth != want.ScanDepth || got.Units != want.Units {
							t.Fatalf("%s: depth/units %d/%d, want %d/%d", name, got.ScanDepth, got.Units, want.ScanDepth, want.Units)
						}
						if got.Cells != want.Cells {
							t.Fatalf("%s: %d cells, want %d", name, got.Cells, want.Cells)
						}
						bitIdentical(t, name, got.Dist, want.Dist)
					}
				}
			}
		}
	}
}

// batchThresholds draws the thresholds of one batch: random pτ values over
// four decades, a duplicate of one of them, and half the time an exact (0)
// member.
func batchThresholds(r *rand.Rand) []float64 {
	ts := make([]float64, 5)
	for i := range ts {
		ts[i] = math.Pow(10, -4+3.7*r.Float64())
	}
	ts = append(ts, ts[r.Intn(len(ts))])
	if r.Intn(2) == 0 {
		ts = append(ts, 0)
	}
	r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// batchUnits counts the unit DPs a batch with these scan depths runs: the
// deepest scan's units, plus one truncated boundary unit per shallower
// depth whose last unit is not one of them.
func batchUnits(p *uncertain.Prepared, depths []int) int {
	deepest := slices.Max(depths)
	all := p.UnitsPrefix(deepest)
	units := len(all)
	seen := make(map[int]bool)
	for _, d := range depths {
		if own := p.UnitsPrefix(d); !seen[d] && len(own) > 0 && own[len(own)-1] != all[len(own)-1] {
			units++
		}
		seen[d] = true
	}
	return units
}

// TestBatchSharedBitIdentical: a batch runs its unit DPs once for all its
// thresholds, yet every answer must match a standalone reference run of its
// own threshold bit for bit, scan depth, unit and cell counts included. The
// batches mix exact and duplicate thresholds with pτ values whose scan
// depths are equal, nested at a unit boundary, or cut a lead-tuple region
// that the deepest scan runs whole (a truncated boundary unit); the test
// fails unless each of those shapes occurred.
func TestBatchSharedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := new(Scratch)
	var equal, nested, truncated int
	for trial := 0; trial < 20; trial++ {
		for _, maxLines := range []int{0, 16, 64} {
			maxN := 60
			if maxLines == 0 {
				maxN = 10
			}
			tab := refTable(r, maxN)
			if err := tab.Validate(); err != nil {
				t.Fatal(err)
			}
			p := prep(t, tab)
			for _, k := range []int{1, 2, 5} {
				thresholds := batchThresholds(r)
				var depths []int
				for _, th := range thresholds {
					d := ScanDepth(p, k, th)
					if slices.Contains(depths, d) && th != 0 {
						equal++
					}
					depths = append(depths, d)
				}
				distinct := len(slices.Compact(slices.Sorted(slices.Values(depths))))
				full := len(p.UnitsPrefix(slices.Max(depths)))
				extra := batchUnits(p, depths) - full
				truncated += extra
				nested += distinct - 1 - extra
				for _, track := range []bool{false, true} {
					params := Params{K: k, MaxLines: maxLines, TrackVectors: track, CoalesceMode: pmf.CoalesceMode(r.Intn(2))}
					want := make([]*Result, len(thresholds))
					for i, th := range thresholds {
						params.Threshold = th
						want[i] = refDistribution(p, params)
					}
					for _, par := range []int{0, 1, 2, 7} {
						params.Parallelism = par
						got, err := DistributionBatch(p, params, thresholds, s)
						if err != nil {
							t.Fatal(err)
						}
						for i, w := range want {
							g := got[i]
							name := fmt.Sprintf("trial %d n=%d k=%d lines=%d track=%v par=%d pτ=%g", trial, p.Len(), k, maxLines, track, par, thresholds[i])
							if g.ScanDepth != w.ScanDepth || g.Units != w.Units || g.Cells != w.Cells {
								t.Fatalf("%s: depth/units/cells %d/%d/%d, want %d/%d/%d", name,
									g.ScanDepth, g.Units, g.Cells, w.ScanDepth, w.Units, w.Cells)
							}
							bitIdentical(t, name, g.Dist, w.Dist)
						}
					}
				}
			}
		}
	}
	t.Logf("depth shapes: %d equal, %d nested, %d truncated", equal, nested, truncated)
	if equal == 0 || nested == 0 || truncated == 0 {
		t.Fatalf("depth shapes not all covered: %d equal, %d nested, %d truncated", equal, nested, truncated)
	}
}
