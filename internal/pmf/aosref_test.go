package pmf

// This file keeps an array-of-structs reference implementation of the
// combine/coalesce kernels: the layout the package used before the
// structure-of-arrays rewrite. The reference operates on []Line with the
// same algorithms, same merge orders and the same grid arithmetic
// (idx = int((score-lo) * invDelta)), so any divergence from the live
// kernels isolates a bug in the SoA layout or its bounds-check-free loop
// bodies rather than floating-point rearrangement.

import (
	"math"
	"math/rand"
	"testing"
)

// refAppendCombine mirrors Dist.appendCombine on a plain line slice.
func refAppendCombine(out []Line, l Line) []Line {
	if n := len(out); n > 0 && sameScore(out[n-1].Score, l.Score) {
		out[n-1].Prob += l.Prob
		if l.VecProb > out[n-1].VecProb {
			out[n-1].Vec = l.Vec
			out[n-1].VecProb = l.VecProb
			out[n-1].VecBound = l.VecBound
		}
		return out
	}
	return append(out, l)
}

// refSrc is one sorted input stream of the reference N-way merge.
type refSrc struct {
	lines  []Line
	pos    int
	shift  float64
	factor float64
	tuple  int
}

func refSources(skip []Line, skipFactor float64, take []Line, branches []TakeBranch) []refSrc {
	var srcs []refSrc
	if len(skip) > 0 && skipFactor > 0 {
		srcs = append(srcs, refSrc{lines: skip, factor: skipFactor, tuple: -1})
	}
	if len(take) > 0 {
		for _, b := range branches {
			if b.Factor > 0 {
				srcs = append(srcs, refSrc{lines: take, shift: b.Shift, factor: b.Factor, tuple: b.Tuple})
			}
		}
	}
	return srcs
}

// refLine transforms source line l through stream s, exactly as the live
// kernels do (take: prepend tuple, scale VecProb by the factor, a take onto
// an empty vector fixes the boundary; skip: boundary-aware or plain factor).
func (s *refSrc) refLine(l Line, trackVectors bool, skipTrue func(float64) float64) Line {
	out := Line{Score: l.Score + s.shift, Prob: l.Prob * s.factor}
	if !trackVectors {
		return out
	}
	if s.tuple >= 0 {
		out.Vec = &Vector{Tuple: s.tuple, Next: l.Vec}
		out.VecProb = l.VecProb * s.factor
		out.VecBound = l.VecBound
		if l.Vec == nil {
			out.VecBound = s.shift
		}
		return out
	}
	out.Vec, out.VecProb, out.VecBound = l.Vec, l.VecProb, l.VecBound
	if skipTrue != nil {
		out.VecProb *= skipTrue(out.VecBound)
	} else {
		out.VecProb *= s.factor
	}
	return out
}

// refCombine is the AoS mirror of combineInto: an N-way merge pulling the
// source with the smallest current shifted score (first source wins ties),
// appending with equal-score combination.
func refCombine(skip []Line, skipFactor float64, take []Line, branches []TakeBranch,
	trackVectors bool, skipTrue func(float64) float64) []Line {
	srcs := refSources(skip, skipFactor, take, branches)
	var out []Line
	for {
		best := -1
		var bestScore float64
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.lines) {
				continue
			}
			sc := s.lines[s.pos].Score + s.shift
			if best == -1 || sc < bestScore {
				best, bestScore = i, sc
			}
		}
		if best == -1 {
			return out
		}
		s := &srcs[best]
		out = refAppendCombine(out, s.refLine(s.lines[s.pos], trackVectors, skipTrue))
		s.pos++
	}
}

// refCell is one AoS grid cell of the reference grid pass.
type refCell struct {
	prob, sum  float64
	count      int
	vec        *Vector
	vp, vb     float64
	tuple      int
	hasVec     bool
	hasElected bool
}

// refGridCombine mirrors GridCombiner.Combine, including its fallback
// conditions and the exact idx arithmetic of the live kernel.
func refGridCombine(skip []Line, skipFactor float64, take []Line, branches []TakeBranch,
	maxLines int, mode CoalesceMode, trackVectors bool, skipTrue func(float64) float64) []Line {
	if maxLines <= 0 || len(branches) >= 16 {
		return refExact(skip, skipFactor, take, branches, maxLines, mode, trackVectors, skipTrue)
	}
	srcs := refSources(skip, skipFactor, take, branches)
	if len(srcs) == 0 {
		return nil
	}
	total := 0
	lo, hi := 0.0, 0.0
	for i := range srcs {
		s := &srcs[i]
		total += len(s.lines)
		slo := s.lines[0].Score + s.shift
		shi := s.lines[len(s.lines)-1].Score + s.shift
		if i == 0 || slo < lo {
			lo = slo
		}
		if i == 0 || shi > hi {
			hi = shi
		}
	}
	if total <= maxLines || hi <= lo {
		return refExact(skip, skipFactor, take, branches, maxLines, mode, trackVectors, skipTrue)
	}
	invDelta := float64(maxLines-1) / (hi - lo)
	cells := make([]refCell, maxLines)
	weighted := mode == CoalesceWeightedAverage
	last := maxLines - 1
	for i := range srcs {
		s := &srcs[i]
		for _, l0 := range s.lines {
			l := s.refLine(l0, trackVectors, skipTrue)
			idx := int((l.Score - lo) * invDelta)
			if idx > last {
				idx = last
			} else if idx < 0 {
				idx = 0
			}
			c := &cells[idx]
			c.prob += l.Prob
			if weighted {
				c.sum += l.Score * l.Prob
			} else {
				c.sum += l.Score
			}
			c.count++
			if trackVectors && (!c.hasElected || l.VecProb > c.vp) {
				c.hasElected = true
				// The live kernel materialises the winner's prepend only at
				// emit; the reference already built the full vector, which is
				// equivalent.
				c.vec, c.vp, c.vb = l.Vec, l.VecProb, l.VecBound
			}
		}
	}
	var out []Line
	for i := range cells {
		c := &cells[i]
		if c.count == 0 || c.prob <= 0 {
			continue
		}
		var score float64
		if weighted {
			score = c.sum / c.prob
		} else {
			score = c.sum / float64(c.count)
		}
		l := Line{Score: score, Prob: c.prob}
		if trackVectors {
			l.Vec, l.VecProb, l.VecBound = c.vec, c.vp, c.vb
		}
		out = refAppendCombine(out, l)
	}
	return out
}

// refExact is refCombine followed by closest-pair coalescing when the merge
// exceeds maxLines — the mirror of GridCombiner.exact.
func refExact(skip []Line, skipFactor float64, take []Line, branches []TakeBranch,
	maxLines int, mode CoalesceMode, trackVectors bool, skipTrue func(float64) float64) []Line {
	out := refCombine(skip, skipFactor, take, branches, trackVectors, skipTrue)
	if maxLines > 0 && len(out) > maxLines {
		out = refCoalesce(out, maxLines, mode)
	}
	return out
}

// refCoalesce mirrors Coalescer.run (closest-pair via a min-heap of adjacent
// gaps over a doubly-linked list, lazy invalidation) over a line slice, with
// the same heap so equal-gap tie-breaking matches the live kernel.
func refCoalesce(lines []Line, maxLines int, mode CoalesceMode) []Line {
	if maxLines <= 0 || len(lines) <= maxLines {
		return lines
	}
	if maxLines == 1 && mode == CoalesceWeightedAverage {
		// coalesceToOne: single mass-weighted line keeping the best vector.
		var mass, wsum KahanSum
		best := 0
		for i, l := range lines {
			mass.Add(l.Prob)
			wsum.Add(l.Score * l.Prob)
			if l.VecProb > lines[best].VecProb {
				best = i
			}
		}
		m := mass.Sum()
		score := 0.0
		if m > 0 {
			score = wsum.Sum() / m
		}
		return []Line{{Score: score, Prob: m,
			Vec: lines[best].Vec, VecProb: lines[best].VecProb, VecBound: lines[best].VecBound}}
	}
	n := len(lines)
	ls := append([]Line(nil), lines...)
	prev := make([]int, n)
	next := make([]int, n)
	ver := make([]int, n)
	for i := range ls {
		prev[i], next[i] = i-1, i+1
	}
	next[n-1] = -1
	var c Coalescer // reuse the live heap container: same sift order
	for i := 0; i+1 < n; i++ {
		c.h = append(c.h, gapEntry{left: i, right: i + 1, gap: ls[i+1].Score - ls[i].Score})
	}
	for i := len(c.h)/2 - 1; i >= 0; i-- {
		siftDown(c.h, i)
	}
	alive := n
	for alive > maxLines {
		e := c.hpop()
		if ver[e.left] != e.lv || ver[e.right] != e.rv {
			continue
		}
		l, r := e.left, e.right
		var score float64
		switch mode {
		case CoalesceWeightedAverage:
			if m := ls[l].Prob + ls[r].Prob; m > 0 {
				score = (ls[l].Score*ls[l].Prob + ls[r].Score*ls[r].Prob) / m
			} else {
				score = (ls[l].Score + ls[r].Score) / 2
			}
		default:
			score = (ls[l].Score + ls[r].Score) / 2
		}
		ls[l].Prob += ls[r].Prob
		if ls[r].VecProb > ls[l].VecProb {
			ls[l].Vec, ls[l].VecProb, ls[l].VecBound = ls[r].Vec, ls[r].VecProb, ls[r].VecBound
		}
		ls[l].Score = score
		ver[l]++
		ver[r]++
		nr := next[r]
		next[l] = nr
		if nr >= 0 {
			prev[nr] = l
		}
		alive--
		if p := prev[l]; p >= 0 {
			c.hpush(gapEntry{left: p, right: l, gap: ls[l].Score - ls[p].Score, lv: ver[p], rv: ver[l]})
		}
		if nx := next[l]; nx >= 0 {
			c.hpush(gapEntry{left: l, right: nx, gap: ls[nx].Score - ls[l].Score, lv: ver[l], rv: ver[nx]})
		}
	}
	var out []Line
	for i := 0; i != -1; i = next[i] {
		out = append(out, ls[i])
	}
	// Mirror the defensive re-sort (stable, like sortByScore).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Score < out[j-1].Score; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// --- equivalence harness -------------------------------------------------

const refTol = 1e-12

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= refTol || d <= refTol*math.Max(math.Abs(a), math.Abs(b))
}

func vecSlice(v *Vector) []int {
	if v == nil {
		return nil
	}
	return v.Slice()
}

func sameVec(a, b *Vector) bool {
	as, bs := vecSlice(a), vecSlice(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func diffLines(t *testing.T, label string, got *Dist, want []Line, trackVectors bool) {
	t.Helper()
	gl := got.Lines()
	if len(gl) != len(want) {
		t.Fatalf("%s: %d lines, reference has %d", label, len(gl), len(want))
	}
	for i := range gl {
		g, w := gl[i], want[i]
		if !closeEnough(g.Score, w.Score) || !closeEnough(g.Prob, w.Prob) {
			t.Fatalf("%s: line %d = (%v, %v), reference (%v, %v)", label, i, g.Score, g.Prob, w.Score, w.Prob)
		}
		if !trackVectors {
			continue
		}
		if !closeEnough(g.VecProb, w.VecProb) || !closeEnough(g.VecBound, w.VecBound) {
			t.Fatalf("%s: line %d vecprob/bound = (%v, %v), reference (%v, %v)",
				label, i, g.VecProb, g.VecBound, w.VecProb, w.VecBound)
		}
		if !sameVec(g.Vec, w.Vec) {
			t.Fatalf("%s: line %d vector %v, reference %v", label, i, vecSlice(g.Vec), vecSlice(w.Vec))
		}
	}
}

// genDist builds a random sorted distribution (and its AoS mirror) with
// optional exact score ties and vector annotations.
func genDist(rng *rand.Rand, n int, ties, withVecs bool) (*Dist, []Line) {
	lines := make([]Line, 0, n)
	score := rng.Float64() * 10
	for i := 0; i < n; i++ {
		if i > 0 {
			if ties && rng.Intn(4) == 0 {
				// exact tie with the previous line (combined on build)
			} else {
				score += 1e-6 + rng.Float64()*3
			}
		}
		l := Line{Score: score, Prob: 0.01 + rng.Float64()}
		if withVecs && rng.Intn(5) > 0 {
			var v *Vector
			for d := rng.Intn(3); d >= 0; d-- {
				v = &Vector{Tuple: rng.Intn(50), Next: v}
			}
			l.Vec = v
			l.VecProb = rng.Float64() * l.Prob
			l.VecBound = score - rng.Float64()
		}
		lines = append(lines, l)
	}
	d := New()
	var ref []Line
	for _, l := range lines {
		d.appendCombine(l)
		ref = refAppendCombine(ref, l)
	}
	return d, ref
}

func genBranches(rng *rand.Rand, n int) []TakeBranch {
	bs := make([]TakeBranch, n)
	rem := 1.0
	for i := range bs {
		f := rng.Float64() * rem * 0.8
		rem -= f
		bs[i] = TakeBranch{Shift: rng.Float64() * 20, Factor: f, Tuple: 100 + i}
	}
	return bs
}

// TestSoADistEquivalence drives the live SoA kernels and the retired AoS
// reference over the same randomized inputs — ties, ME-style multi-branch
// groups, vector tracking on and off, both coalesce modes, boundary-aware
// and plain skip semantics — and requires agreement within 1e-12.
func TestSoADistEquivalence(t *testing.T) {
	skipTrue := func(b float64) float64 { return 0.55 + 0.4*math.Sin(b) }
	cases := []struct {
		name         string
		trackVectors bool
		ties         bool
		branches     int
		maxLines     int
		mode         CoalesceMode
		useSkipTrue  bool
	}{
		{"untracked/plain", false, false, 1, 16, CoalescePlainAverage, false},
		{"untracked/weighted", false, false, 1, 16, CoalesceWeightedAverage, false},
		{"untracked/ties", false, true, 1, 12, CoalescePlainAverage, false},
		{"tracked/plain", true, false, 1, 16, CoalescePlainAverage, false},
		{"tracked/weighted", true, false, 1, 16, CoalesceWeightedAverage, false},
		{"tracked/ties", true, true, 1, 12, CoalescePlainAverage, false},
		{"tracked/skiptrue", true, true, 1, 16, CoalescePlainAverage, true},
		{"tracked/me-group", true, false, 4, 16, CoalescePlainAverage, false},
		{"tracked/me-group-skiptrue", true, true, 5, 14, CoalesceWeightedAverage, true},
		{"tracked/exact-fallback", true, true, 2, 0, CoalescePlainAverage, true},
		{"tracked/wide-me-fallback", true, false, 16, 10, CoalescePlainAverage, false},
		{"tracked/small-fits", true, false, 1, 200, CoalescePlainAverage, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var g GridCombiner
			for trial := 0; trial < 40; trial++ {
				nSkip, nTake := rng.Intn(40), 1+rng.Intn(40)
				skipD, skipRef := genDist(rng, nSkip, tc.ties, tc.trackVectors)
				takeD, takeRef := genDist(rng, nTake, tc.ties, tc.trackVectors)
				skipFactor := rng.Float64()
				branches := genBranches(rng, tc.branches)
				var st func(float64) float64
				if tc.useSkipTrue {
					st = skipTrue
				}

				got := Combine(skipD, skipFactor, takeD, branches, tc.trackVectors, st)
				want := refCombine(skipRef, skipFactor, takeRef, branches, tc.trackVectors, st)
				diffLines(t, "Combine", got, want, tc.trackVectors)

				got = g.Combine(nil, skipD, skipFactor, takeD, branches, tc.maxLines, tc.mode, tc.trackVectors, st)
				want = refGridCombine(skipRef, skipFactor, takeRef, branches, tc.maxLines, tc.mode, tc.trackVectors, st)
				diffLines(t, "GridCombiner.Combine", got, want, tc.trackVectors)

				// Standalone closest-pair coalescing of the exact merge.
				ex := Combine(skipD, skipFactor, takeD, branches, tc.trackVectors, st)
				exRef := refCombine(skipRef, skipFactor, takeRef, branches, tc.trackVectors, st)
				limit := 1 + rng.Intn(8)
				ex.Coalesce(limit, tc.mode)
				exRef = refCoalesce(exRef, limit, tc.mode)
				diffLines(t, "Coalesce", ex, exRef, tc.trackVectors)
			}
		})
	}
}

// TestSoAMergeAllEquivalence covers the per-unit merge used by the ME
// algorithm's final union, with one Merger reused across trials.
func TestSoAMergeAllEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var mg Merger
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(6)
		ds := make([]*Dist, k)
		var refs [][]Line
		for i := range ds {
			d, r := genDist(rng, rng.Intn(30), trial%2 == 0, true)
			ds[i] = d
			refs = append(refs, r)
		}
		got := mg.MergeAll(ds)
		want := refMergeAll(refs)
		diffLines(t, "MergeAll", got, want, true)
	}
}

// refMergeAll mirrors Merger.MergeAll's tournament order exactly — empty
// inputs skipped — so equal-score chains combine in the same sequence as the
// live kernel.
func refMergeAll(ds [][]Line) []Line {
	var work [][]Line
	for _, d := range ds {
		if len(d) > 0 {
			work = append(work, d)
		}
	}
	if len(work) == 0 {
		return nil
	}
	for len(work) > 1 {
		var merged [][]Line
		for i := 0; i < len(work); i += 2 {
			if i+1 < len(work) {
				merged = append(merged, refMerge(work[i], work[i+1]))
			} else {
				merged = append(merged, work[i])
			}
		}
		work = merged
	}
	return work[0]
}

// refMerge is one two-way union of the tournament, combining equal scores.
func refMerge(a, b []Line) []Line {
	var out []Line
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i >= len(a):
			out = refAppendCombine(out, b[j])
			j++
		case j >= len(b):
			out = refAppendCombine(out, a[i])
			i++
		case a[i].Score <= b[j].Score:
			out = refAppendCombine(out, a[i])
			i++
		default:
			out = refAppendCombine(out, b[j])
			j++
		}
	}
	return out
}
