package pmf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func mustApprox(t *testing.T, name string, got, want float64) {
	t.Helper()
	if !approx(got, want, 1e-9) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestEmptyDist(t *testing.T) {
	d := New()
	if !d.IsEmpty() {
		t.Fatal("New() not empty")
	}
	if d.TotalMass() != 0 {
		t.Fatalf("mass = %v", d.TotalMass())
	}
	if !math.IsNaN(d.Mean()) || !math.IsNaN(d.Min()) || !math.IsNaN(d.Max()) {
		t.Fatal("stats of empty dist should be NaN")
	}
	if d.Span() != 0 {
		t.Fatal("span of empty dist should be 0")
	}
	if _, ok := d.MaxProbLine(); ok {
		t.Fatal("MaxProbLine on empty dist should report !ok")
	}
}

func TestFromLinesCombinesEqualScores(t *testing.T) {
	d := FromLines([]Line{
		{Score: 2, Prob: 0.25},
		{Score: 1, Prob: 0.5},
		{Score: 2, Prob: 0.25, VecProb: 0.3},
	})
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2", d.Len())
	}
	mustApprox(t, "mass", d.TotalMass(), 1.0)
	l := d.Line(1)
	mustApprox(t, "combined prob", l.Prob, 0.5)
	mustApprox(t, "kept VecProb", l.VecProb, 0.3)
}

func TestFromLinesDropsZeroProb(t *testing.T) {
	d := FromLines([]Line{{Score: 1, Prob: 0}, {Score: 2, Prob: 0.5}})
	if d.Len() != 1 {
		t.Fatalf("len = %d, want 1", d.Len())
	}
}

func TestStats(t *testing.T) {
	// Figure 3 toy distribution from the paper (computed from Figure 2).
	d := FromLines([]Line{
		{Score: 116, Prob: 0.04}, {Score: 118, Prob: 0.20},
		{Score: 136, Prob: 0.03}, {Score: 138, Prob: 0.15},
		{Score: 170, Prob: 0.16}, {Score: 181, Prob: 0.03},
		{Score: 183, Prob: 0.15}, {Score: 190, Prob: 0.12},
		{Score: 235, Prob: 0.12},
	})
	mustApprox(t, "mass", d.TotalMass(), 1.0)
	mustApprox(t, "mean", d.Mean(), 164.1) // paper: expected top-2 total score 164.1
	mustApprox(t, "Pr(S>118)", d.TailProb(118), 0.76)
	mustApprox(t, "median", d.Median(), 170) // paper: 1-Typical score is 170
	mustApprox(t, "min", d.Min(), 116)
	mustApprox(t, "max", d.Max(), 235)
	mustApprox(t, "span", d.Span(), 119)
	// paper: 3-Typical scores {118, 183, 235} have expected distance 6.6.
	mustApprox(t, "E[min dist]", d.ExpectedMinDistance([]float64{118, 183, 235}), 6.6)
}

func TestCDFQuantileConsistency(t *testing.T) {
	d := FromLines([]Line{{Score: 1, Prob: 0.2}, {Score: 2, Prob: 0.3}, {Score: 5, Prob: 0.5}})
	mustApprox(t, "CDF(0)", d.CDF(0), 0)
	mustApprox(t, "CDF(1)", d.CDF(1), 0.2)
	mustApprox(t, "CDF(1.5)", d.CDF(1.5), 0.2)
	mustApprox(t, "CDF(2)", d.CDF(2), 0.5)
	mustApprox(t, "CDF(10)", d.CDF(10), 1.0)
	mustApprox(t, "Q(0)", d.Quantile(0), 1)
	mustApprox(t, "Q(0.2)", d.Quantile(0.2), 1)
	mustApprox(t, "Q(0.21)", d.Quantile(0.21), 2)
	mustApprox(t, "Q(1)", d.Quantile(1), 5)
	if !math.IsNaN(d.Quantile(-0.1)) || !math.IsNaN(d.Quantile(1.1)) {
		t.Fatal("out-of-range quantile should be NaN")
	}
}

func TestNormalize(t *testing.T) {
	d := FromLines([]Line{{Score: 1, Prob: 0.2, VecProb: 0.1}, {Score: 2, Prob: 0.3}})
	d.Normalize()
	mustApprox(t, "mass", d.TotalMass(), 1.0)
	mustApprox(t, "line prob", d.Line(0).Prob, 0.4)
	// Vector probabilities are marginals of real events; conditioning the
	// score view must not inflate them.
	mustApprox(t, "unscaled VecProb", d.Line(0).VecProb, 0.1)
}

func TestVector(t *testing.T) {
	var v *Vector
	if v.Len() != 0 || v.Slice() != nil {
		t.Fatal("nil vector should be empty")
	}
	v = v.Prepend(3).Prepend(1).Prepend(0)
	got := v.Slice()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice = %v, want %v", got, want)
		}
	}
	// Structural sharing: prepending to a shared tail must not mutate it.
	tail := v.Next
	_ = tail.Prepend(9)
	if v.Slice()[1] != 1 {
		t.Fatal("prepend mutated shared tail")
	}
}

func TestCombineBasic(t *testing.T) {
	// One DP step: below = {(0,1)} with an empty vector of probability 1.
	below := PointVec(0, 1, nil, 1)
	got := Combine(below, 0.6, below, []TakeBranch{{Shift: 10, Factor: 0.4, Tuple: 7}}, true, nil)
	if got.Len() != 2 {
		t.Fatalf("len = %d, want 2", got.Len())
	}
	l0, l1 := got.Line(0), got.Line(1)
	mustApprox(t, "skip score", l0.Score, 0)
	mustApprox(t, "skip prob", l0.Prob, 0.6)
	mustApprox(t, "take score", l1.Score, 10)
	mustApprox(t, "take prob", l1.Prob, 0.4)
	if l1.Vec.Slice()[0] != 7 {
		t.Fatalf("take vector = %v", l1.Vec.Slice())
	}
	mustApprox(t, "take vecprob", l1.VecProb, 0.4)
}

func TestCombineEqualScoresKeepsBetterVector(t *testing.T) {
	a := PointVec(5, 0.2, (*Vector)(nil).Prepend(1), 0.2)
	b := PointVec(0, 0.7, (*Vector)(nil).Prepend(2), 0.7)
	// take shifts b by 5 with factor 0.5 → (5, 0.35, vec [3 2], vecprob 0.35)
	got := Combine(a, 1.0, b, []TakeBranch{{Shift: 5, Factor: 0.5, Tuple: 3}}, true, nil)
	if got.Len() != 1 {
		t.Fatalf("len = %d, want 1", got.Len())
	}
	l := got.Line(0)
	mustApprox(t, "prob", l.Prob, 0.55)
	mustApprox(t, "vecprob", l.VecProb, 0.35)
	if s := l.Vec.Slice(); len(s) != 2 || s[0] != 3 || s[1] != 2 {
		t.Fatalf("vector = %v, want [3 2]", s)
	}
}

func TestCombineMultiBranch(t *testing.T) {
	below := Point(0, 1)
	// Rule tuple with members (10, 0.3) and (8, 0.5): skip factor 0.2.
	got := Combine(below, 0.2, below, []TakeBranch{
		{Shift: 10, Factor: 0.3, Tuple: 0},
		{Shift: 8, Factor: 0.5, Tuple: 1},
	}, true, nil)
	if got.Len() != 3 {
		t.Fatalf("len = %d, want 3", got.Len())
	}
	mustApprox(t, "mass", got.TotalMass(), 1.0)
	mustApprox(t, "line0", got.Line(0).Score, 0)
	mustApprox(t, "line1", got.Line(1).Score, 8)
	mustApprox(t, "line2", got.Line(2).Score, 10)
}

func TestCombineEmptyInputs(t *testing.T) {
	if got := Combine(nil, 0.5, nil, nil, true, nil); !got.IsEmpty() {
		t.Fatal("nil inputs should give empty dist")
	}
	d := Point(1, 1)
	got := Combine(New(), 0.5, d, []TakeBranch{{Shift: 0, Factor: 0.0, Tuple: 0}}, true, nil)
	if !got.IsEmpty() {
		t.Fatal("zero-factor take of empty skip should be empty")
	}
	got = Combine(d, 0, d, nil, true, nil)
	if !got.IsEmpty() {
		t.Fatal("zero skip factor with no branches should be empty")
	}
}

// TestMerge: a two-input Merger union combines equal scores, skips empty
// inputs and leaves its inputs untouched.
func TestMerge(t *testing.T) {
	a := FromLines([]Line{{Score: 1, Prob: 0.25}, {Score: 3, Prob: 0.25}})
	b := FromLines([]Line{{Score: 1, Prob: 0.25}, {Score: 2, Prob: 0.25}})
	var mg Merger
	m := mg.MergeAll([]*Dist{a, b})
	if m.Len() != 3 {
		t.Fatalf("len = %d, want 3", m.Len())
	}
	mustApprox(t, "mass", m.TotalMass(), 1.0)
	mustApprox(t, "combined", m.Line(0).Prob, 0.5)
	if a.Line(0).Prob != 0.25 || b.Line(0).Prob != 0.25 {
		t.Fatal("merge modified an input")
	}
	if got := mg.MergeAll([]*Dist{nil, a}); got.Len() != a.Len() {
		t.Fatal("merge with nil lost lines")
	}
	if got := mg.MergeAll([]*Dist{a, New()}); got.Len() != a.Len() {
		t.Fatal("merge with empty lost lines")
	}
	// A single input is copied: coalescing the result leaves the input alone.
	got := mg.MergeAll([]*Dist{a})
	got.Coalesce(1, CoalescePlainAverage)
	if a.Len() != 2 {
		t.Fatal("coalescing a single-input merge modified the input")
	}
}

// TestMergeAll: a multi-round tournament over one reused Merger, and the
// empty union.
func TestMergeAll(t *testing.T) {
	var mg Merger
	for round := 0; round < 2; round++ {
		var ds []*Dist
		for i := 0; i < 7; i++ {
			ds = append(ds, Point(float64(i), 0.1))
		}
		m := mg.MergeAll(ds)
		if m.Len() != 7 {
			t.Fatalf("len = %d, want 7", m.Len())
		}
		mustApprox(t, "mass", m.TotalMass(), 0.7)
		for i := 0; i < 7; i++ {
			if m.Line(i).Score != float64(i) {
				t.Fatalf("line %d score %v", i, m.Line(i).Score)
			}
		}
	}
	if !mg.MergeAll(nil).IsEmpty() {
		t.Fatal("MergeAll(nil) should be empty")
	}
}

// TestTrim: the pooled buffers of a Merger, Coalescer and GridCombiner keep
// their capacity up to the bound and drop it beyond.
func TestTrim(t *testing.T) {
	const bound = 64
	big := func(n int) *Dist {
		ls := make([]Line, n)
		for i := range ls {
			ls[i] = Line{Score: float64(i), Prob: 1 / float64(n), VecProb: 1e-3}
		}
		return FromLines(ls)
	}
	for _, n := range []int{bound / 2, bound} {
		var mg Merger
		var co Coalescer
		mg.MergeAll([]*Dist{big(n / 2), big(n / 2)})
		co.Coalesce(big(n), 1, CoalescePlainAverage)
		mg.Trim(bound)
		co.Trim(bound)
		if mg.buf[0].Cap() < n/2 || co.prev == nil {
			t.Fatalf("n=%d: buffers at or below the bound were dropped", n)
		}
		if mg.buf[0].vecs[:1][0] != nil || mg.buf[0].hasVec {
			t.Fatalf("n=%d: trimmed merge buffer still holds vectors", n)
		}
	}
	var mg Merger
	var co Coalescer
	var g GridCombiner
	mg.MergeAll([]*Dist{big(bound), big(bound)})
	co.Coalesce(big(bound+1), 1, CoalescePlainAverage)
	g.Combine(nil, big(bound+1), 0.5, big(bound+1), []TakeBranch{{Shift: 1, Factor: 0.5}}, bound+1, CoalescePlainAverage, true, nil)
	g.co.Coalesce(big(bound+1), 1, CoalescePlainAverage)
	mg.Trim(bound)
	co.Trim(bound)
	g.Trim(bound)
	if mg.buf[0].Cap() != 0 || co.prev != nil || co.h != nil || g.prob != nil || g.cellHasVec != nil || g.co.prev != nil {
		t.Fatal("buffers above the bound were kept")
	}
}

func TestShiftScale(t *testing.T) {
	d := FromLines([]Line{{Score: 1, Prob: 0.5}, {Score: 2, Prob: 0.5}})
	s := d.Shift(10)
	mustApprox(t, "shifted min", s.Min(), 11)
	mustApprox(t, "orig min unchanged", d.Min(), 1)
	sc := d.Scale(0.5)
	mustApprox(t, "scaled mass", sc.TotalMass(), 0.5)
	if !d.Scale(0).IsEmpty() {
		t.Fatal("scale by 0 should empty")
	}
}

func TestHistogram(t *testing.T) {
	d := FromLines([]Line{
		{Score: 1.2, Prob: 0.2}, {Score: 1.9, Prob: 0.1},
		{Score: 2.5, Prob: 0.3}, {Score: 7.1, Prob: 0.4},
	})
	h := d.Histogram(1.0)
	if len(h) != 3 {
		t.Fatalf("buckets = %d, want 3", len(h))
	}
	mustApprox(t, "bucket0", h[0].Prob, 0.3)
	mustApprox(t, "bucket1", h[1].Prob, 0.3)
	mustApprox(t, "bucket2", h[2].Prob, 0.4)
	mustApprox(t, "bucket0.Lo", h[0].Lo, 1.0)
	var total float64
	for _, b := range h {
		total += b.Prob
	}
	mustApprox(t, "histogram mass", total, d.TotalMass())
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram(0) should panic")
		}
	}()
	d.Histogram(0)
}

func TestCoalesceBasic(t *testing.T) {
	d := FromLines([]Line{
		{Score: 0, Prob: 0.1}, {Score: 1, Prob: 0.1}, {Score: 1.05, Prob: 0.2},
		{Score: 5, Prob: 0.3}, {Score: 9, Prob: 0.3},
	})
	merges := d.Coalesce(4, CoalescePlainAverage)
	if merges != 1 {
		t.Fatalf("merges = %d, want 1", merges)
	}
	if d.Len() != 4 {
		t.Fatalf("len = %d, want 4", d.Len())
	}
	// Closest pair (1, 1.05) merged to plain average 1.025 with prob 0.3.
	l := d.Line(1)
	mustApprox(t, "merged score", l.Score, 1.025)
	mustApprox(t, "merged prob", l.Prob, 0.3)
	mustApprox(t, "mass", d.TotalMass(), 1.0)
}

func TestCoalesceNoopUnderLimit(t *testing.T) {
	d := FromLines([]Line{{Score: 0, Prob: 0.5}, {Score: 1, Prob: 0.5}})
	if m := d.Coalesce(2, CoalescePlainAverage); m != 0 {
		t.Fatalf("merges = %d, want 0", m)
	}
	if m := d.Coalesce(0, CoalescePlainAverage); m != 0 {
		t.Fatalf("maxLines=0 should be unlimited, merges = %d", m)
	}
}

func TestCoalesceToOne(t *testing.T) {
	d := FromLines([]Line{{Score: 0, Prob: 0.25}, {Score: 10, Prob: 0.75}})
	d2 := d.Clone()
	d.Coalesce(1, CoalesceWeightedAverage)
	if d.Len() != 1 {
		t.Fatalf("len = %d, want 1", d.Len())
	}
	mustApprox(t, "weighted score", d.Line(0).Score, 7.5)
	mustApprox(t, "mass", d.Line(0).Prob, 1.0)
	d2.Coalesce(1, CoalescePlainAverage)
	if d2.Len() != 1 {
		t.Fatalf("len = %d, want 1", d2.Len())
	}
	mustApprox(t, "plain score", d2.Line(0).Score, 5.0)
}

func TestCoalesceKeepsBestVector(t *testing.T) {
	v1 := (*Vector)(nil).Prepend(1)
	v2 := (*Vector)(nil).Prepend(2)
	d := FromLines([]Line{
		{Score: 0, Prob: 0.5, Vec: v1, VecProb: 0.1},
		{Score: 1, Prob: 0.5, Vec: v2, VecProb: 0.4},
	})
	d.Coalesce(1, CoalescePlainAverage)
	if d.Line(0).Vec.Slice()[0] != 2 {
		t.Fatal("coalesce dropped the higher-probability vector")
	}
	mustApprox(t, "vecprob", d.Line(0).VecProb, 0.4)
}

// Property: coalescing preserves total mass and respects the line cap, and
// the Wasserstein distance to the original is bounded by span (generous).
func TestCoalesceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		lines := make([]Line, n)
		for i := range lines {
			lines[i] = Line{Score: r.Float64() * 1000, Prob: r.Float64()}
		}
		d := FromLines(lines)
		orig := d.Clone()
		mass := d.TotalMass()
		max := 1 + r.Intn(d.Len())
		d.Coalesce(max, CoalescePlainAverage)
		if d.Len() > max {
			return false
		}
		if !approx(d.TotalMass(), mass, 1e-9) {
			return false
		}
		// Sorted invariant.
		if !sort.SliceIsSorted(d.Lines(), func(i, j int) bool {
			return d.Line(i).Score < d.Line(j).Score
		}) {
			return false
		}
		w := orig.Wasserstein1(d)
		return w <= orig.Span()+1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: with a generous line budget the coalesced distribution is close
// to the exact one in Wasserstein distance (span/maxLines scale).
func TestCoalesceAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 500
		lines := make([]Line, n)
		for i := range lines {
			lines[i] = Line{Score: r.Float64() * 100, Prob: r.Float64()}
		}
		d := FromLines(lines)
		d.Normalize()
		exact := d.Clone()
		d.Coalesce(100, CoalescePlainAverage)
		w := exact.Wasserstein1(d)
		// Each merge moves at most (span/100) of pairwise distance; W1 stays
		// well under a few bucket widths in practice. Generous bound: 5δ.
		if delta := exact.Span() / 100; w > 5*delta {
			t.Fatalf("trial %d: W1 = %v exceeds 5δ = %v", trial, w, 5*delta)
		}
	}
}

func TestWasserstein(t *testing.T) {
	a := FromLines([]Line{{Score: 0, Prob: 1}})
	b := FromLines([]Line{{Score: 3, Prob: 1}})
	mustApprox(t, "W1 point masses", a.Wasserstein1(b), 3)
	mustApprox(t, "W1 self", a.Wasserstein1(a), 0)
	if !math.IsNaN(a.Wasserstein1(New())) {
		t.Fatal("W1 to empty should be NaN")
	}
	// Unnormalized inputs are treated as conditional distributions.
	c := FromLines([]Line{{Score: 3, Prob: 0.5}})
	mustApprox(t, "W1 scaled", a.Wasserstein1(c), 3)
}

func TestExpectedMinDistanceUnsortedPoints(t *testing.T) {
	d := FromLines([]Line{{Score: 0, Prob: 0.5}, {Score: 10, Prob: 0.5}})
	mustApprox(t, "emd", d.ExpectedMinDistance([]float64{12, 1}), 1.5)
	if !math.IsNaN(d.ExpectedMinDistance(nil)) {
		t.Fatal("no points should be NaN")
	}
}

func TestKahanSum(t *testing.T) {
	var k KahanSum
	for i := 0; i < 1_000_000; i++ {
		k.Add(0.1)
	}
	if math.Abs(k.Sum()-100000) > 1e-6 {
		t.Fatalf("kahan sum drifted: %v", k.Sum())
	}
	mustApprox(t, "Sum()", Sum([]float64{0.1, 0.2, 0.3}), 0.6)
}

func TestMaxVecProbLine(t *testing.T) {
	d := FromLines([]Line{
		{Score: 1, Prob: 0.6, VecProb: 0.2},
		{Score: 2, Prob: 0.4, VecProb: 0.3},
	})
	l, ok := d.MaxVecProbLine()
	if !ok || l.Score != 2 {
		t.Fatalf("MaxVecProbLine = %+v, %v", l, ok)
	}
	m, ok := d.MaxProbLine()
	if !ok || m.Score != 1 {
		t.Fatalf("MaxProbLine = %+v, %v", m, ok)
	}
}

func TestString(t *testing.T) {
	if s := New().String(); s != "pmf{empty}" {
		t.Fatalf("String = %q", s)
	}
	if s := Point(1, 1).String(); s == "" {
		t.Fatal("String should not be empty")
	}
}

// Property: Combine conserves mass: out = skipFactor·mass(skip) + Σ f·mass(take).
func TestCombineMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Dist {
			n := 1 + r.Intn(30)
			ls := make([]Line, n)
			for i := range ls {
				ls[i] = Line{Score: r.Float64() * 50, Prob: r.Float64()}
			}
			return FromLines(ls)
		}
		skip, take := mk(), mk()
		sf := r.Float64()
		var branches []TakeBranch
		want := sf * skip.TotalMass()
		for i := 0; i < 1+r.Intn(3); i++ {
			b := TakeBranch{Shift: r.Float64() * 10, Factor: r.Float64() * 0.5, Tuple: i}
			branches = append(branches, b)
			want += b.Factor * take.TotalMass()
		}
		out := Combine(skip, sf, take, branches, true, nil)
		return approx(out.TotalMass(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
