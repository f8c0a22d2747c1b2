package pmf

// CombineCoalesce fuses the distribution-merging step (Combine) with line
// coalescing on a δ-grid, for the dynamic program's inner loop.
//
// §3.2.1 of the paper bounds the accuracy loss of coalescing by the bucket
// width δ = (smax − smin)/c': lines closer than δ may merge. The closest-pair
// strategy (Coalescer) realises that bound exactly but costs O(L log L) with
// a large constant per DP cell. This fused pass instead merges lines falling
// into the same δ-wide grid cell of the output's score range: the same ±δ
// guarantee, one linear pass, and — because a merged line materialises only
// one representative vector — at most maxLines vector-node allocations per
// cell instead of one per input line.
//
// Semantics match Combine followed by grid coalescing to at most maxLines
// lines: probabilities of merged lines add; the merged score is the plain or
// probability-weighted mean of its members per mode; the representative
// vector is the member with the highest (boundary-adjusted, see Combine)
// vector probability. maxLines ≤ 0 falls back to exact CombineInto.
func CombineCoalesce(dst *Dist, skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch,
	maxLines int, mode CoalesceMode, trackVectors bool, skipTrue func(bound float64) float64) *Dist {
	var g GridCombiner
	return g.Combine(dst, skip, skipFactor, take, branches, maxLines, mode, trackVectors, skipTrue)
}

// GridCombiner runs CombineCoalesce with a reusable cell buffer; the dynamic
// program calls it once per cell, so per-call allocation would dominate. The
// zero value is ready to use; not safe for concurrent use.
//
// The cell accumulators are parallel arrays (one slot per output grid cell):
// the score/probability arrays are cleared on every call, while the five
// vector arrays are cleared — and even allocated — only when the call tracks
// vectors, so the untracked path touches exactly 20 bytes of accumulator
// state per cell.
type GridCombiner struct {
	// Arena, when non-nil, supplies the vector nodes materialised for
	// surviving cells (and by the exact fallback path). Results built with an
	// arena must be detached (Dist.DetachVectors) before the arena is reset.
	Arena *VectorArena

	prob  []float64 // Σ p over member lines
	sum   []float64 // Σ s (plain mode) or Σ s·p (weighted mode)
	count []int32   // member lines

	// Representative-vector cell state, valid where cellHasVec is set. Only
	// cellHasVec needs clearing between calls: the others are fully
	// overwritten before first read.
	cellVP     []float64
	cellVB     []float64
	cellBase   []*Vector
	cellTuple  []int32
	cellHasVec []bool

	co Coalescer // for the exact-path overflow fallback
}

// gridSrc is one input stream of the grid pass.
type gridSrc struct {
	scores  []float64
	probs   []float64
	vecs    []*Vector
	vprobs  []float64
	vbounds []float64
	shift   float64
	factor  float64
	tuple   int // -1 for the skip source
	hasVec  bool
}

// exact runs the non-grid fallback (exact merge, then closest-pair coalesce
// if the result still exceeds maxLines).
func (g *GridCombiner) exact(dst *Dist, skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch,
	maxLines int, mode CoalesceMode, trackVectors bool, skipTrue func(bound float64) float64) *Dist {
	out := combineInto(dst, skip, skipFactor, take, branches, trackVectors, skipTrue, g.Arena)
	if maxLines > 0 && out.Len() > maxLines {
		g.co.Coalesce(out, maxLines, mode)
	}
	return out
}

// Combine is CombineCoalesce against the reusable buffer; see its
// documentation.
func (g *GridCombiner) Combine(dst *Dist, skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch,
	maxLines int, mode CoalesceMode, trackVectors bool, skipTrue func(bound float64) float64) *Dist {
	if maxLines <= 0 || len(branches) >= 16 {
		// Unlimited mode, or more rule-tuple branches than the fixed source
		// array holds: use the exact path (the latter is possible only for
		// ME groups with 15+ members and stays correct, just slower).
		return g.exact(dst, skip, skipFactor, take, branches, maxLines, mode, trackVectors, skipTrue)
	}
	var srcs [16]gridSrc
	n := 0
	if skip != nil && len(skip.scores) > 0 && skipFactor > 0 {
		srcs[n] = gridSrc{scores: skip.scores, probs: skip.probs, factor: skipFactor, tuple: -1, hasVec: skip.hasVec}
		if skip.hasVec {
			srcs[n].vecs, srcs[n].vprobs, srcs[n].vbounds = skip.vecs, skip.vprobs, skip.vbounds
		}
		n++
	}
	if take != nil && len(take.scores) > 0 {
		for _, b := range branches {
			if b.Factor > 0 && n < len(srcs) {
				srcs[n] = gridSrc{scores: take.scores, probs: take.probs, shift: b.Shift, factor: b.Factor, tuple: b.Tuple, hasVec: take.hasVec}
				if take.hasVec {
					srcs[n].vecs, srcs[n].vprobs, srcs[n].vbounds = take.vecs, take.vprobs, take.vbounds
				}
				n++
			}
		}
	}
	if n == 0 {
		out := dst
		if out == nil {
			out = New()
		}
		out.reset(trackVectors)
		return out
	}
	total := 0
	lo, hi := 0.0, 0.0
	for i := 0; i < n; i++ {
		s := &srcs[i]
		total += len(s.scores)
		slo := s.scores[0] + s.shift
		shi := s.scores[len(s.scores)-1] + s.shift
		if i == 0 || slo < lo {
			lo = slo
		}
		if i == 0 || shi > hi {
			hi = shi
		}
	}
	if total <= maxLines || hi <= lo {
		// Small enough (or zero span): the exact merge already fits. (Zero
		// span cannot overflow — equal scores combine to one line; small
		// inputs may still exceed after ties split, which exact handles by
		// coalescing the remainder.)
		return g.exact(dst, skip, skipFactor, take, branches, maxLines, mode, trackVectors, skipTrue)
	}

	// Grid accumulation. idx = floor((s − lo)·(1/δ)) with δ chosen so at most
	// maxLines cells exist; one multiply per line instead of a divide.
	invDelta := float64(maxLines-1) / (hi - lo)
	g.grow(maxLines, trackVectors)
	// Local [:maxLines] views plus the two-sided idx clamp below let the
	// compiler prove 0 ≤ idx < len for every cell-array access, so the inner
	// loops carry no bounds checks. (idx cannot actually go negative —
	// score ≥ lo — the low clamp exists purely for the prover.)
	prob := g.prob[:maxLines]
	sum := g.sum[:maxLines]
	count := g.count[:maxLines]
	last := maxLines - 1
	weighted := mode == CoalesceWeightedAverage
	for i := 0; i < n; i++ {
		s := &srcs[i]
		scores := s.scores
		probs := s.probs[:len(scores)]
		shift, factor := s.shift, s.factor
		if !trackVectors {
			// Untracked hot path: two mode-specialised scalar loops streaming
			// only the score/prob arrays.
			if weighted {
				for li, sc0 := range scores {
					sc := sc0 + shift
					idx := int((sc - lo) * invDelta)
					if idx > last {
						idx = last
					} else if idx < 0 {
						idx = 0
					}
					p := probs[li] * factor
					prob[idx] += p
					sum[idx] += sc * p
					count[idx]++
				}
			} else {
				for li, sc0 := range scores {
					sc := sc0 + shift
					idx := int((sc - lo) * invDelta)
					if idx > last {
						idx = last
					} else if idx < 0 {
						idx = 0
					}
					prob[idx] += probs[li] * factor
					sum[idx] += sc
					count[idx]++
				}
			}
			continue
		}
		// Tracked path: fused accumulation + representative-vector election,
		// specialised per source kind so the inner loops carry no
		// loop-invariant branching.
		cellVP := g.cellVP[:maxLines]
		cellVB := g.cellVB[:maxLines]
		cellBase := g.cellBase[:maxLines]
		cellTuple := g.cellTuple[:maxLines]
		cellHasVec := g.cellHasVec[:maxLines]
		svecs, svps, svbs := s.vecs, s.vprobs, s.vbounds
		if svecs != nil {
			svecs = svecs[:len(scores)]
			svps = svps[:len(scores)]
			svbs = svbs[:len(scores)]
		}
		switch {
		case s.tuple < 0 && skipTrue != nil:
			// Skip source with boundary-aware vector adjustment.
			for li, sc0 := range scores {
				sc := sc0 + shift
				idx := int((sc - lo) * invDelta)
				if idx > last {
					idx = last
				} else if idx < 0 {
					idx = 0
				}
				p := probs[li] * factor
				prob[idx] += p
				if weighted {
					sum[idx] += sc * p
				} else {
					sum[idx] += sc
				}
				count[idx]++
				var inVec *Vector
				var vp, vb float64
				if svecs != nil {
					inVec, vp, vb = svecs[li], svps[li], svbs[li]
				}
				vp *= skipTrue(vb)
				if !cellHasVec[idx] || vp > cellVP[idx] {
					cellHasVec[idx] = true
					cellVP[idx] = vp
					cellVB[idx] = vb
					cellBase[idx] = inVec
					cellTuple[idx] = -1
				}
			}
		case s.tuple < 0:
			// Skip source, path-probability semantics.
			for li, sc0 := range scores {
				sc := sc0 + shift
				idx := int((sc - lo) * invDelta)
				if idx > last {
					idx = last
				} else if idx < 0 {
					idx = 0
				}
				p := probs[li] * factor
				prob[idx] += p
				if weighted {
					sum[idx] += sc * p
				} else {
					sum[idx] += sc
				}
				count[idx]++
				var inVec *Vector
				var vp, vb float64
				if svecs != nil {
					inVec, vp, vb = svecs[li], svps[li], svbs[li]
				}
				vp *= factor
				if !cellHasVec[idx] || vp > cellVP[idx] {
					cellHasVec[idx] = true
					cellVP[idx] = vp
					cellVB[idx] = vb
					cellBase[idx] = inVec
					cellTuple[idx] = -1
				}
			}
		default:
			// Take source: the branch tuple joins the vector; a take onto an
			// empty vector fixes the boundary at the tuple's own score.
			tuple := int32(s.tuple)
			for li, sc0 := range scores {
				sc := sc0 + shift
				idx := int((sc - lo) * invDelta)
				if idx > last {
					idx = last
				} else if idx < 0 {
					idx = 0
				}
				p := probs[li] * factor
				prob[idx] += p
				if weighted {
					sum[idx] += sc * p
				} else {
					sum[idx] += sc
				}
				count[idx]++
				var inVec *Vector
				var vp, vb float64
				if svecs != nil {
					inVec, vp, vb = svecs[li], svps[li], svbs[li]
				}
				vp *= factor
				if inVec == nil {
					vb = shift
				}
				if !cellHasVec[idx] || vp > cellVP[idx] {
					cellHasVec[idx] = true
					cellVP[idx] = vp
					cellVB[idx] = vb
					cellBase[idx] = inVec
					cellTuple[idx] = tuple
				}
			}
		}
	}
	return g.emit(dst, maxLines, weighted, trackVectors)
}

// emit builds the output distribution from the surviving grid cells with
// direct indexed writes (the append/sameScore bookkeeping per line showed up
// in profiles). Cell averages are strictly increasing across cells — every
// member of cell i scores below every member of cell i+1 — so the output is
// sorted by construction and only adjacent emitted lines can collide within
// Eps, which the in-place merge below handles exactly like appendCombine.
func (g *GridCombiner) emit(dst *Dist, maxLines int, weighted, trackVectors bool) *Dist {
	out := dst
	if out == nil {
		out = New()
	}
	out.reset(trackVectors)
	out.ensureCap(maxLines)
	prob, sum, count := g.prob, g.sum, g.count
	oScores := out.scores[:maxLines]
	oProbs := out.probs[:maxLines]
	var oVecs []*Vector
	var oVPs, oVBs []float64
	if trackVectors {
		out.vecs = out.vecs[:maxLines]
		out.vprobs = out.vprobs[:maxLines]
		out.vbounds = out.vbounds[:maxLines]
		oVecs, oVPs, oVBs = out.vecs, out.vprobs, out.vbounds
	}
	ar := g.Arena
	w := 0
	for i := 0; i < maxLines; i++ {
		if count[i] == 0 || prob[i] <= 0 {
			continue
		}
		var score float64
		if weighted {
			score = sum[i] / prob[i]
		} else {
			score = sum[i] / float64(count[i])
		}
		if !trackVectors {
			if w > 0 && sameScore(oScores[w-1], score) {
				oProbs[w-1] += prob[i]
				continue
			}
			oScores[w] = score
			oProbs[w] = prob[i]
			w++
			continue
		}
		var vec *Vector
		var vp, vb float64
		if g.cellHasVec[i] {
			vp, vb = g.cellVP[i], g.cellVB[i]
			if t := g.cellTuple[i]; t >= 0 {
				vec = ar.Prepend(g.cellBase[i], int(t))
			} else {
				vec = g.cellBase[i]
			}
		}
		if w > 0 && sameScore(oScores[w-1], score) {
			oProbs[w-1] += prob[i]
			if vp > oVPs[w-1] {
				oVecs[w-1], oVPs[w-1], oVBs[w-1] = vec, vp, vb
			}
			continue
		}
		oScores[w] = score
		oProbs[w] = prob[i]
		oVecs[w] = vec
		oVPs[w] = vp
		oVBs[w] = vb
		w++
	}
	out.scores = oScores[:w]
	out.probs = oProbs[:w]
	if trackVectors {
		out.vecs = oVecs[:w]
		out.vprobs = oVPs[:w]
		out.vbounds = oVBs[:w]
	}
	return out
}

// grow sizes and clears the cell accumulators for a pass over maxLines
// cells. The vector arrays are left untouched (not even allocated) when the
// pass does not track vectors.
func (g *GridCombiner) grow(maxLines int, trackVectors bool) {
	if cap(g.prob) < maxLines {
		g.prob = make([]float64, maxLines)
		g.sum = make([]float64, maxLines)
		g.count = make([]int32, maxLines)
	}
	g.prob = g.prob[:maxLines]
	g.sum = g.sum[:maxLines]
	g.count = g.count[:maxLines]
	clear(g.prob)
	clear(g.sum)
	clear(g.count)
	if !trackVectors {
		// Drop any bases left by an earlier tracked pass so they don't pin
		// that query's vector nodes for the combiner's pooled lifetime.
		clear(g.cellBase)
		return
	}
	if cap(g.cellHasVec) < maxLines {
		g.cellVP = make([]float64, maxLines)
		g.cellVB = make([]float64, maxLines)
		g.cellBase = make([]*Vector, maxLines)
		g.cellTuple = make([]int32, maxLines)
		g.cellHasVec = make([]bool, maxLines)
	}
	g.cellVP = g.cellVP[:maxLines]
	g.cellVB = g.cellVB[:maxLines]
	g.cellBase = g.cellBase[:maxLines]
	g.cellTuple = g.cellTuple[:maxLines]
	g.cellHasVec = g.cellHasVec[:maxLines]
	// cellHasVec gates every read of the other four, which are overwritten
	// before first use; one byte per cell is the whole vector-state reset.
	clear(g.cellHasVec)
	// Dead cellBase pointers would pin vector nodes across queries; the
	// arena recycles nodes anyway, but heap-allocated vectors (no arena)
	// must not leak. Clearing pointers is still cheap.
	clear(g.cellBase)
}

// Trim drops cell and coalescing buffers grown past maxLines lines, so a
// pooled GridCombiner does not pin the buffers of one huge line cap.
func (g *GridCombiner) Trim(maxLines int) {
	if cap(g.prob) > maxLines {
		g.prob, g.sum, g.count = nil, nil, nil
	}
	if cap(g.cellHasVec) > maxLines {
		g.cellVP, g.cellVB, g.cellBase, g.cellTuple, g.cellHasVec = nil, nil, nil, nil, nil
	}
	g.co.Trim(maxLines)
}
