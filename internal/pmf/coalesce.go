package pmf

// CoalesceMode selects how the score of a merged line pair is chosen.
type CoalesceMode int

const (
	// CoalescePlainAverage uses the unweighted average of the two scores,
	// exactly as §3.2.1 of the paper prescribes ("the score value is their
	// average and the probability is their sum").
	CoalescePlainAverage CoalesceMode = iota
	// CoalesceWeightedAverage uses the probability-weighted average, which
	// preserves the distribution mean. Offered as an option; not the paper's
	// default.
	CoalesceWeightedAverage
)

// Coalesce reduces d to at most maxLines lines in place by repeatedly merging
// the two closest lines (by score): the merged score is chosen per mode, the
// probability is the sum, and the representative vector with the higher
// vector probability is kept. maxLines ≤ 0 means "no limit" (no-op).
// It returns the number of merges performed.
//
// Callers that coalesce in a loop (the dynamic program does so at every
// cell) should allocate one Coalescer and reuse it.
func (d *Dist) Coalesce(maxLines int, mode CoalesceMode) int {
	var c Coalescer
	return c.Coalesce(d, maxLines, mode)
}

// Coalescer runs closest-pair line coalescing with reusable scratch buffers,
// avoiding per-call allocation. The zero value is ready to use; a Coalescer
// must not be used concurrently.
type Coalescer struct {
	prev, next, ver []int
	h               []gapEntry
}

// Coalesce applies the closest-pair strategy to d in place; see
// Dist.Coalesce for semantics.
func (c *Coalescer) Coalesce(d *Dist, maxLines int, mode CoalesceMode) int {
	if maxLines <= 0 || len(d.scores) <= maxLines {
		return 0
	}
	merges := len(d.scores) - maxLines
	if maxLines == 1 && mode == CoalesceWeightedAverage {
		d.coalesceToOne()
		return merges
	}
	c.run(d, maxLines, mode)
	return merges
}

// coalesceToOne collapses everything into a single mass-weighted line.
func (d *Dist) coalesceToOne() {
	var mass, wsum KahanSum
	for i, p := range d.probs {
		mass.Add(p)
		wsum.Add(d.scores[i] * p)
	}
	best := 0
	if d.hasVec {
		for i, vp := range d.vprobs {
			if vp > d.vprobs[best] {
				best = i
			}
		}
	}
	m := mass.Sum()
	score := 0.0
	if m > 0 {
		score = wsum.Sum() / m
	}
	if d.hasVec {
		d.vecs[0], d.vprobs[0], d.vbounds[0] = d.vecs[best], d.vprobs[best], d.vbounds[best]
		d.vecs, d.vprobs, d.vbounds = d.vecs[:1], d.vprobs[:1], d.vbounds[:1]
	}
	d.scores, d.probs = d.scores[:1], d.probs[:1]
	d.scores[0], d.probs[0] = score, m
}

// gapEntry is a candidate pair of adjacent live lines in the coalescing
// doubly-linked list.
type gapEntry struct {
	left, right int     // indices into the node arrays
	gap         float64 // score distance at push time
	lv, rv      int     // node versions at push time (for lazy invalidation)
}

// siftDown restores the min-heap property below index i.
func siftDown(h []gapEntry, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].gap < h[l].gap {
			m = r
		}
		if h[i].gap <= h[m].gap {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// hpush adds an entry to the gap heap. Hand-rolled (vs container/heap) so
// entries never round-trip through an interface value: the DP coalesces at
// every cell and the per-Pop box was a measurable slice of total allocation.
func (c *Coalescer) hpush(e gapEntry) {
	h := append(c.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].gap <= h[i].gap {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.h = h
}

// hpop removes and returns the minimum-gap entry. The heap must be non-empty.
func (c *Coalescer) hpop() gapEntry {
	h := c.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0)
	c.h = h
	return top
}

// grow resizes the scratch buffers to hold n nodes without reallocating on
// subsequent calls of the same or smaller size.
func (c *Coalescer) grow(n int) {
	if cap(c.prev) < n {
		c.prev = make([]int, n)
		c.next = make([]int, n)
		c.ver = make([]int, n)
		c.h = make([]gapEntry, 0, 2*n)
	}
	c.prev = c.prev[:n]
	c.next = c.next[:n]
	c.ver = c.ver[:n]
	c.h = c.h[:0]
	for i := 0; i < n; i++ {
		c.prev[i] = i - 1
		c.next[i] = i + 1
		c.ver[i] = 0
	}
	c.next[n-1] = -1
}

// Trim drops scratch buffers grown past maxLines lines, so a pooled
// Coalescer does not pin the heap of one huge coalesce.
func (c *Coalescer) Trim(maxLines int) {
	if cap(c.prev) > maxLines || cap(c.h) > 2*maxLines {
		*c = Coalescer{}
	}
}

// run implements the closest-pair strategy with a min-heap of adjacent gaps
// over a doubly-linked list, with lazy invalidation by node version.
// O((n + merges) log n).
func (c *Coalescer) run(d *Dist, maxLines int, mode CoalesceMode) {
	n := len(d.scores)
	scores := d.scores
	probs := d.probs[:n]
	hasVec := d.hasVec
	var vecs []*Vector
	var vprobs, vbounds []float64
	if hasVec {
		vecs, vprobs, vbounds = d.vecs[:n], d.vprobs[:n], d.vbounds[:n]
	}
	c.grow(n)
	prev, next, ver := c.prev, c.next, c.ver
	alive := n
	for i := 0; i+1 < n; i++ {
		c.h = append(c.h, gapEntry{left: i, right: i + 1, gap: scores[i+1] - scores[i]})
	}
	for i := len(c.h)/2 - 1; i >= 0; i-- {
		siftDown(c.h, i)
	}
	for alive > maxLines {
		e := c.hpop()
		if ver[e.left] != e.lv || ver[e.right] != e.rv {
			continue // stale entry
		}
		l, r := e.left, e.right
		var score float64
		switch mode {
		case CoalesceWeightedAverage:
			if m := probs[l] + probs[r]; m > 0 {
				score = (scores[l]*probs[l] + scores[r]*probs[r]) / m
			} else {
				score = (scores[l] + scores[r]) / 2
			}
		default:
			score = (scores[l] + scores[r]) / 2
		}
		probs[l] += probs[r]
		if hasVec && vprobs[r] > vprobs[l] {
			vecs[l], vprobs[l], vbounds[l] = vecs[r], vprobs[r], vbounds[r]
		}
		scores[l] = score
		ver[l]++
		ver[r]++ // tombstone
		// Unlink right.
		nr := next[r]
		next[l] = nr
		if nr >= 0 {
			prev[nr] = l
		}
		alive--
		// Push refreshed gaps around the merged node.
		if p := prev[l]; p >= 0 {
			c.hpush(gapEntry{left: p, right: l, gap: scores[l] - scores[p], lv: ver[p], rv: ver[l]})
		}
		if nx := next[l]; nx >= 0 {
			c.hpush(gapEntry{left: l, right: nx, gap: scores[nx] - scores[l], lv: ver[l], rv: ver[nx]})
		}
	}
	// Compact the surviving lines in list order.
	w := 0
	for i := 0; i != -1; i = next[i] {
		scores[w] = scores[i]
		probs[w] = probs[i]
		if hasVec {
			vecs[w] = vecs[i]
			vprobs[w] = vprobs[i]
			vbounds[w] = vbounds[i]
		}
		w++
	}
	d.scores = scores[:w]
	d.probs = probs[:w]
	if hasVec {
		d.vecs = vecs[:w]
		d.vprobs = vprobs[:w]
		d.vbounds = vbounds[:w]
	}
	// Plain averaging can reorder scores only in pathological equal-score
	// cases; restore the sorted invariant defensively.
	d.sortByScore()
}
