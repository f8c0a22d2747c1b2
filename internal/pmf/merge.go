package pmf

// Merger unions distributions — the main algorithm's last step, which
// merges the per-unit answers into one — in two flat ping-pong buffers it
// reuses across calls, so once they have grown a merge allocates nothing.
// The zero value is ready to use; a Merger must not be used concurrently.
type Merger struct {
	buf   [2]Dist
	views []Dist // the current round's inputs
	ends  []int  // end offset of each segment the current round wrote
}

// MergeAll unions ds pairwise in tournament order: ds[0] with ds[1], ds[2]
// with ds[3] and so on, an odd last input passing through unchanged, then
// the same over each round's results until one remains. Each pairwise union
// takes the lower score first (the left input's on equal scores) and
// combines a line with the previous one when their scores match within Eps,
// adding the probabilities and keeping the representative vector with the
// higher vector probability (the earlier one on a tie). The fixed order
// fixes every floating-point sum, so the result is reproducible bit for bit.
//
// Empty inputs are skipped; the others are read, never modified. The result
// lives in m's buffers: it stays valid — and may be modified in place, for
// instance coalesced — until the next call.
func (m *Merger) MergeAll(ds []*Dist) *Dist {
	cur := m.views[:0]
	total, hasVec := 0, false
	for _, d := range ds {
		if d != nil && len(d.scores) > 0 {
			cur = append(cur, *d)
			total += len(d.scores)
			hasVec = hasVec || d.hasVec
		}
	}
	inputs := len(cur)
	var out *Dist
	// Round 0 always runs, so even a lone input is copied into the buffer.
	for r := 0; r == 0 || len(cur) > 1; r++ {
		out = &m.buf[r%2]
		out.reset(hasVec)
		out.ensureCap(total)
		ends := m.ends[:0]
		for i := 0; i < len(cur); i += 2 {
			if i+1 < len(cur) {
				out.appendUnion(&cur[i], &cur[i+1])
			} else {
				out.appendAll(&cur[i])
			}
			ends = append(ends, len(out.scores))
		}
		// The round's inputs are dead: view its segments as the next round's.
		cur = cur[:0]
		start := 0
		for _, end := range ends {
			cur = append(cur, out.segment(start, end))
			start = end
		}
		m.ends = ends
	}
	// Drop the views so they do not pin the inputs' storage.
	clear(cur[:inputs])
	m.views = cur[:0]
	return out
}

// segment views lines [start, end) of d.
func (d *Dist) segment(start, end int) Dist {
	v := Dist{scores: d.scores[start:end:end], probs: d.probs[start:end:end], hasVec: d.hasVec}
	if d.hasVec {
		v.vecs = d.vecs[start:end:end]
		v.vprobs = d.vprobs[start:end:end]
		v.vbounds = d.vbounds[start:end:end]
	}
	return v
}

// appendAll appends a's lines to d verbatim, as a segment of their own.
func (d *Dist) appendAll(a *Dist) {
	n := len(a.scores)
	d.scores = append(d.scores, a.scores...)
	d.probs = append(d.probs, a.probs...)
	if !d.hasVec {
		return
	}
	if a.hasVec {
		d.vecs = append(d.vecs, a.vecs...)
		d.vprobs = append(d.vprobs, a.vprobs...)
		d.vbounds = append(d.vbounds, a.vbounds...)
		return
	}
	for range n {
		d.vecs = append(d.vecs, nil)
		d.vprobs = append(d.vprobs, 0)
		d.vbounds = append(d.vbounds, 0)
	}
}

// appendUnion appends the union of a and b to d as a new segment: a line
// combines only with an earlier line of the same segment. d must have room
// for every line of both, so nothing reallocates.
func (d *Dist) appendUnion(a, b *Dist) {
	start := len(d.scores)
	na, nb := len(a.scores), len(b.scores)
	for i, j := 0, 0; i < na || j < nb; {
		src, k := b, j
		if j >= nb || (i < na && a.scores[i] <= b.scores[j]) {
			src, k = a, i
			i++
		} else {
			j++
		}
		score, prob := src.scores[k], src.probs[k]
		n := len(d.scores)
		same := n > start && sameScore(d.scores[n-1], score)
		if !d.hasVec {
			if same {
				d.probs[n-1] += prob
			} else {
				d.scores = append(d.scores, score)
				d.probs = append(d.probs, prob)
			}
			continue
		}
		var vec *Vector
		var vp, vb float64
		if src.hasVec {
			vec, vp, vb = src.vecs[k], src.vprobs[k], src.vbounds[k]
		}
		if same {
			d.probs[n-1] += prob
			if vp > d.vprobs[n-1] {
				d.vecs[n-1], d.vprobs[n-1], d.vbounds[n-1] = vec, vp, vb
			}
			continue
		}
		d.scores = append(d.scores, score)
		d.probs = append(d.probs, prob)
		d.vecs = append(d.vecs, vec)
		d.vprobs = append(d.vprobs, vp)
		d.vbounds = append(d.vbounds, vb)
	}
}

// Trim readies m for a long idle spell in a pool: it drops buffers grown
// past maxLines lines and clears the vector references of the others, so a
// pooled Merger pins neither a huge merge nor an earlier query's vectors.
func (m *Merger) Trim(maxLines int) {
	for i := range m.buf {
		b := &m.buf[i]
		if cap(b.scores) > maxLines || cap(b.vecs) > maxLines {
			*b = Dist{}
			continue
		}
		clear(b.vecs[:cap(b.vecs)])
		b.reset(false)
	}
	if cap(m.views) > maxLines {
		m.views, m.ends = nil, nil
	}
}
