package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call: its name ("layer.operation", or "request" for the
// root of one replayed request), its interval since the trace epoch, the
// index of the span that caused it in the same tracer (-1 for a root), and
// the request id shared by every span of one request.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int64
}

// tracer records the spans of one replay goroutine in memory. A nil tracer
// records nothing and reads no clock.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
}

func (s span) dur() time.Duration { return s.end - s.start }

// layerOf is the layer a span belongs to: the part of its name before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanSummary is what the per-layer metrics read from a traced replay.
type spanSummary struct {
	// byName holds every span duration per span name.
	byName map[string][]time.Duration
	// selfByLayer is each layer's self time: span durations minus the time
	// their child spans cover.
	selfByLayer map[string]time.Duration
	// requestTime sums the root spans; covered sums the root spans'
	// direct children, the time some layer span accounts for.
	requestTime, covered time.Duration
}

// summarize computes self times from spans. Spans from different tracers
// are concatenated, so parents are resolved within each tracer's block: a
// span's parent index always precedes it in its own block, which
// runReplay preserves by appending whole blocks.
func summarize(blocks [][]span) spanSummary {
	s := spanSummary{byName: map[string][]time.Duration{}, selfByLayer: map[string]time.Duration{}}
	for _, spans := range blocks {
		child := make([]time.Duration, len(spans))
		for _, sp := range spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.dur()
			}
		}
		for i, sp := range spans {
			s.byName[sp.name] = append(s.byName[sp.name], sp.dur())
			if sp.parent < 0 {
				s.requestTime += sp.dur()
				s.covered += child[i]
				continue
			}
			s.selfByLayer[layerOf(sp.name)] += sp.dur() - child[i]
		}
	}
	return s
}

// writeSpans writes every span as one tab-separated line: request id, span
// index, parent index, name, start and end in ns since the trace epoch.
func writeSpans(path string, blocks [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "block\treq\tspan\tparent\tname\tstart_ns\tend_ns")
	for b, spans := range blocks {
		for i, sp := range spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", b, sp.req, i, sp.parent, sp.name, sp.start.Nanoseconds(), sp.end.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
