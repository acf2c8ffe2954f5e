package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"drainnas/internal/serve"
)

// span is one layer call seen from the benchmark: the spans of one traced
// request share req, and parent links a span to the call that caused it
// (-1 for the request's root).
type span struct {
	id, parent int
	req, name  string
	start, end time.Time
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(req, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

// open starts a span whose end is set by the returned function.
func (t *tracer) open(req, name string, parent int) (id int, end func()) {
	id = t.add(req, name, parent, time.Now(), time.Time{})
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id].end = now
		t.mu.Unlock()
	}
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// within records a child span of reported duration d that ends where its
// parent ends (a duration the program reports, such as a replica's total),
// clipped to the parent.
func (t *tracer) within(parent int, name string, endAt time.Time, d time.Duration) int {
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	start := endAt.Add(-d)
	if start.Before(p.start) {
		start = p.start
	}
	return t.add(p.req, name, parent, start, endAt)
}

// serveSpans places serve.queue and serve.exec under parent from the
// times a serving response reports, ending at end.
func (t *tracer) serveSpans(parent int, end time.Time, resp serve.Response) {
	exec := resp.Total - resp.Queued
	t.within(parent, "serve.exec", end, exec)
	t.within(parent, "serve.queue", end.Add(-exec), resp.Queued)
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start.Before(cs[b].start) })
		covered := time.Duration(0)
		var cur time.Time // end of the covered prefix
		for _, c := range cs {
			lo, hi := maxTime(c.start, s.start), minTime(c.end, s.end)
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		self[i] = s.end.Sub(s.start) - covered
	}
	return self
}

// checkSelfSums verifies that, for every request, the self times of its
// spans sum to its root span's duration; it returns the number of requests
// checked.
func checkSelfSums(spans []span, self []time.Duration) (int, error) {
	sum := map[string]time.Duration{}
	root := map[string]time.Duration{}
	for i, s := range spans {
		sum[s.req] += self[i]
		if s.parent < 0 {
			if _, dup := root[s.req]; dup {
				return 0, fmt.Errorf("request %s has two root spans", s.req)
			}
			root[s.req] = s.end.Sub(s.start)
		}
	}
	for req, total := range sum {
		r, ok := root[req]
		if !ok {
			return 0, fmt.Errorf("request %s has no root span", req)
		}
		if d := total - r; d > time.Microsecond || d < -time.Microsecond {
			return 0, fmt.Errorf("request %s: self times sum to %v, root lasts %v", req, total, r)
		}
	}
	return len(root), nil
}

// layerSummary is one layer's aggregate over the traced run.
type layerSummary struct {
	name   string
	calls  int
	selfMS []float64
	durMS  []float64
}

func summarize(spans []span, self []time.Duration) []*layerSummary {
	by := map[string]*layerSummary{}
	for i, s := range spans {
		l := by[s.name]
		if l == nil {
			l = &layerSummary{name: s.name}
			by[s.name] = l
		}
		l.calls++
		l.selfMS = append(l.selfMS, ms(self[i]))
		l.durMS = append(l.durMS, ms(s.end.Sub(s.start)))
	}
	out := make([]*layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, l)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// durations returns the durations in ms of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// writeSpans dumps the spans, one per line, tab-separated:
//
//	req  id  parent  name  start_us  end_us  self_us
//
// times in microseconds from the start of the traced run; parent is -1 for
// a request's root span.
func (t *tracer) writeSpans(w io.Writer, self []time.Duration) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# req\tid\tparent\tname\tstart_us\tend_us\tself_us")
	us := func(x time.Time) int64 { return x.Sub(t.epoch).Microseconds() }
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n", s.req, s.id, s.parent, s.name, us(s.start), us(s.end), self[i].Microseconds())
	}
	return bw.Flush()
}

// writeSummary prints the per-layer self-time table.
func writeSummary(w io.Writer, layers []*layerSummary) {
	fmt.Fprintf(w, "%-22s %7s %12s %12s %12s\n", "layer", "calls", "self_total_ms", "self_p50_ms", "dur_p50_ms")
	for _, l := range layers {
		var tot float64
		for _, x := range l.selfMS {
			tot += x
		}
		fmt.Fprintf(w, "%-22s %7d %12.2f %12.3f %12.3f\n", l.name, l.calls, tot, median(l.selfMS), median(l.durMS))
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
