package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// span is one timed interval recorded by the benchmark's own code around
// a call into a layer. Times are host nanoseconds since the trace began;
// Parent indexes the enclosing span (-1 for a root). Spans of one
// benchmark invocation share the tracer's run id.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the benchmark writes them
// out at the end. A nil *tracer records nothing: untraced reps pay one
// nil check per call site and nothing else.
//
// A tracer is owned by one goroutine. Work on other goroutines (geo
// sites) stamps times with now() into buffers of its own, which the
// owner turns into spans with add once the goroutines are parked.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// now reports host nanoseconds since the trace began. Safe from any
// goroutine: it only reads the immutable start time.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, t.now(), -1)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// add records an already-timed span and returns its id.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the part of each span's interval its child
	// spans cover (children that ran in parallel count once).
	Self float64 `json:"self_s"`
}

// layerStats folds spans[from:] into per-name totals and self times.
func layerStats(spans []span, from int) []layerStat {
	children := make(map[int][]span)
	for _, s := range spans[from:] {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerStat)
	for i := from; i < len(spans); i++ {
		s := spans[i]
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.dur()
		st.Count++
		st.Total += float64(d) / 1e9
		st.Self += float64(d-covered(s, children[i])) / 1e9
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered reports how many nanoseconds of parent's interval the union of
// kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// selfOf sums the self time of every span named name.
func selfOf(stats []layerStat, name string) float64 {
	for _, st := range stats {
		if st.Name == name {
			return st.Self
		}
	}
	return 0
}

// totalOf sums the duration of every span named name.
func totalOf(stats []layerStat, name string) float64 {
	for _, st := range stats {
		if st.Name == name {
			return st.Total
		}
	}
	return 0
}

// printLayerTable renders per-layer totals, with the share of all root
// time each layer's self time accounts for.
func printLayerTable(w io.Writer, stats []layerStat) {
	var roots float64
	for _, st := range stats {
		if st.Name == "rep" {
			roots = st.Total
		}
	}
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, st := range stats {
		share := 0.0
		if roots > 0 {
			share = 100 * st.Self / roots
		}
		fmt.Fprintf(w, "%-28s %8d %12.6f %12.6f %6.2f%%\n", st.Name, st.Count, st.Total, st.Self, share)
	}
	fmt.Fprintln(w, strings.Repeat("-", 71))
}

// handlerClock attributes host time to periodic handlers that a layer
// registers on an engine itself, without editing the layer. For each
// handler period the benchmark schedules one marker event just before the
// layer registers its handlers and one just after, at the same period;
// the engine fires simultaneous events in scheduling order, so at every
// firing time the layer's handlers sit between the two markers. An
// after-event hook stamps the end of every event, which gives each
// bracketed handler's duration (including its own pop and re-push on the
// event heap). Markers and the hook only read the clock, so the
// simulation's outcome is unchanged; the benchmark checks that by
// comparing digests of traced and untraced runs.
type handlerClock struct {
	tr     *tracer
	parent int // span id bracketed handlers are recorded under
	last   int64
	marker bool // the event that just fired was a marker

	open *bracket
	durs [][2]int64

	// markerFires counts marker events, so engine event counts can be
	// reported net of the instrumentation.
	markerFires uint64
	markers     int
	// Mismatches counts brackets that did not hold the expected number of
	// handler events (an unexpected event at the same instant), whose
	// time was left unattributed.
	mismatches int

	// mgrStart is set when the manager's tick calls the benchmark's
	// demand function, first thing; the hook closes it into a span.
	mgrStart int64
}

// bracket is one handler group sharing a period: the span names of the
// handlers the layer registers at that period, in registration order.
type bracket struct {
	period time.Duration
	labels []string
}

func newHandlerClock(tr *tracer, e *sim.Engine) *handlerClock {
	c := &handlerClock{tr: tr, parent: -1, mgrStart: -1}
	e.AfterEvent(func(*sim.Engine) { c.afterEvent() })
	return c
}

// openGroups schedules the leading markers for groups; call it immediately
// before the layer registers its handlers.
func (c *handlerClock) openGroups(e *sim.Engine, groups []*bracket) {
	for _, b := range groups {
		b := b
		e.Every(b.period, func(*sim.Engine) {
			c.marker = true
			c.markerFires++
			c.open = b
			c.durs = c.durs[:0]
		})
		c.markers++
	}
}

// closeGroups schedules the trailing markers; call it immediately after
// the layer registered its handlers.
func (c *handlerClock) closeGroups(e *sim.Engine, groups []*bracket) {
	for _, b := range groups {
		b := b
		e.Every(b.period, func(*sim.Engine) {
			c.marker = true
			c.markerFires++
			if c.open != b || len(c.durs) != len(b.labels) {
				c.mismatches++
			} else {
				for i, d := range c.durs {
					c.tr.add(b.labels[i], c.parent, d[0], d[1])
				}
			}
			c.open = nil
		})
		c.markers++
	}
}

// managerStarted marks the start of the manager's tick from inside the
// demand callback the tick makes first thing (possibly more than once);
// the event's end closes the span.
func (c *handlerClock) managerStarted() {
	if c.mgrStart < 0 {
		c.mgrStart = c.tr.now()
	}
}

func (c *handlerClock) afterEvent() {
	now := c.tr.now()
	start := c.last
	c.last = now
	switch {
	case c.marker:
		c.marker = false
	case c.open != nil:
		c.durs = append(c.durs, [2]int64{start, now})
	case c.mgrStart >= 0:
		c.tr.add("core.manager", c.parent, c.mgrStart, now)
		c.mgrStart = -1
	}
}

// startRun re-anchors the clock when the engine is about to run after
// an idle gap.
func (c *handlerClock) startRun(parent int) {
	c.parent = parent
	c.last = c.tr.now()
}
