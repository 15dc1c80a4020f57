package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and End are nanoseconds since the tracer was created.
// Parent is the index of the enclosing span (-1 for a root) and Op groups
// the spans of one benchmark operation (a round, a query, a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It starts off; while
// off it records nothing, so untraced runs pay only a flag check per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span and returns its index (-1 when off).
func (t *tracer) record(name string, start, end time.Time, parent int, op int64, attr string) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: parent, Op: op, Attr: attr,
	})
	return len(t.spans) - 1
}

// begin opens a span that finish closes, so that spans made in between can
// name it as their parent. It returns -1 when the tracer is off.
func (t *tracer) begin(name, attr string, parent int, op int64) int {
	now := time.Now()
	return t.record(name, now, now, parent, op, attr)
}

// finish closes the span begin opened.
func (t *tracer) finish(i int) {
	if i < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// timed runs fn as a span named name, tagged attr, and returns its
// duration.
func (t *tracer) timed(name, attr string, parent int, op int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, start, end, parent, op, attr)
	return end.Sub(start)
}

// durs returns the durations, in milliseconds, of every span named name
// whose attr matches (any attr when attr is empty).
func (t *tracer) durs(name, attr string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores every span as JSON under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// pct returns 100·num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
