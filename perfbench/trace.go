package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
type span struct {
	Name string `json:"name"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: begin returns -1 and end does nothing, so one code path serves the
// traced and the untraced segments of a run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// durations returns the durations in nanoseconds of every closed span
// called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// setMedian records metric as the median duration of the spans called name,
// divided by scale (1e3 for µs, 1e6 for ms). With no such span it records
// nothing, so the metric reads 0.
func (t *tracer) setMedian(rep *report, metric, name string, scale float64) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	v := median(d) / scale
	rep.set(metric, v, len(d))
	return v
}

// write saves the spans as JSON under .bench_build/spans in the working
// directory, for reading beside the per-layer metrics.
func (t *tracer) write(cfg config) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), data, 0o644)
}

// do runs f inside a span called name under parent and returns its wall
// time, which it measures with the tracer off too.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	d := timed(f)
	t.end(id)
	return d
}
