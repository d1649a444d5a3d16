package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Tracer records spans around calls into the program's public units.
// Spans are kept in memory and written out once, when the run ends.
// A span's self time is its duration minus the time of its children,
// already measured spans recorded with Leaf, possibly from another
// goroutine working inside the span (the engine reader pulling
// radiation slabs).
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	t0    time.Time
}

// Span is one recorded layer call.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"` // from the tracer's creation
	DurS    float64 `json:"dur_s"`
	ChildS  float64 `json:"child_s"`
	AllocMB float64 `json:"alloc_mb"` // process-wide heap allocation during the span
}

// Self is the span's duration not covered by its children.
func (s Span) Self() float64 { return s.DurS - s.ChildS }

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// open is a root span in progress.
type open struct {
	tr     *Tracer
	id     int
	name   string
	start  time.Time
	alloc0 uint64
	child  time.Duration // guarded by tr.mu
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Start opens a root span.
func (t *Tracer) Start(name string) *open {
	t.mu.Lock()
	t.spans = append(t.spans, Span{}) // reserve the slot; End fills it
	id := len(t.spans)
	t.mu.Unlock()
	return &open{tr: t, id: id, name: name, alloc0: heapAllocs(), start: time.Now()}
}

// End closes the span.
func (o *open) End() {
	d := time.Since(o.start)
	alloc := heapAllocs() - o.alloc0
	t := o.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[o.id-1] = Span{
		ID:      o.id,
		Name:    o.name,
		StartS:  o.start.Sub(t.t0).Seconds(),
		DurS:    d.Seconds(),
		ChildS:  o.child.Seconds(),
		AllocMB: float64(alloc) / (1 << 20),
	}
}

// Leaf records an already measured child span of o (no alloc figure).
// Safe to call from any goroutine before o ends.
func (o *open) Leaf(name string, start time.Time, d time.Duration) {
	t := o.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: o.id, Name: name,
		StartS: start.Sub(t.t0).Seconds(), DurS: d.Seconds()})
	o.child += d
}

// SelfByName sums self time per span name.
func (t *Tracer) SelfByName() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += s.Self()
	}
	return out
}

// SelfTotal is the sum of every span's self time.
func (t *Tracer) SelfTotal() float64 {
	total := 0.0
	for _, v := range t.SelfByName() {
		total += v
	}
	return total
}

// WriteFile writes every span as JSON, sorted by start time.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartS < spans[j].StartS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
