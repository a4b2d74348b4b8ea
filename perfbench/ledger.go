package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"home/internal/obs"
)

// maxSpans caps the spans a traced run keeps in memory for its Chrome
// trace; the ledger's figures keep accumulating past it.
const maxSpans = 50_000

// tracer is the traced run's per-layer ledger. The benchmark's own
// code wraps every call into a layer with call, so the program runs
// unmodified; spans stay in memory and are written as a Chrome trace
// (obs.WriteChromeTrace) when the run ends. A nil *tracer marks an
// untraced run.
type tracer struct {
	t0    time.Time
	spans []obs.Span

	opStart time.Time
	covered time.Duration // layer time inside the current op

	cur  map[string]float64   // the current op's figures
	vals map[string][]float64 // per-op figures of committed ops
}

func newTracer() *tracer {
	return &tracer{
		t0:   time.Now(),
		cur:  map[string]float64{},
		vals: map[string][]float64{},
	}
}

// span records a completed span.
func (t *tracer) span(name string, start time.Time, d time.Duration) {
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, obs.Span{
		Name:        name,
		StartWallNs: start.Sub(t.t0).Nanoseconds(),
		WallNs:      d.Nanoseconds(),
	})
}

// beginOp opens one op; its layer calls follow.
func (t *tracer) beginOp() {
	t.opStart = time.Now()
	t.covered = 0
}

// endOp closes the op's span and books its wall time and the part no
// layer call covered (the unattributed remainder).
func (t *tracer) endOp() time.Duration {
	d := time.Since(t.opStart)
	t.span("op", t.opStart, d)
	t.cur["traced.op_ms"] = ms(d)
	t.cur["traced.unattributed_ms"] = ms(d - t.covered)
	return d
}

// call times f as one call into a layer: a span named after the
// layer, its wall time and the heap bytes it allocated.
func (t *tracer) call(name string, f func()) (time.Duration, uint64) {
	a0 := heapAllocBytes()
	start := time.Now()
	f()
	d := time.Since(start)
	alloc := heapAllocBytes() - a0
	t.span(name, start, d)
	t.covered += d
	return d, alloc
}

// probe times f like call, for measurements taken outside the op
// (they do not count as covered op time).
func (t *tracer) probe(name string, f func()) (time.Duration, uint64) {
	covered := t.covered
	d, alloc := t.call(name, f)
	t.covered = covered
	return d, alloc
}

// add books v to the current op's metric.
func (t *tracer) add(metric string, v float64) { t.cur[metric] += v }

// commit files the current op's figures.
func (t *tracer) commit() {
	for k, v := range t.cur {
		t.vals[k] = append(t.vals[k], v)
	}
	t.cur = map[string]float64{}
}

// value is a metric's figure, or 0 when the run never exercised that
// layer: the median per op for a time, the mean per op for a count or
// a size (a median would round a rare event down to 0).
func (t *tracer) value(metric, unit string) float64 {
	xs := t.vals[metric]
	if len(xs) == 0 {
		return 0
	}
	switch unit {
	case "count", "B", "kB":
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return median(xs)
}

// writeChrome flushes the spans as a Chrome trace_event file.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
