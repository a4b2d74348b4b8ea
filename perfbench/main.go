// Command perfbench is HOME's wall-clock benchmark. It drives one named
// workload through the public API for a fixed time, checks every op
// against a reference the checker did not produce, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer ledger) by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs and the ops the benchmark runs on them.
type workload interface {
	// run measures one stretch of ops; tr is nil in an untraced run.
	run(s stretch, tr *tracer) *window
	// close releases what setup started.
	close()
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (workload, error)
}

var workloads = []workloadDef{
	{"npb-check", newNPBCheck},
	{"paper-table", newPaperTable},
	{"fault-replay", newFaultReplay},
	{"serve-mix", newServeMix},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// window is one measured stretch of ops.
type window struct {
	lat       []float64 // wall time per completed op, ms
	attempted int
	failed    int
	elapsed   time.Duration
	cost      meter
	firstErr  error
	extra     map[string]float64 // workload-specific end-to-end metrics
}

// fail books a failed op, keeping the first error for the report.
func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// merge adds another window's op counts (a warm-up's, say) to the
// result's tally once the metrics are taken: every op checked counts.
func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// stretch is one measured stretch of a run: its nominal length and
// the samples its statistics need.
type stretch struct {
	d       time.Duration
	samples int
}

// maxWindow bounds how long a window may stretch past its nominal
// length to collect enough samples for its tail percentile.
const maxWindow = 90 * time.Second

// closedLoop runs op back to back from one client for at least s.d and
// until it holds s.samples ops.
func closedLoop(s stretch, tr *tracer, op func(i int, tr *tracer) error) *window {
	w := &window{}
	m0 := readMeter()
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		err := op(i, tr)
		w.attempted++
		if err != nil {
			w.fail(err)
		} else {
			w.lat = append(w.lat, ms(time.Since(t)))
		}
		el := time.Since(start)
		if (el >= s.d && w.attempted >= s.samples) || el >= maxWindow {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.cost = readMeter().sub(m0)
	return w
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig sizes one benchmark invocation.
type runConfig struct {
	d         time.Duration // measured time
	warmup    time.Duration // untimed ops first, so the heap and the host settle
	setupReps int           // set-ups per run; setup_s is their median
	samples   int           // samples a percentile needs
	traceOut  string        // directory for the traced run's Chrome trace
}

// defaultConfig is the benchmark's: a p90 backed by minTail samples
// beyond it, nine set-ups and three seconds of warm-up.
func defaultConfig(d time.Duration, traceOut string) runConfig {
	return runConfig{d: d, warmup: 3 * time.Second, setupReps: 9, samples: minSamplesFor(0.9), traceOut: traceOut}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: npb-check, paper-table, fault-replay or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds (default 10; in the stability mode, run_seconds from the benchmark definition)")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", ".bench_build/traces", "directory for the traced run's Chrome trace")
	stability := fs.Int("stability", 0, "run each workload this many times with distinct seeds and print each metric's spread next to its bound")
	sets := fs.Int("sets", 1, "stability mode: sets of runs; a second set reports how far its medians drift from the first's")
	only := fs.String("workloads", "", "comma-separated workloads for the stability mode (default: those in the benchmark definition)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *stability > 0 {
		return runStability("BENCHMARK.json", *only, *stability, max(*sets, 1), *seed, *seconds, stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = 10
	}
	def, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := defaultConfig(time.Duration(*seconds*float64(time.Second)), *traceOut)
	res, err := measure(def, *seed, rc, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupWorkload sets the workload up reps times and keeps the last
// instance, returning the median set-up time in seconds.
func setupWorkload(def workloadDef, seed int64, reps int) (workload, float64, error) {
	var times []float64
	var w workload
	for r := 0; r < reps; r++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		w, err = def.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// measure runs one benchmark invocation and assembles its result.
func measure(def workloadDef, seed int64, rc runConfig, traced bool, out io.Writer) (*result, error) {
	w, setupS, err := setupWorkload(def, seed, rc.setupReps)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d\n", def.name, seed, runtime.GOMAXPROCS(0))
	warm := w.run(stretch{d: rc.warmup}, nil)

	if !traced {
		win := w.run(stretch{rc.d, rc.samples}, nil)
		ms := endToEnd(win, setupS)
		win.merge(warm)
		report(out, win, ms)
		return finish(win, ms, endToEndMetrics)
	}

	// Traced run: an untraced half for the reference p50, then the
	// traced half that fills the ledger.
	half := stretch{rc.d / 2, rc.samples}
	plain := w.run(half, nil)
	tr := newTracer()
	win := w.run(half, tr)
	ms := perLayer(tr, win, plain)
	win.merge(plain)
	win.merge(warm)
	report(out, win, ms)
	path := fmt.Sprintf("%s/%s-seed%d.json", rc.traceOut, def.name, seed)
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "chrome trace: %s (%d spans)\n", path, len(tr.spans))
	return finish(win, ms, perLayerMetrics)
}

// finish checks that every declared metric was produced and turns the
// window into the result line, which carries the declared metrics (and
// a workload's own) but not the advisory ones.
func finish(win *window, ms map[string]metric, declared []metricDef) (*result, error) {
	for _, m := range declared {
		v, ok := ms[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not produced", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
	}
	for _, m := range advisoryMetrics {
		delete(ms, m.name)
	}
	if win.attempted == 0 {
		return nil, errors.New("no op attempted")
	}
	return &result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   ms,
	}, nil
}

// report prints the human-readable table: every metric with its unit,
// the sample count and the failure share.
func report(out io.Writer, win *window, ms map[string]metric) {
	fmt.Fprintf(out, "ops %d  failed %d  failed_frac %.4f  samples %d (p90 tail %d)  window %.2fs\n",
		win.attempted, win.failed, float64(win.failed)/float64(max(win.attempted, 1)),
		len(win.lat), tailSamples(len(win.lat), 0.9), win.elapsed.Seconds())
	if win.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", win.firstErr)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
