package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The tail rule: a reported percentile has at least minTail samples
// beyond it.
func TestSampleCountRule(t *testing.T) {
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Errorf("minSamplesFor(0.5) = %d, want 20", got)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		n := minSamplesFor(q)
		if tailSamples(n, q) < minTail || tailSamples(n-1, q) >= minTail {
			t.Errorf("q=%v: %d samples leave %d beyond, %d leave %d", q, n, tailSamples(n, q), n-1, tailSamples(n-1, q))
		}
	}
}

// quartiles and pyMedian must agree with Python's statistics module,
// which the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := pyMedian([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("pyMedian = %v, want 2.5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEndMetrics, advisoryMetrics, perLayerMetrics, serveMetrics} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %v", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %v", m.name, m.unit, unitRE)
			}
			if seen[m.name] {
				t.Errorf("metric %s declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %v", w.name, nameRE)
		}
	}
}

func readBenchFile(t *testing.T) *benchDef {
	t.Helper()
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// BENCHMARK.json declares exactly the metrics the code emits, with the
// same units, and only workloads the code knows.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchFile(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, code emits %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layers, perLayerMetrics) {
		t.Errorf("per_layer %v, code emits %v", layers, perLayerMetrics)
	}
	if len(b.Workloads) < 2 {
		t.Errorf("%d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// shortConfig is a run small enough for a test.
func shortConfig(t *testing.T) runConfig {
	return runConfig{d: 100 * time.Millisecond, setupReps: 1, samples: 5, traceOut: t.TempDir()}
}

// A short run of every workload emits every metric BENCHMARK.json
// names, untraced and traced, and passes its own correctness checks.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchFile(t)
	for _, w := range b.Workloads {
		def, _ := lookup(w.Name)
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				res, err := measure(def, 7, shortConfig(t), traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				var names []string
				if traced {
					for _, m := range b.PerLayer {
						names = append(names, m.Name)
					}
				} else {
					for _, m := range b.EndToEnd {
						names = append(names, m.Name)
					}
				}
				for _, n := range names {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("metric %s not emitted", n)
					}
				}
			})
		}
	}
}

// serve-mix is not in BENCHMARK.json; its short run must still report
// its metrics (its correctness verdict is the program's, see README).
func TestServeMixEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	def, _ := lookup("serve-mix")
	res, err := measure(def, 7, shortConfig(t), false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), serveMetrics[0]) {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("metric %s not emitted", m.name)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("no job attempted")
	}
}

// fault-replay is not in BENCHMARK.json either; its traced short run
// must still fill the ledger and its own record/replay rows.
func TestFaultReplayEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays every plan")
	}
	def, _ := lookup("fault-replay")
	res, err := measure(def, 7, shortConfig(t), true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricDef(nil), perLayerMetrics...), recordReplayMetrics...) {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("metric %s not emitted", m.name)
		}
	}
	if res.Metrics["sched.records"].Value == 0 {
		t.Errorf("no schedule record booked")
	}
}

// The same seed generates the same inputs; another seed other ones.
func TestSameSeedSameInputs(t *testing.T) {
	npbOrder := func(seed int64) string {
		s := ""
		for _, in := range genNPB(seed, 'S') {
			s += in.src.Benchmark.String() + fmt.Sprint(len(in.src.Text)) + ";"
		}
		return s
	}
	faultPlans := func(seed int64) string {
		s := ""
		for _, in := range genFaults(seed) {
			s += fmt.Sprintf("%v %v %d;", in.kind, in.plan, len(in.src))
		}
		return s
	}
	jobs := func(seed int64) string {
		st := newJobStream(seed, genTemplates(seed))
		s := ""
		for i := 0; i < 50; i++ {
			j := st.next()
			s += fmt.Sprintf("%d %d %d;", j.tmpl, len(j.req.Program), j.req.Seed)
		}
		return s
	}
	for name, gen := range map[string]func(int64) string{"npb": npbOrder, "faults": faultPlans, "serve": jobs} {
		if gen(3) != gen(3) {
			t.Errorf("%s: seed 3 generated different inputs twice", name)
		}
		distinct := map[string]bool{}
		for seed := int64(1); seed <= 6; seed++ {
			distinct[gen(seed)] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: six seeds generated one input set", name)
		}
	}
}
