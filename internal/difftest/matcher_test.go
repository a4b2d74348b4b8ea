package difftest

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"home/internal/detect"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// serialSink delivers each event to every sink under one lock, so the
// log and the live matcher number one run's events identically even
// where threads emit concurrently (replays and post-crash execution).
type serialSink struct {
	mu    sync.Mutex
	sinks trace.TeeSink
}

func (s *serialSink) Emit(e trace.Event) {
	s.mu.Lock()
	s.sinks.Emit(e)
	s.mu.Unlock()
}

// matcherRun executes one program with a live spec.Matcher, the online
// detector and a retained log as its sinks, and returns the violations
// the live matcher reports alongside spec.Match over the log.
func matcherRun(prog *minic.Program, cfg interp.Config) (live, offline []spec.Violation) {
	log := trace.NewLog()
	m := spec.NewMatcher()
	online := detect.NewOnline(detect.Options{})
	cfg.Instrument = static.Analyze(prog, static.Options{}).Instrument
	cfg.Sink = &serialSink{sinks: trace.TeeSink{log, m, online}}
	interp.Run(prog, cfg)
	rep := online.Report()
	return m.Violations(rep), spec.Match(log.Events(), rep)
}

// violationCoords renders what a violation reports and where its
// evidence points: the race's location and access coordinates, or the
// call sites' coordinates.
func violationCoords(v spec.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%d|%v|%v|%s|", v.Kind, v.Rank, v.Lines, v.Threads, v.Message)
	if ev := v.Evidence; ev != nil {
		if r := ev.Race; r != nil {
			fmt.Fprintf(&b, "race %v #%d p%d.t%d #%d p%d.t%d", r.Loc,
				r.First.Seq, r.First.Rank, r.First.TID, r.Second.Seq, r.Second.Rank, r.Second.TID)
		}
		for _, e := range ev.Sites {
			fmt.Fprintf(&b, " site #%d p%d.t%d %v", e.Seq, e.Rank, e.TID, e.Call)
		}
	}
	return b.String()
}

func compareMatchers(t *testing.T, name string, live, offline []spec.Violation) {
	t.Helper()
	if len(live) != len(offline) {
		t.Errorf("%s: live matcher %d violations, spec.Match %d", name, len(live), len(offline))
		return
	}
	for i := range live {
		if got, want := violationCoords(live[i]), violationCoords(offline[i]); got != want {
			t.Errorf("%s: violation %d:\n live %s\n  log %s", name, i, got, want)
		}
	}
}

// TestLiveMatcherEqualsMatch pins the streaming matcher against
// matching the retained log: over the same run, a spec.Matcher used as
// a sink and spec.Match over the log give identical violations —
// kind, rank, lines, threads, message and evidence coordinates — for
// every corpus cell and for NPB-MZ class A at procs 8.
func TestLiveMatcherEqualsMatch(t *testing.T) {
	runs, err := corpusRuns()
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, r := range runs {
		live, offline := matcherRun(r.prog, interp.Config{Procs: 4, Threads: 2, Seed: 3, Chaos: r.plan})
		compareMatchers(t, r.name, live, offline)
		matched += len(offline)
	}
	if matched == 0 {
		t.Error("corpus: no violations to compare")
	}
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = 'A'
		prog, err := minic.Parse(npb.Generate(b, o).Text)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		live, offline := matcherRun(prog, interp.Config{Procs: 8, Threads: 2})
		if len(offline) == 0 {
			t.Errorf("%v: no violations to compare", b)
		}
		compareMatchers(t, b.String(), live, offline)
	}
}
