package main

import (
	"fmt"
	"sort"
	"strings"

	"home"
	"home/internal/chaos"
	"home/internal/detect"
	"home/internal/explain"
	"home/internal/harness"
	"home/internal/interp"
	"home/internal/minic"
	"home/internal/obs"
	"home/internal/sched"
	"home/internal/sim"
	"home/internal/spec"
	"home/internal/static"
	"home/internal/trace"
)

// HOME's probe costs (virtual ns) as home.CheckCompiled charges them.
// The decomposed pipeline must charge the same, or its makespan — and
// with it any timing-dependent verdict — would drift from the public
// call it stands in for.
const (
	homeEmitNs         = 100
	homeAnalysisBaseNs = 383
	homeAnalysisLogNs  = 994
)

func homeCosts(procs, threads int) sim.CostModel {
	c := sim.DefaultCostModel()
	c.EmitNs = homeEmitNs
	c.AnalysisNsPerEvent = homeAnalysisBaseNs + homeAnalysisLogNs*sim.Log2Ceil(procs*threads)
	return c
}

// frontEnd is the traced front end: minic.Parse, minic.CheckSemantics
// and static.Analyze, each timed as its own layer call.
func frontEnd(tr *tracer, src string) (*minic.Program, *static.Plan, error) {
	var prog *minic.Program
	var err error
	d, a := tr.call("minic.parse", func() { prog, err = minic.Parse(src) })
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	tr.add("minic.parse_us", us(d))
	tr.add("minic.alloc_kb", float64(a)/1024)
	d, a = tr.call("minic.sema", func() { minic.CheckSemantics(prog, minic.DefaultSemaOptions()) })
	tr.add("minic.sema_us", us(d))
	tr.add("minic.alloc_kb", float64(a)/1024)
	var plan *static.Plan
	d, _ = tr.call("static.analyze", func() { plan = static.Analyze(prog, static.Options{}) })
	tr.add("static.analyze_us", us(d))
	tr.add("static.sites_instrumented", float64(plan.Instrumented))
	return prog, plan, nil
}

// runOpts configures one decomposed check.
type runOpts struct {
	procs, threads int
	seed           int64
	explain        bool
	chaos          *chaos.Plan     // recording run
	record         *sched.Recorder // with chaos
	replay         *sched.Schedule // replaying run (chaos taken from its header)
	prefix         string          // metric prefix for the run's wall time ("" or "sched.replay_")
}

// runResult is what the decomposed check produced.
type runResult struct {
	violations []spec.Violation
	witnesses  []explain.Witness
	events     []trace.Event
	makespan   int64
	deadlocked bool
	deadRanks  []int
	analyzed   int
}

// check runs the back end of home.CheckCompiled layer by layer:
// interp.Run into a trace.Log, the log replayed through detect.Online,
// spec.Match and, under explain, explain.Extract.
func check(tr *tracer, prog *minic.Program, plan *static.Plan, o runOpts) *runResult {
	reg := obs.NewRegistry()
	log := trace.NewLog()
	cfg := interp.Config{
		Procs:      o.procs,
		Threads:    o.threads,
		Seed:       o.seed,
		Costs:      homeCosts(o.procs, o.threads),
		Instrument: plan.Instrument,
		Sink:       log,
		Stats:      reg,
	}
	switch {
	case o.replay != nil:
		p := o.replay.Plan()
		cfg.Chaos, cfg.SchedSource = &p, o.replay
	case o.record != nil:
		o.record.SetPlan(*o.chaos)
		cfg.Chaos, cfg.SchedRecorder = o.chaos, o.record
	default:
		cfg.Chaos = o.chaos
	}
	var run *interp.Result
	d, a := tr.call("interp.run", func() { run = interp.Run(prog, cfg) })
	events := log.Events()
	snap := reg.Snapshot()
	stmts := snap.Get("interp.statements")
	if o.prefix != "" {
		tr.add(o.prefix+"run_ms", ms(d))
	} else {
		tr.add("interp.run_ms", ms(d))
		tr.add("interp.alloc_kb", float64(a)/1024)
		if stmts > 0 {
			tr.add("interp.ns_per_stmt", float64(d.Nanoseconds())/float64(stmts))
		}
		for _, name := range []string{"interp.statements", "mpi.sends", "mpi.msgs_matched", "mpi.collective_rounds",
			"omp.parallel_regions", "omp.lock_acquires", "omp.lock_contended", "chaos.msg_delays", "chaos.send_retries"} {
			tr.add(name, float64(snap.Get(name)))
		}
		tr.add("trace.events", float64(len(events)))
		tr.add("sim.makespan_ns", float64(run.Makespan))
	}

	dreg := obs.NewRegistry()
	online := detect.NewOnline(detect.Options{Stats: dreg, Explain: o.explain})
	var rep *detect.Report
	d, a = tr.call("detect.online", func() {
		for _, e := range events {
			online.Emit(e)
		}
		rep = online.Report()
	})
	if o.prefix == "" && len(events) > 0 {
		tr.add("detect.online_ns_per_event", float64(d.Nanoseconds())/float64(len(events)))
		tr.add("detect.online_alloc_b_per_event", float64(a)/float64(len(events)))
		dsnap := dreg.Snapshot()
		for _, name := range []string{"detect.vc_joins", "detect.epoch_hits", "detect.confirmed_races"} {
			tr.add(name, float64(dsnap.Get(name)))
		}
	}

	var violations []spec.Violation
	d, a = tr.call("spec.match", func() { violations = spec.Match(events, rep) })
	if o.prefix == "" {
		tr.add("spec.match_us", us(d))
		tr.add("spec.alloc_kb", float64(a)/1024)
		if n := len(rep.Races); n > 0 {
			tr.add("spec.ns_per_race", float64(d.Nanoseconds())/float64(n))
		}
	}
	res := &runResult{
		violations: violations,
		events:     events,
		makespan:   run.Makespan,
		deadlocked: run.Deadlocked,
		deadRanks:  run.DeadRanks,
		analyzed:   rep.EventsAnalyzed,
	}
	if o.explain {
		d, _ = tr.call("explain.extract", func() { res.witnesses = explain.Extract(events, rep, violations) })
		if o.prefix == "" {
			tr.add("explain.extract_us", us(d))
			tr.add("explain.witnesses", float64(len(res.witnesses)))
		}
	}
	return res
}

// identity is the record/replay identity of a decomposed run, built by
// harness.ExactIdentityOf from the report fields it reads.
func (r *runResult) identity(procs int) string {
	rep := &home.Report{
		Violations:     r.violations,
		Makespan:       r.makespan,
		Deadlocked:     r.deadlocked,
		EventsAnalyzed: r.analyzed,
		Partial:        len(r.deadRanks) > 0,
		DeadRanks:      r.deadRanks,
		RankCoverage:   coverage(procs, r.events, r.deadRanks),
	}
	return harness.ExactIdentityOf(rep).String()
}

// coverage tallies observed events per rank, the shape of
// home.Report.RankCoverage.
func coverage(procs int, events []trace.Event, dead []int) []home.RankCoverage {
	out := make([]home.RankCoverage, procs)
	for r := range out {
		out[r].Rank = r
	}
	for _, e := range events {
		if e.Rank >= 0 && e.Rank < procs {
			out[e.Rank].Events++
		}
	}
	for _, r := range dead {
		if r >= 0 && r < procs {
			out[r].Failed = true
		}
	}
	return out
}

// violationKeys renders violations as sorted "kind|rank|lines" keys —
// the identity spec.Match deduplicates on — for comparing two runs.
func violationKeys(vs []spec.Violation) string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = fmt.Sprintf("%v|%d|%v", v.Kind, v.Rank, v.Lines)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// offlineAnalyze times detect.Analyze over a recorded log — the
// offline analyzer the ITC and Marmot baselines run on.
func offlineAnalyze(tr *tracer, events []trace.Event) {
	d, _ := tr.probe("detect.analyze", func() { detect.Analyze(events, detect.Options{}) })
	tr.add("detect.analyze_ms", ms(d))
}

// emitReplay times replaying a recorded log into a fresh trace.Log,
// the per-event cost of the trace layer's Emit.
func emitReplay(tr *tracer, events []trace.Event) {
	if len(events) == 0 {
		return
	}
	log := trace.NewLog()
	d, _ := tr.probe("trace.emit", func() {
		for _, e := range events {
			log.Emit(e)
		}
	})
	tr.add("trace.ns_per_emit", float64(d.Nanoseconds())/float64(len(events)))
}
