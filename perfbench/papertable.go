package main

import (
	"fmt"

	"home"
	"home/internal/baseline"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/spec"
	"home/internal/static"
)

// paper-table: one Table I row — baseline.RunBase, home.CheckCompiled,
// baseline.RunMarmot and baseline.RunITC on one NPB-MZ class A program
// at procs 4 — the user reproducing the paper. LU, BT and SP rotate.
const (
	tableProcs   = 4
	tableThreads = 2
)

// tableI is the paper's Table I: violations reported per tool
// (detected injections plus false positives), the reference every
// paper-table op is checked against.
var tableI = map[npb.Benchmark]struct{ home, itc, marmot int }{
	npb.LU: {6, 5, 5},
	npb.BT: {6, 7, 6},
	npb.SP: {6, 6, 5},
}

// reported scores one tool's violations like the paper's Table I cell:
// injected kinds hit plus distinct false positives.
func reported(src *npb.Source, vs []spec.Violation) int {
	found := map[spec.Kind]bool{}
	fps := map[string]bool{}
	for _, v := range vs {
		if k, ok := src.Attribute(v); ok {
			found[k] = true
			continue
		}
		fps[fmt.Sprintf("%v@%v", v.Kind, v.Lines)] = true
	}
	return len(found) + len(fps)
}

type tableInput struct {
	src  *npb.Source
	comp *home.Compiled
	prog *minic.Program
	plan *static.Plan
}

type paperTable struct {
	seed   int64
	inputs []tableInput
}

func newPaperTable(seed int64) (workload, error) {
	w := &paperTable{seed: seed}
	for _, in := range genNPB(seed, 'A') {
		comp, err := home.Compile(in.src.Text)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", in.src.Benchmark, err)
		}
		prog := comp.Program()
		w.inputs = append(w.inputs, tableInput{
			src:  in.src,
			comp: comp,
			prog: prog,
			plan: static.Analyze(prog, static.Options{}),
		})
	}
	// Warm the handles' front-end caches and check the row once.
	for i := range w.inputs {
		if err := w.op(i, nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *paperTable) run(s stretch, tr *tracer) *window { return closedLoop(s, tr, w.op) }

func (w *paperTable) close() {}

func (w *paperTable) op(i int, tr *tracer) error {
	in := w.inputs[i%len(w.inputs)]
	bopts := baseline.Options{Procs: tableProcs, Threads: tableThreads, Seed: w.seed}
	var base, marmot, itc *baseline.Result
	var homeViolations []spec.Violation
	if tr == nil {
		base = baseline.RunBase(in.prog, bopts)
		rep, err := home.CheckCompiled(in.comp, home.Options{Procs: tableProcs, Threads: tableThreads, Seed: w.seed})
		if err != nil {
			return err
		}
		homeViolations = rep.Violations
		marmot = baseline.RunMarmot(in.prog, bopts)
		itc = baseline.RunITC(in.prog, bopts)
	} else {
		tr.beginOp()
		d, _ := tr.call("baseline.base", func() { base = baseline.RunBase(in.prog, bopts) })
		tr.add("baseline.base_ms", ms(d))
		res := check(tr, in.prog, in.plan, runOpts{procs: tableProcs, threads: tableThreads, seed: w.seed})
		homeViolations = res.violations
		d, _ = tr.call("baseline.marmot", func() { marmot = baseline.RunMarmot(in.prog, bopts) })
		tr.add("baseline.marmot_ms", ms(d))
		d, _ = tr.call("baseline.itc", func() { itc = baseline.RunITC(in.prog, bopts) })
		tr.add("baseline.itc_ms", ms(d))
		tr.endOp()
		emitReplay(tr, res.events)
		offlineAnalyze(tr, res.events)
		tr.commit()
	}
	for _, e := range base.Errs {
		if e != nil {
			return fmt.Errorf("%v base run: %w", in.src.Benchmark, e)
		}
	}
	want := tableI[in.src.Benchmark]
	got := [3]int{reported(in.src, homeViolations), reported(in.src, itc.Violations), reported(in.src, marmot.Violations)}
	if got != [3]int{want.home, want.itc, want.marmot} {
		return fmt.Errorf("%v: HOME/ITC/Marmot reported %d/%d/%d, Table I says %d/%d/%d",
			in.src.Benchmark, got[0], got[1], got[2], want.home, want.itc, want.marmot)
	}
	return nil
}
