package main

import (
	"fmt"
	"math/rand"

	"home"
	"home/internal/minic"
	"home/internal/npb"
	"home/internal/spec"
)

// npb-check: one cold home.Check of an NPB-MZ class A program carrying
// the paper's six injections, at procs 8, threads 2 — the homecheck
// user. LU, BT and SP rotate in a seed-chosen order.
const (
	npbProcs   = 8
	npbThreads = 2
)

// npbInput is one generated benchmark program.
type npbInput struct {
	src    *npb.Source
	tokens int
}

// genNPB generates the workload's inputs: the three class A programs
// with the paper's injections, in a rotation order drawn from seed.
func genNPB(seed int64, class npb.Class) []npbInput {
	benches := npb.All()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	ins := make([]npbInput, len(benches))
	for i, b := range benches {
		o := npb.PaperInjections(b)
		o.Class = class
		src := npb.Generate(b, o)
		toks, _ := minic.Tokenize(src.Text)
		ins[i] = npbInput{src: src, tokens: len(toks)}
	}
	return ins
}

// checkInjected is the npb-check reference: every injected kind is
// attributed at least one report and no report falls outside every
// injected site (a false positive).
func checkInjected(src *npb.Source, vs []spec.Violation) error {
	found := map[spec.Kind]bool{}
	for _, v := range vs {
		k, ok := src.Attribute(v)
		if !ok {
			return fmt.Errorf("%v: false positive %v", src.Benchmark, v)
		}
		found[k] = true
	}
	for k := range src.Spans {
		if !found[k] {
			return fmt.Errorf("%v: injected %v not reported", src.Benchmark, k)
		}
	}
	return nil
}

type npbCheck struct {
	seed   int64
	inputs []npbInput
	// refs holds home.Check's report per input: the traced op, which
	// calls the layers one by one, must reproduce its violations.
	refs []*home.Report
}

func newNPBCheck(seed int64) (workload, error) {
	w := &npbCheck{seed: seed, inputs: genNPB(seed, 'A')}
	for _, in := range w.inputs {
		rep, err := home.Check(in.src.Text, w.options())
		if err != nil {
			return nil, fmt.Errorf("%v: %w", in.src.Benchmark, err)
		}
		if err := checkInjected(in.src, rep.Violations); err != nil {
			return nil, err
		}
		w.refs = append(w.refs, rep)
	}
	return w, nil
}

func (w *npbCheck) options() home.Options {
	return home.Options{Procs: npbProcs, Threads: npbThreads, Seed: w.seed}
}

func (w *npbCheck) run(s stretch, tr *tracer) *window { return closedLoop(s, tr, w.op) }

func (w *npbCheck) close() {}

func (w *npbCheck) op(i int, tr *tracer) error {
	k := i % len(w.inputs)
	in := w.inputs[k]
	if tr == nil {
		rep, err := home.Check(in.src.Text, w.options())
		if err != nil {
			return err
		}
		return checkInjected(in.src, rep.Violations)
	}

	tr.beginOp()
	prog, plan, err := frontEnd(tr, in.src.Text)
	if err != nil {
		tr.endOp()
		return err
	}
	res := check(tr, prog, plan, runOpts{procs: npbProcs, threads: npbThreads, seed: w.seed})
	tr.endOp()
	tr.add("minic.tokens", float64(in.tokens))
	emitReplay(tr, res.events)
	offlineAnalyze(tr, res.events)
	tr.commit()

	if got, want := violationKeys(res.violations), violationKeys(w.refs[k].Violations); got != want {
		return fmt.Errorf("%v: traced pipeline violations %s, home.Check %s", in.src.Benchmark, got, want)
	}
	return checkInjected(in.src, res.violations)
}
