package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"home"
	"home/internal/chaos"
	"home/internal/faults"
	"home/internal/harness"
	"home/internal/minic"
	"home/internal/sched"
	"home/internal/spec"
)

// fault-replay: compile one small faults.Program, record it under a
// seeded chaos plan with Explain, encode the schedule to the v3 binary
// container, decode it and replay it with Explain — the debugging and
// explorer user. The six kinds rotate.
const (
	faultProcs   = 2
	faultThreads = 2
	// faultPlansPerKind seeded plans are drawn per violation kind; a
	// third of them crash-stop a rank.
	faultPlansPerKind = 24
)

// faultInput is one program and the plan it is recorded under.
type faultInput struct {
	kind   spec.Kind
	src    string
	plan   *chaos.Plan
	tokens int
}

// genFaults draws the workload's plans. They perturb virtual time only
// — delays, reorders, transient send failures and RMA delays, never
// the wall-clock jitter or stalls — and a third of them crash-stop a
// drawn rank at its first to fourth MPI call, each depth equally often,
// so every seed's inputs carry the same amount of work.
func genFaults(seed int64) []faultInput {
	rng := rand.New(rand.NewSource(seed))
	var ins []faultInput
	for n := 0; n < faultPlansPerKind; n++ {
		for _, k := range faults.AllKinds() {
			p := &chaos.Plan{
				Seed:         rng.Int63n(1 << 30),
				DelayProb:    0.25,
				ReorderProb:  0.25,
				SendFailProb: 0.15,
				RMAProb:      0.20,
			}
			if n%3 == 0 {
				p.CrashRank = rng.Intn(faultProcs)
				p.CrashAfterCalls = int64(1 + n/3%4)
			}
			src := faults.Program(k)
			toks, _ := minic.Tokenize(src)
			ins = append(ins, faultInput{kind: k, src: src, plan: p, tokens: len(toks)})
		}
	}
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins
}

type faultReplay struct {
	seed   int64
	inputs []faultInput
}

func newFaultReplay(seed int64) (workload, error) {
	w := &faultReplay{seed: seed, inputs: genFaults(seed)}
	for i := range w.inputs {
		if err := w.op(i, nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *faultReplay) run(s stretch, tr *tracer) *window {
	win := closedLoop(s, tr, w.op)
	if tr != nil {
		win.extra = map[string]float64{}
		for _, m := range recordReplayMetrics {
			win.extra[m.name] = tr.value(m.name, m.unit)
		}
	}
	return win
}

func (w *faultReplay) close() {}

func (w *faultReplay) options() home.Options {
	return home.Options{Procs: faultProcs, Threads: faultThreads, Seed: w.seed, Explain: true}
}

func (w *faultReplay) op(i int, tr *tracer) error {
	in := w.inputs[i%len(w.inputs)]
	if tr != nil {
		return w.tracedOp(in, tr)
	}
	comp, err := home.Compile(in.src)
	if err != nil {
		return err
	}
	rec := home.NewScheduleRecorder()
	opts := w.options()
	opts.Chaos, opts.RecordSchedule = in.plan, rec
	recorded, err := home.CheckCompiled(comp, opts)
	if err != nil {
		return err
	}
	s, err := sched.Read(bytes.NewReader(rec.BytesBinary()))
	if err != nil {
		return fmt.Errorf("decode schedule: %w", err)
	}
	opts = w.options()
	opts.ReplaySchedule = s
	replayed, err := home.CheckCompiled(comp, opts)
	if err != nil {
		return err
	}
	return checkReplay(in, harness.ExactIdentityOf(recorded).String(), harness.ExactIdentityOf(replayed).String(),
		recorded.Violations)
}

// checkReplay is the fault-replay reference: replay reproduces the
// recording's exact identity (the v2 guarantee, crash plans included),
// and a run without a crash reports the injected kind.
func checkReplay(in faultInput, rec, rep string, vs []spec.Violation) error {
	if rec != rep {
		return fmt.Errorf("%v under %v: replay identity %s, recorded %s", in.kind, in.plan, rep, rec)
	}
	if in.plan.CrashEnabled() {
		return nil
	}
	for _, v := range vs {
		if v.Kind == in.kind {
			return nil
		}
	}
	return fmt.Errorf("%v under %v: injected kind not reported", in.kind, in.plan)
}

func (w *faultReplay) tracedOp(in faultInput, tr *tracer) error {
	tr.beginOp()
	prog, plan, err := frontEnd(tr, in.src)
	if err != nil {
		tr.endOp()
		return err
	}
	rec := sched.NewRecorder()
	o := runOpts{procs: faultProcs, threads: faultThreads, seed: w.seed, explain: true, chaos: in.plan, record: rec}
	recorded := check(tr, prog, plan, o)
	var data []byte
	d, _ := tr.call("sched.encode", func() { data = rec.BytesBinary() })
	tr.add("sched.encode_us", us(d))
	tr.add("sched.bytes_v3", float64(len(data)))
	tr.add("sched.records", float64(rec.Len()))
	var s *sched.Schedule
	d, _ = tr.call("sched.decode", func() { s, err = sched.Read(bytes.NewReader(data)) })
	tr.add("sched.decode_us", us(d))
	if err != nil {
		tr.endOp()
		return fmt.Errorf("decode schedule: %w", err)
	}
	forced0 := s.Forced()
	o = runOpts{procs: faultProcs, threads: faultThreads, seed: w.seed, explain: true, replay: s, prefix: "sched.replay_"}
	replayed := check(tr, prog, plan, o)
	tr.add("sched.replay_forced", float64(s.Forced()-forced0))
	tr.endOp()
	tr.add("minic.tokens", float64(in.tokens))
	emitReplay(tr, recorded.events)
	tr.commit()
	return checkReplay(in, recorded.identity(faultProcs), replayed.identity(faultProcs), recorded.violations)
}
