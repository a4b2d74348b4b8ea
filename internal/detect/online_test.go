package detect

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"home/internal/obs"
	"home/internal/trace"
)

// analysisArtifacts projects one analysis onto comparable bytes: the
// report JSON and the stats snapshot JSON.
func analysisArtifacts(t *testing.T, rep *Report, reg *obs.Registry) (report, stats []byte) {
	t.Helper()
	report, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return report, stats
}

// TestOnlineMatchesOfflineOnRandomTraces: feeding events one at a
// time through the sink must produce exactly the report and stats the
// offline replay of the same log produces.
func TestOnlineMatchesOfflineOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, withLocks := range []bool{false, true} {
			events := randomTrace(seed, 4, 25, withLocks)
			for _, explain := range []bool{false, true} {
				opts := Options{Mode: ModeCombined, MaxRacesPerLoc: 1 << 20, Explain: explain}

				offReg := obs.NewRegistry()
				opts.Stats = offReg
				offRep, offStats := analysisArtifacts(t, Analyze(events, opts), offReg)

				onReg := obs.NewRegistry()
				opts.Stats = onReg
				online := NewOnline(opts)
				for _, e := range events {
					online.Emit(e)
				}
				onRep, onStats := analysisArtifacts(t, online.Report(), onReg)

				if !bytes.Equal(offRep, onRep) {
					t.Fatalf("seed %d locks=%v explain=%v: reports differ:\noffline %s\n online %s",
						seed, withLocks, explain, offRep, onRep)
				}
				if !bytes.Equal(offStats, onStats) {
					t.Fatalf("seed %d locks=%v explain=%v: stats differ:\noffline %s\n online %s",
						seed, withLocks, explain, offStats, onStats)
				}
			}
		}
	}
}

func TestOnlineBarrierLazyMerge(t *testing.T) {
	// The explicit barrier-ordering scenario from the offline tests,
	// through the sink.
	b := &eb{}
	fork := b.newSync(0)
	bar := b.newSync(0)
	b.op(0, 0, trace.OpFork, fork)
	b.op(0, 1, trace.OpBegin, fork)
	b.write(0, 0, "x")
	b.op(0, 0, trace.OpBarrier, bar)
	b.op(0, 1, trace.OpBarrier, bar)
	b.write(0, 1, "x")
	on := NewOnline(Options{Mode: ModeCombined})
	for _, e := range b.events {
		on.Emit(e)
	}
	if rep := on.Report(); rep.concurrent(0, "x") {
		t.Fatalf("barrier-separated accesses raced online: %v", rep.Races)
	}
}

func TestOnlineReportIsIncremental(t *testing.T) {
	b := &eb{}
	s := b.newSync(0)
	b.op(0, 0, trace.OpFork, s)
	b.op(0, 1, trace.OpBegin, s)
	b.write(0, 0, "x")
	on := NewOnline(Options{Mode: ModeCombined})
	for _, e := range b.events {
		on.Emit(e)
	}
	if rep := on.Report(); len(rep.Races) != 0 {
		t.Fatal("no race expected yet")
	}
	// Second conflicting access arrives later.
	b2 := &eb{}
	b2.seq = 100
	b2.write(0, 1, "x")
	on.Emit(b2.events[0])
	rep := on.Report()
	if !rep.concurrent(0, "x") {
		t.Fatal("race not reported after the second access")
	}
	if rep.EventsAnalyzed != 4 {
		t.Fatalf("events analyzed = %d", rep.EventsAnalyzed)
	}
}

func TestOnlineConcurrentEmitters(t *testing.T) {
	// The sink must tolerate concurrent emission (the substrates emit
	// from many goroutines). Use per-thread disjoint locations so the
	// result is deterministic: no races.
	on := NewOnline(Options{Mode: ModeCombined})
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			name := string(rune('a' + tid))
			for i := 0; i < 200; i++ {
				on.Emit(trace.Event{Rank: 0, TID: tid, Op: trace.OpWrite,
					Loc: trace.Loc{Rank: 0, Name: name}})
			}
		}(tid)
	}
	wg.Wait()
	rep := on.Report()
	if len(rep.Races) != 0 {
		t.Fatalf("races on disjoint locations: %v", rep.Races)
	}
	if rep.EventsAnalyzed != 800 {
		t.Fatalf("events = %d", rep.EventsAnalyzed)
	}
}
