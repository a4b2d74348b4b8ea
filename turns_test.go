package home

import (
	"testing"

	"home/internal/faults"
	"home/internal/spec"
)

// TestRacyCheckRepeats runs the concurrent-receive and probe cells,
// whose threads race for the same messages, many times over: every
// run must report the same makespan, stats and violations. Without
// turn-taking the host decided which thread got which message, and
// the makespan and the contention counters drifted between runs.
func TestRacyCheckRepeats(t *testing.T) {
	for _, kind := range []spec.Kind{spec.ConcurrentRecvViolation, spec.ProbeViolation} {
		src := faults.Program(kind)
		var first *Report
		var firstStats StatsSnapshot
		for i := 0; i < 20; i++ {
			reg := NewStatsRegistry()
			rep, err := Check(src, Options{Procs: 4, Threads: 2, Seed: 1, Stats: reg})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if first == nil {
				first, firstStats = rep, snap
				continue
			}
			if rep.Makespan != first.Makespan || rep.Summary() != first.Summary() || !snap.Equal(firstStats) {
				t.Fatalf("%v run %d differs from the first:\nmakespan %d vs %d\n%s\nvs\n%s",
					kind, i+1, rep.Makespan, first.Makespan, rep.Summary(), first.Summary())
			}
		}
	}
}
