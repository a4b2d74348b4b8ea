package spec

import (
	"fmt"
	"testing"

	"home/internal/detect"
	"home/internal/mpi"
	"home/internal/trace"
)

// mkRace builds a race on a monitored variable between two calls.
func mkRace(rank int, name string, t1, t2 int, c1, c2 *trace.MPICall) detect.Race {
	return detect.Race{
		Loc:         trace.Loc{Rank: rank, Name: name},
		First:       detect.Access{Rank: rank, TID: t1, Op: trace.OpWrite, Call: c1},
		Second:      detect.Access{Rank: rank, TID: t2, Op: trace.OpWrite, Call: c2},
		LocksetRace: true, HBRace: true,
	}
}

func callEvent(seq uint64, rank, tid int, c *trace.MPICall) trace.Event {
	return trace.Event{Seq: seq, Rank: rank, TID: tid, Op: trace.OpMPICall, Call: c}
}

func initEvent(seq uint64, rank, tid, level int) trace.Event {
	return callEvent(seq, rank, tid, &trace.MPICall{Kind: trace.CallInitThread, Level: level, Line: 1})
}

func TestConcurrentRecvMatched(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 10}
	c2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 12}
	rep := &detect.Report{Races: []detect.Race{mkRace(1, trace.VarTag, 0, 1, c1, c2)}}
	vs := Match([]trace.Event{initEvent(0, 1, 0, mpi.ThreadMultiple)}, rep)
	if len(vs) != 1 || vs[0].Kind != ConcurrentRecvViolation {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Rank != 1 || len(vs[0].Lines) != 2 {
		t.Fatalf("violation = %+v", vs[0])
	}
}

func TestConcurrentRecvRequiresIdenticalTriple(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 10}
	c2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 6, Comm: 0, Line: 12} // different tag
	rep := &detect.Report{Races: []detect.Race{mkRace(1, trace.VarTag, 0, 1, c1, c2)}}
	vs := Match(nil, rep)
	if len(vs) != 0 {
		t.Fatalf("distinct tags should not violate: %v", vs)
	}
}

func TestConcurrentRecvRequiresDistinctThreads(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 10}
	c2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 12}
	rep := &detect.Report{Races: []detect.Race{mkRace(1, trace.VarTag, 1, 1, c1, c2)}}
	if vs := Match(nil, rep); len(vs) != 0 {
		t.Fatalf("same thread should not violate: %v", vs)
	}
}

func TestConcurrentRequestMatched(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallWait, Request: 7, Line: 20}
	c2 := &trace.MPICall{Kind: trace.CallTest, Request: 7, Line: 21}
	rep := &detect.Report{Races: []detect.Race{mkRace(0, trace.VarRequest, 0, 1, c1, c2)}}
	vs := Match(nil, rep)
	if len(vs) != 1 || vs[0].Kind != ConcurrentRequestViolation {
		t.Fatalf("violations = %v", vs)
	}
}

func TestConcurrentRequestDifferentHandlesOK(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallWait, Request: 7, Line: 20}
	c2 := &trace.MPICall{Kind: trace.CallWait, Request: 8, Line: 21}
	rep := &detect.Report{Races: []detect.Race{mkRace(0, trace.VarRequest, 0, 1, c1, c2)}}
	if vs := Match(nil, rep); len(vs) != 0 {
		t.Fatalf("distinct requests should not violate: %v", vs)
	}
}

func TestProbeViolationMatchedForProbeRecvAndProbeProbe(t *testing.T) {
	probe := &trace.MPICall{Kind: trace.CallProbe, Peer: 0, Tag: 3, Comm: 0, Line: 30}
	recv := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 3, Comm: 0, Line: 31}
	iprobe := &trace.MPICall{Kind: trace.CallIprobe, Peer: 0, Tag: 3, Comm: 0, Line: 32}
	rep := &detect.Report{Races: []detect.Race{
		mkRace(0, trace.VarSrc, 0, 1, probe, recv),
		mkRace(0, trace.VarSrc, 0, 1, probe, iprobe),
	}}
	vs := Match(nil, rep)
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	for _, v := range vs {
		if v.Kind != ProbeViolation {
			t.Fatalf("kind = %v", v.Kind)
		}
	}
}

func TestCollectiveCallViolationMatched(t *testing.T) {
	b1 := &trace.MPICall{Kind: trace.CallBarrier, Comm: 0, Line: 40}
	b2 := &trace.MPICall{Kind: trace.CallAllreduce, Comm: 0, Line: 41}
	rep := &detect.Report{Races: []detect.Race{mkRace(2, trace.VarCollective, 0, 1, b1, b2)}}
	vs := Match(nil, rep)
	if len(vs) != 1 || vs[0].Kind != CollectiveCallViolation || vs[0].Rank != 2 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestCollectiveDifferentCommsOK(t *testing.T) {
	b1 := &trace.MPICall{Kind: trace.CallBarrier, Comm: 0, Line: 40}
	b2 := &trace.MPICall{Kind: trace.CallBarrier, Comm: 1, Line: 41}
	rep := &detect.Report{Races: []detect.Race{mkRace(2, trace.VarCollective, 0, 1, b1, b2)}}
	if vs := Match(nil, rep); len(vs) != 0 {
		t.Fatalf("distinct comms should not violate: %v", vs)
	}
}

func TestInitializationSingleWithParallelRegion(t *testing.T) {
	send := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 15}
	events := []trace.Event{
		initEvent(0, 0, 0, mpi.ThreadSingle),
		{Seq: 1, Rank: 0, TID: 1, Op: trace.OpBegin},
		callEvent(2, 0, 1, send),
	}
	vs := Match(events, &detect.Report{})
	if len(vs) != 1 || vs[0].Kind != InitializationViolation {
		t.Fatalf("violations = %v", vs)
	}
}

func TestInitializationFunneledNonMainCaller(t *testing.T) {
	send := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 15}
	events := []trace.Event{
		initEvent(0, 0, 0, mpi.ThreadFunneled),
		callEvent(1, 0, 1, send), // thread 1 != main
	}
	vs := Match(events, &detect.Report{})
	if len(vs) != 1 || vs[0].Kind != InitializationViolation {
		t.Fatalf("violations = %v", vs)
	}
	// Main-thread calls are fine under FUNNELED.
	ok := Match([]trace.Event{
		initEvent(0, 0, 0, mpi.ThreadFunneled),
		callEvent(1, 0, 0, send),
	}, &detect.Report{})
	if len(ok) != 0 {
		t.Fatalf("main-thread call flagged: %v", ok)
	}
}

func TestInitializationSerializedConcurrentCalls(t *testing.T) {
	s1 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 15}
	s2 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 1, Comm: 0, Line: 16}
	events := []trace.Event{initEvent(0, 0, 0, mpi.ThreadSerialized)}
	rep := &detect.Report{Races: []detect.Race{mkRace(0, trace.VarTag, 0, 1, s1, s2)}}
	vs := Match(events, rep)
	if len(vs) != 1 || vs[0].Kind != InitializationViolation {
		t.Fatalf("violations = %v", vs)
	}
}

func TestMultipleLevelQuietForPlainConcurrency(t *testing.T) {
	// Under MPI_THREAD_MULTIPLE, two concurrent sends with different
	// tags are perfectly legal.
	s1 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 15}
	s2 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 1, Comm: 0, Line: 16}
	events := []trace.Event{initEvent(0, 0, 0, mpi.ThreadMultiple)}
	rep := &detect.Report{Races: []detect.Race{mkRace(0, trace.VarTag, 0, 1, s1, s2)}}
	if vs := Match(events, rep); len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestFinalizationOffMainThread(t *testing.T) {
	fin := &trace.MPICall{Kind: trace.CallFinalize, Line: 50}
	events := []trace.Event{
		initEvent(0, 0, 0, mpi.ThreadMultiple),
		callEvent(1, 0, 1, fin),
	}
	vs := Match(events, &detect.Report{})
	if len(vs) != 1 || vs[0].Kind != FinalizationViolation {
		t.Fatalf("violations = %v", vs)
	}
}

func TestFinalizationCallAfterFinalize(t *testing.T) {
	fin := &trace.MPICall{Kind: trace.CallFinalize, Line: 50}
	late := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 51}
	events := []trace.Event{
		initEvent(0, 0, 0, mpi.ThreadMultiple),
		callEvent(1, 0, 0, fin),
		callEvent(2, 0, 1, late),
	}
	vs := Match(events, &detect.Report{})
	if len(vs) != 1 || vs[0].Kind != FinalizationViolation {
		t.Fatalf("violations = %v", vs)
	}
}

func TestDedupIdenticalViolations(t *testing.T) {
	c1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 10}
	c2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 12}
	rep := &detect.Report{Races: []detect.Race{
		mkRace(1, trace.VarTag, 0, 1, c1, c2),
		mkRace(1, trace.VarSrc, 0, 1, c1, c2),
		mkRace(1, trace.VarComm, 0, 1, c1, c2),
	}}
	vs := Match(nil, rep)
	if len(vs) != 1 {
		t.Fatalf("dedup failed: %v", vs)
	}
}

func TestCountByKindAndDistinctKinds(t *testing.T) {
	vs := []Violation{
		{Kind: ProbeViolation}, {Kind: ProbeViolation}, {Kind: FinalizationViolation},
	}
	counts := CountByKind(vs)
	if counts[ProbeViolation] != 2 || counts[FinalizationViolation] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if DistinctKinds(vs) != 2 {
		t.Fatalf("distinct = %d", DistinctKinds(vs))
	}
}

// TestDuplicateRacesAllocateNothing pins that a race whose violation
// is already matched costs no allocation: every predicate claims the
// dedup key before it formats a message, builds evidence or copies the
// race.
func TestDuplicateRacesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r1 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 10}
	r2 := &trace.MPICall{Kind: trace.CallRecv, Peer: 0, Tag: 5, Comm: 0, Line: 12}
	s1 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 0, Comm: 0, Line: 15}
	s2 := &trace.MPICall{Kind: trace.CallSend, Peer: 1, Tag: 1, Comm: 0, Line: 16}
	fin := &trace.MPICall{Kind: trace.CallFinalize, Line: 50}
	events := []trace.Event{
		initEvent(0, 0, 0, mpi.ThreadSerialized),
		initEvent(1, 1, 0, mpi.ThreadMultiple),
	}
	allocs := func(n int) float64 {
		rep := &detect.Report{}
		for i := 0; i < n; i++ {
			rep.Races = append(rep.Races,
				mkRace(0, trace.VarTag, 0, 1, s1, s2),
				mkRace(0, trace.VarFinalize, 1, 0, s1, fin),
				mkRace(1, trace.VarTag, 1, 0, r1, r2))
		}
		if vs := Match(events, rep); len(vs) != 3 {
			t.Fatalf("violations = %v", vs)
		}
		return testing.AllocsPerRun(20, func() { Match(events, rep) })
	}
	const n = 100
	if small, large := allocs(n), allocs(2*n); small != large {
		t.Fatalf("allocations grow with duplicate races: %.0f with %d, %.0f with %d", small, 3*n, large, 6*n)
	}
}

// TestLinesLessMatchesRendering pins the violation sort order: line
// lists compare as their fmt.Sprint forms do, so reports list
// violations in the same order whatever the number of digits.
func TestLinesLessMatchesRendering(t *testing.T) {
	vals := []int{0, 1, 2, 9, 10, 11, 12, 19, 20, 92, 99, 100, 101, 110, 111, 112, 120, 999, 1000, 1110}
	var lists [][]int
	for _, a := range vals {
		lists = append(lists, []int{a})
		for _, b := range vals {
			if a <= b {
				lists = append(lists, []int{a, b})
			}
		}
	}
	for _, a := range lists {
		for _, b := range lists {
			if got, want := linesLess(a, b), fmt.Sprint(a) < fmt.Sprint(b); got != want {
				t.Fatalf("linesLess(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}
