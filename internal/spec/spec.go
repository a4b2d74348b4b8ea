// Package spec encodes the MPI thread-safety specification of the
// paper's §III-A and matches dynamic concurrency reports against it.
//
// The six violation predicates are evaluated per rank from two
// inputs: the race report of the combined lockset/happens-before
// analysis (the Concurrent(var) predicates) and the recorded MPI call
// argument lists (the mpitype, thread id and timestamp terms). This is
// the "merge the concurrency reports into the thread-safety
// specification argument list" step of the paper's workflow.
package spec

import (
	"fmt"
	"sort"
	"strings"

	"home/internal/detect"
	"home/internal/mpi"
	"home/internal/trace"
)

// Kind enumerates the thread-safety violation classes (paper §III-A).
type Kind int

const (
	// InitializationViolation: MPI calls from threads inconsistent
	// with the provided MPI_THREAD_* level.
	InitializationViolation Kind = iota
	// FinalizationViolation: MPI_Finalize off the main thread or
	// racing with other MPI activity.
	FinalizationViolation
	// ConcurrentRecvViolation: two threads concurrently receive with
	// the same (source, tag, communicator).
	ConcurrentRecvViolation
	// ConcurrentRequestViolation: two threads concurrently
	// MPI_Wait/MPI_Test the same request.
	ConcurrentRequestViolation
	// ProbeViolation: concurrent probe/receive with the same (source,
	// tag) on one communicator.
	ProbeViolation
	// CollectiveCallViolation: two threads concurrently issue
	// collectives on the same communicator.
	CollectiveCallViolation
	// WindowViolation (extension, not one of the paper's six): two
	// threads of one process issue conflicting one-sided operations on
	// the same RMA window concurrently.
	WindowViolation
)

// NumKinds is the number of violation classes.
const NumKinds = 6

var kindNames = [...]string{
	"InitializationViolation",
	"FinalizationViolation",
	"ConcurrentRecvViolation",
	"ConcurrentRequestViolation",
	"ProbeViolation",
	"CollectiveCallViolation",
	"WindowViolation",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the kind name in JSON output.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// AllKinds lists the paper's six violation classes in declaration
// order (the extension kinds are separate; see ExtensionKinds).
func AllKinds() []Kind {
	return []Kind{
		InitializationViolation, FinalizationViolation,
		ConcurrentRecvViolation, ConcurrentRequestViolation,
		ProbeViolation, CollectiveCallViolation,
	}
}

// ExtensionKinds lists the violation classes added beyond the paper.
func ExtensionKinds() []Kind { return []Kind{WindowViolation} }

// Violation is one matched thread-safety violation.
type Violation struct {
	Kind    Kind
	Rank    int
	Lines   []int // source lines of the involved call sites (sorted)
	Threads []int // thread ids involved (sorted)
	Message string

	// Evidence carries the match's witness material for the explain
	// layer. It is excluded from JSON output (the rendered witness has
	// its own schema) and nil when a duplicate match was deduplicated
	// away before this one.
	Evidence *Evidence `json:"-"`
}

// Evidence is the raw material behind one matched violation: either
// the concurrency report that triggered a race-backed predicate, or
// the call events whose ordering a call-ordering predicate rejected.
type Evidence struct {
	// Race is set for race-backed matches (ConcurrentRecv,
	// ConcurrentRequest, Probe, Collective, Window, SERIALIZED
	// initialization, finalize-races-with-activity).
	Race *detect.Race
	// Sites is set for call-ordering matches (SINGLE/FUNNELED
	// initialization, off-main or post-finalize finalization): the
	// establishing call first (init or finalize, when recorded), then
	// the offending call.
	Sites []trace.Event
}

func (v Violation) String() string {
	lines := make([]string, len(v.Lines))
	for i, l := range v.Lines {
		lines[i] = fmt.Sprintf("%d", l)
	}
	return fmt.Sprintf("%s on rank %d (lines %s): %s",
		v.Kind, v.Rank, strings.Join(lines, ","), v.Message)
}

// key is the dedup identity of a violation.
func (v Violation) key() string {
	return fmt.Sprintf("%d|%d|%v", v.Kind, v.Rank, v.Lines)
}

// rankInfo aggregates per-rank evidence from the event log.
type rankInfo struct {
	level       int // provided thread level (-1 unknown)
	initTID     int
	hasInit     bool
	initEvent   trace.Event // the recorded init call, when hasInit
	hasParallel bool
	calls       []trace.Event // OpMPICall records, sorted by (tid, seq)
}

// Match evaluates the specification against the event log and the
// race report, returning the violations sorted by (kind, rank).
func Match(events []trace.Event, rep *detect.Report) []Violation {
	ranks := map[int]*rankInfo{}
	info := func(r int) *rankInfo {
		ri, ok := ranks[r]
		if !ok {
			ri = &rankInfo{level: -1}
			ranks[r] = ri
		}
		return ri
	}
	for _, e := range events {
		switch e.Op {
		case trace.OpBegin:
			info(e.Rank).hasParallel = true
		case trace.OpMPICall:
			ri := info(e.Rank)
			switch e.Call.Kind {
			case trace.CallInit, trace.CallInitThread:
				ri.level = e.Call.Level
				ri.initTID = e.TID
				ri.hasInit = true
				ri.initEvent = e
			}
			ri.calls = append(ri.calls, e)
		}
	}
	// Per-thread subsequences of the log follow program order, but the
	// interleaving across threads is host-schedule dependent; sorting
	// by (tid, seq) makes matchRank's iteration — and therefore which
	// evidence a deduplicated violation keeps — deterministic.
	for _, ri := range ranks {
		calls := ri.calls
		sort.Slice(calls, func(i, j int) bool {
			if calls[i].TID != calls[j].TID {
				return calls[i].TID < calls[j].TID
			}
			return calls[i].Seq < calls[j].Seq
		})
	}

	seen := map[string]bool{}
	var out []Violation
	add := func(v Violation) {
		sort.Ints(v.Lines)
		sort.Ints(v.Threads)
		if !seen[v.key()] {
			seen[v.key()] = true
			out = append(out, v)
		}
	}

	for _, race := range rep.Races {
		matchRace(race, add)
	}
	rankIDs := make([]int, 0, len(ranks))
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)
	for _, r := range rankIDs {
		matchRank(r, ranks[r], rep, add)
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return fmt.Sprint(out[i].Lines) < fmt.Sprint(out[j].Lines)
	})
	return out
}

// isRecv reports a receive-kind call (Sendrecv receives too).
func isRecv(k trace.CallKind) bool {
	return k == trace.CallRecv || k == trace.CallIrecv || k == trace.CallSendrecv
}

// isProbe reports a probe-kind call.
func isProbe(k trace.CallKind) bool { return k == trace.CallProbe || k == trace.CallIprobe }

// isWaitTest reports a completion-kind call.
func isWaitTest(k trace.CallKind) bool { return k == trace.CallWait || k == trace.CallTest }

// isRMA reports a window-access call (fence included: a fence
// concurrent with another thread's access to the same window is the
// same epoch hazard).
func isRMA(k trace.CallKind) bool { return k.IsRMA() || k == trace.CallWinFence }

// matchRace maps one concurrency report to the per-pair violation
// predicates (ConcurrentRecv, ConcurrentRequest, Probe, Collective).
func matchRace(r detect.Race, add func(Violation)) {
	a, b := orient(r)
	if a.Call == nil || b.Call == nil || a.TID == b.TID {
		return
	}
	ak, bk := a.Call.Kind, b.Call.Kind
	lines := []int{a.Call.Line, b.Call.Line}
	threads := []int{a.TID, b.TID}
	ev := &Evidence{Race: &r}

	switch {
	case isRecv(ak) && isRecv(bk):
		if a.Call.Peer == b.Call.Peer && a.Call.Tag == b.Call.Tag && a.Call.Comm == b.Call.Comm {
			add(Violation{
				Kind: ConcurrentRecvViolation, Rank: r.Loc.Rank,
				Lines: lines, Threads: threads, Evidence: ev,
				Message: fmt.Sprintf("threads %d and %d concurrently receive with identical (source=%d, tag=%d, comm=%d); message delivery order is undefined",
					a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm),
			})
		}
	case isWaitTest(ak) && isWaitTest(bk):
		if a.Call.Request == b.Call.Request && a.Call.Request >= 0 {
			add(Violation{
				Kind: ConcurrentRequestViolation, Rank: r.Loc.Rank,
				Lines: lines, Threads: threads, Evidence: ev,
				Message: fmt.Sprintf("threads %d and %d concurrently wait/test the same request #%d",
					a.TID, b.TID, a.Call.Request),
			})
		}
	case (isProbe(ak) && (isProbe(bk) || isRecv(bk))) || (isProbe(bk) && (isProbe(ak) || isRecv(ak))):
		if a.Call.Peer == b.Call.Peer && a.Call.Tag == b.Call.Tag && a.Call.Comm == b.Call.Comm {
			add(Violation{
				Kind: ProbeViolation, Rank: r.Loc.Rank,
				Lines: lines, Threads: threads, Evidence: ev,
				Message: fmt.Sprintf("threads %d and %d concurrently probe/receive with identical (source=%d, tag=%d, comm=%d); the probed message may be stolen",
					a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm),
			})
		}
	case isRMA(ak) && isRMA(bk):
		if a.Call.Win == b.Call.Win {
			add(Violation{
				Kind: WindowViolation, Rank: r.Loc.Rank,
				Lines: lines, Threads: threads, Evidence: ev,
				Message: fmt.Sprintf("threads %d and %d concurrently access RMA window %d (%s, %s) within one epoch",
					a.TID, b.TID, a.Call.Win, ak, bk),
			})
		}
	case ak.IsCollective() && bk.IsCollective():
		if a.Call.Comm == b.Call.Comm {
			add(Violation{
				Kind: CollectiveCallViolation, Rank: r.Loc.Rank,
				Lines: lines, Threads: threads, Evidence: ev,
				Message: fmt.Sprintf("threads %d and %d concurrently issue collectives (%s, %s) on communicator %d",
					a.TID, b.TID, ak, bk, a.Call.Comm),
			})
		}
	}
}

// orient returns a race's two accesses lower thread first. Which
// access the analyzer saw first follows host arrival order, so
// messages built from the pair in that order would not be stable
// across runs of the same schedule.
func orient(r detect.Race) (a, b detect.Access) {
	if r.Second.TID < r.First.TID {
		return r.Second, r.First
	}
	return r.First, r.Second
}

// matchRank evaluates the rank-level predicates (Initialization,
// Finalization).
func matchRank(rank int, ri *rankInfo, rep *detect.Report, add func(Violation)) {
	// sites builds call-ordering evidence: the establishing call (when
	// recorded) followed by the offending one.
	sites := func(establish trace.Event, has bool, offend trace.Event) *Evidence {
		ev := &Evidence{}
		if has {
			ev.Sites = append(ev.Sites, establish)
		}
		ev.Sites = append(ev.Sites, offend)
		return ev
	}

	// Initialization violations.
	switch ri.level {
	case mpi.ThreadSingle:
		// Any monitored (hence in-parallel-region) MPI call under
		// SINGLE means threads execute MPI.
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread {
				continue
			}
			if ri.hasParallel {
				add(Violation{
					Kind: InitializationViolation, Rank: rank,
					Lines: []int{e.Call.Line}, Threads: []int{e.TID},
					Message:  fmt.Sprintf("MPI initialized with MPI_THREAD_SINGLE but %s is issued inside an omp parallel region", k),
					Evidence: sites(ri.initEvent, ri.hasInit, e),
				})
			}
		}
	case mpi.ThreadFunneled:
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread {
				continue
			}
			if e.TID != ri.initTID {
				add(Violation{
					Kind: InitializationViolation, Rank: rank,
					Lines: []int{e.Call.Line}, Threads: []int{e.TID},
					Message:  fmt.Sprintf("MPI_THREAD_FUNNELED requires the main thread to make all MPI calls, but thread %d issued %s", e.TID, k),
					Evidence: sites(ri.initEvent, ri.hasInit, e),
				})
			}
		}
	case mpi.ThreadSerialized:
		// Any concurrent pair of monitored MPI calls violates the
		// one-at-a-time requirement.
		for _, name := range []string{trace.VarSrc, trace.VarTag, trace.VarComm, trace.VarRequest, trace.VarCollective} {
			for _, race := range rep.RacesOn(rank, name) {
				a, b := orient(race)
				if a.Call == nil || b.Call == nil || a.TID == b.TID {
					continue
				}
				rc := race
				add(Violation{
					Kind: InitializationViolation, Rank: rank,
					Lines:   []int{a.Call.Line, b.Call.Line},
					Threads: []int{a.TID, b.TID},
					Message: fmt.Sprintf("MPI_THREAD_SERIALIZED allows one MPI call at a time, but threads %d and %d call %s and %s concurrently",
						a.TID, b.TID, a.Call.Kind, b.Call.Kind),
					Evidence: &Evidence{Race: &rc},
				})
				break // one representative per monitored variable
			}
		}
	}

	// Finalization violations. finalizeEv tracks the latest (by log
	// order) finalize call — iteration order over ri.calls no longer
	// follows the log, so the latest is selected explicitly.
	var finalizeEv trace.Event
	var finalized bool
	for _, e := range ri.calls {
		if e.Call.Kind != trace.CallFinalize {
			continue
		}
		if !finalized || e.Seq > finalizeEv.Seq {
			finalizeEv = e
		}
		finalized = true
		if e.TID != ri.initTID {
			add(Violation{
				Kind: FinalizationViolation, Rank: rank,
				Lines: []int{e.Call.Line}, Threads: []int{e.TID},
				Message:  fmt.Sprintf("MPI_Finalize must be called by the main thread, but thread %d called it", e.TID),
				Evidence: sites(ri.initEvent, ri.hasInit, e),
			})
		}
	}
	if finalized {
		for _, e := range ri.calls {
			if e.Call.Kind == trace.CallFinalize || e.Seq <= finalizeEv.Seq {
				continue
			}
			add(Violation{
				Kind: FinalizationViolation, Rank: rank,
				Lines: []int{e.Call.Line}, Threads: []int{e.TID},
				Message:  fmt.Sprintf("%s issued after MPI_Finalize (pending thread-level communication at finalize time)", e.Call.Kind),
				Evidence: sites(finalizeEv, true, e),
			})
		}
	}
	for _, race := range rep.RacesOn(rank, trace.VarFinalize) {
		if race.First.Call == nil || race.Second.Call == nil {
			continue
		}
		rc := race
		add(Violation{
			Kind: FinalizationViolation, Rank: rank,
			Lines:    []int{race.First.Call.Line, race.Second.Call.Line},
			Threads:  []int{race.First.TID, race.Second.TID},
			Message:  "MPI_Finalize races with concurrent MPI activity in another thread",
			Evidence: &Evidence{Race: &rc},
		})
	}
}

// CountByKind tallies violations per class.
func CountByKind(vs []Violation) map[Kind]int {
	out := make(map[Kind]int, NumKinds)
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

// DistinctKinds counts how many violation classes appear.
func DistinctKinds(vs []Violation) int {
	seenKinds := map[Kind]bool{}
	for _, v := range vs {
		seenKinds[v.Kind] = true
	}
	return len(seenKinds)
}
