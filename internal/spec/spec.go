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
	"sync"

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

// key is the dedup identity of a violation: kind, rank and the sorted
// source lines of its one or two call sites.
type key struct {
	kind   Kind
	rank   int
	n      int // number of lines
	lo, hi int
}

func key1(k Kind, rank, line int) key { return key{kind: k, rank: rank, n: 1, lo: line} }

func key2(k Kind, rank, a, b int) key {
	if b < a {
		a, b = b, a
	}
	return key{kind: k, rank: rank, n: 2, lo: a, hi: b}
}

// lines returns the key's sorted source lines.
func (k key) lines() []int {
	if k.n == 1 {
		return []int{k.lo}
	}
	return []int{k.lo, k.hi}
}

// rankInfo is what the predicates read of one rank's event stream.
type rankInfo struct {
	level       int // provided thread level (-1 unknown)
	initTID     int
	hasInit     bool
	initEvent   trace.Event // the recorded init call, when hasInit
	hasParallel bool
	calls       []trace.Event // OpMPICall records
	events      int           // every event of the rank, of any op
}

// Matcher is the streaming specification matcher. As a trace.Sink it
// sits beside detect.Online and keeps, per rank, only what the
// predicates read — the MPI call records, whether a parallel region
// began, and an event count — so a check need not retain its event
// log. Emit numbers events in arrival order, as detect.Online does.
type Matcher struct {
	mu    sync.Mutex
	n     uint64
	ranks map[int]*rankInfo
}

// NewMatcher returns a matcher that has seen no events.
func NewMatcher() *Matcher { return &Matcher{ranks: map[int]*rankInfo{}} }

// Replay feeds a recorded log to a new matcher, keeping each event's
// logged Seq, so Evidence.Sites share the log's numbering.
func Replay(events []trace.Event) *Matcher {
	m := NewMatcher()
	for _, e := range events {
		m.record(e)
	}
	return m
}

// Emit consumes one event (trace.Sink), numbering it in arrival order.
func (m *Matcher) Emit(e trace.Event) {
	m.mu.Lock()
	e.Seq = m.n
	m.n++
	m.record(e)
	m.mu.Unlock()
}

func (m *Matcher) record(e trace.Event) {
	ri := m.ranks[e.Rank]
	if ri == nil {
		ri = &rankInfo{level: -1}
		m.ranks[e.Rank] = ri
	}
	ri.events++
	switch e.Op {
	case trace.OpBegin:
		ri.hasParallel = true
	case trace.OpMPICall:
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

// Events returns the number of events the matcher has seen from a rank.
func (m *Matcher) Events(rank int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ri := m.ranks[rank]; ri != nil {
		return ri.events
	}
	return 0
}

// Match evaluates the specification against the event log and the
// race report, returning the violations sorted by (kind, rank, lines).
func Match(events []trace.Event, rep *detect.Report) []Violation {
	return Replay(events).Violations(rep)
}

// Violations evaluates the specification against the events seen so
// far and the race report, returning the violations sorted by (kind,
// rank, lines).
func (m *Matcher) Violations(rep *detect.Report) []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	rankIDs := make([]int, 0, len(m.ranks))
	for r, ri := range m.ranks {
		// A rank with neither a call record nor a parallel region has
		// no argument list to match against.
		if len(ri.calls) == 0 && !ri.hasParallel {
			continue
		}
		// Per-thread subsequences of the stream follow program order,
		// but the interleaving across threads is host-schedule
		// dependent; sorting by (tid, seq) makes matchRank's iteration
		// — and therefore which evidence a deduplicated violation
		// keeps — deterministic.
		calls := ri.calls
		sort.Slice(calls, func(i, j int) bool {
			if calls[i].TID != calls[j].TID {
				return calls[i].TID < calls[j].TID
			}
			return calls[i].Seq < calls[j].Seq
		})
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)

	s := &matching{rep: rep, seen: map[key]struct{}{}}
	for i := range rep.Races {
		s.matchRace(&rep.Races[i])
	}
	for _, r := range rankIDs {
		s.matchRank(r, m.ranks[r])
	}

	out := s.out
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return linesLess(out[i].Lines, out[j].Lines)
	})
	return out
}

// linesLess orders two sorted lists of non-negative source lines the
// way their fmt.Sprint forms ("[12 40]") compare as strings, which is
// the order reports have always listed violations in, using integer
// arithmetic only.
func linesLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		dx, dy := digits(x), digits(y)
		if dx == dy {
			return x < y
		}
		// Compare the longer number's leading digits with the shorter
		// one. When they match, the shorter one's string is a prefix,
		// and the character after it decides: a space (another line
		// follows) sorts before a digit, the closing bracket after.
		if dx < dy {
			if p := y / pow10(dy-dx); x != p {
				return x < p
			}
			return i < len(a)-1
		}
		if p := x / pow10(dx-dy); p != y {
			return p < y
		}
		return i == len(b)-1
	}
	// One list is a prefix of the other: the longer continues with a
	// space where the shorter closes its bracket.
	return len(a) > len(b)
}

// digits returns the number of decimal digits of a non-negative n.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

func pow10(n int) int {
	p := 1
	for ; n > 0; n-- {
		p *= 10
	}
	return p
}

// matching accumulates one evaluation's violations. The first match of
// a key wins; every predicate claims the key before it formats a
// message or copies evidence, so a duplicate costs a map lookup.
type matching struct {
	rep  *detect.Report
	seen map[key]struct{}
	out  []Violation
}

// claim reports whether k is new, marking it seen.
func (s *matching) claim(k key) bool {
	if _, dup := s.seen[k]; dup {
		return false
	}
	s.seen[k] = struct{}{}
	return true
}

// add records a claimed violation; k supplies its sorted lines.
func (s *matching) add(k key, threads []int, msg string, ev *Evidence) {
	sort.Ints(threads)
	s.out = append(s.out, Violation{
		Kind: k.kind, Rank: k.rank, Lines: k.lines(), Threads: threads,
		Message: msg, Evidence: ev,
	})
}

// raceEvidence copies a race into match evidence.
func raceEvidence(r *detect.Race) *Evidence {
	rc := *r
	return &Evidence{Race: &rc}
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
func (s *matching) matchRace(r *detect.Race) {
	a, b := orient(r)
	if a.Call == nil || b.Call == nil || a.TID == b.TID {
		return
	}
	ak, bk := a.Call.Kind, b.Call.Kind
	pair := func(k Kind) (key, bool) {
		kk := key2(k, r.Loc.Rank, a.Call.Line, b.Call.Line)
		return kk, s.claim(kk)
	}

	switch {
	case isRecv(ak) && isRecv(bk):
		if a.Call.Peer == b.Call.Peer && a.Call.Tag == b.Call.Tag && a.Call.Comm == b.Call.Comm {
			if k, ok := pair(ConcurrentRecvViolation); ok {
				s.add(k, []int{a.TID, b.TID}, fmt.Sprintf("threads %d and %d concurrently receive with identical (source=%d, tag=%d, comm=%d); message delivery order is undefined",
					a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm), raceEvidence(r))
			}
		}
	case isWaitTest(ak) && isWaitTest(bk):
		if a.Call.Request == b.Call.Request && a.Call.Request >= 0 {
			if k, ok := pair(ConcurrentRequestViolation); ok {
				s.add(k, []int{a.TID, b.TID}, fmt.Sprintf("threads %d and %d concurrently wait/test the same request #%d",
					a.TID, b.TID, a.Call.Request), raceEvidence(r))
			}
		}
	case (isProbe(ak) && (isProbe(bk) || isRecv(bk))) || (isProbe(bk) && (isProbe(ak) || isRecv(ak))):
		if a.Call.Peer == b.Call.Peer && a.Call.Tag == b.Call.Tag && a.Call.Comm == b.Call.Comm {
			if k, ok := pair(ProbeViolation); ok {
				s.add(k, []int{a.TID, b.TID}, fmt.Sprintf("threads %d and %d concurrently probe/receive with identical (source=%d, tag=%d, comm=%d); the probed message may be stolen",
					a.TID, b.TID, a.Call.Peer, a.Call.Tag, a.Call.Comm), raceEvidence(r))
			}
		}
	case isRMA(ak) && isRMA(bk):
		if a.Call.Win == b.Call.Win {
			if k, ok := pair(WindowViolation); ok {
				s.add(k, []int{a.TID, b.TID}, fmt.Sprintf("threads %d and %d concurrently access RMA window %d (%s, %s) within one epoch",
					a.TID, b.TID, a.Call.Win, ak, bk), raceEvidence(r))
			}
		}
	case ak.IsCollective() && bk.IsCollective():
		if a.Call.Comm == b.Call.Comm {
			if k, ok := pair(CollectiveCallViolation); ok {
				s.add(k, []int{a.TID, b.TID}, fmt.Sprintf("threads %d and %d concurrently issue collectives (%s, %s) on communicator %d",
					a.TID, b.TID, ak, bk, a.Call.Comm), raceEvidence(r))
			}
		}
	}
}

// orient returns a race's two accesses lower thread first. Which
// access the analyzer saw first follows host arrival order, so
// messages built from the pair in that order would not be stable
// across runs of the same schedule.
func orient(r *detect.Race) (a, b *detect.Access) {
	if r.Second.TID < r.First.TID {
		return &r.Second, &r.First
	}
	return &r.First, &r.Second
}

// sites builds call-ordering evidence: the establishing call (when
// recorded) followed by the offending one.
func sites(establish trace.Event, has bool, offend trace.Event) *Evidence {
	ev := &Evidence{}
	if has {
		ev.Sites = append(ev.Sites, establish)
	}
	ev.Sites = append(ev.Sites, offend)
	return ev
}

// matchRank evaluates the rank-level predicates (Initialization,
// Finalization).
func (s *matching) matchRank(rank int, ri *rankInfo) {
	// Initialization violations.
	switch ri.level {
	case mpi.ThreadSingle:
		// Any monitored (hence in-parallel-region) MPI call under
		// SINGLE means threads execute MPI.
		if !ri.hasParallel {
			break
		}
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread {
				continue
			}
			if kk := key1(InitializationViolation, rank, e.Call.Line); s.claim(kk) {
				s.add(kk, []int{e.TID},
					fmt.Sprintf("MPI initialized with MPI_THREAD_SINGLE but %s is issued inside an omp parallel region", k),
					sites(ri.initEvent, ri.hasInit, e))
			}
		}
	case mpi.ThreadFunneled:
		for _, e := range ri.calls {
			k := e.Call.Kind
			if k == trace.CallInit || k == trace.CallInitThread || e.TID == ri.initTID {
				continue
			}
			if kk := key1(InitializationViolation, rank, e.Call.Line); s.claim(kk) {
				s.add(kk, []int{e.TID},
					fmt.Sprintf("MPI_THREAD_FUNNELED requires the main thread to make all MPI calls, but thread %d issued %s", e.TID, k),
					sites(ri.initEvent, ri.hasInit, e))
			}
		}
	case mpi.ThreadSerialized:
		// Any concurrent pair of monitored MPI calls violates the
		// one-at-a-time requirement.
		for _, name := range []string{trace.VarSrc, trace.VarTag, trace.VarComm, trace.VarRequest, trace.VarCollective} {
			for i := range s.rep.Races {
				race := &s.rep.Races[i]
				if race.Loc.Rank != rank || race.Loc.Name != name {
					continue
				}
				a, b := orient(race)
				if a.Call == nil || b.Call == nil || a.TID == b.TID {
					continue
				}
				if kk := key2(InitializationViolation, rank, a.Call.Line, b.Call.Line); s.claim(kk) {
					s.add(kk, []int{a.TID, b.TID},
						fmt.Sprintf("MPI_THREAD_SERIALIZED allows one MPI call at a time, but threads %d and %d call %s and %s concurrently",
							a.TID, b.TID, a.Call.Kind, b.Call.Kind),
						raceEvidence(race))
				}
				break // one representative per monitored variable
			}
		}
	}

	// Finalization violations. finalizeEv tracks the latest (by
	// stream order) finalize call — ri.calls is sorted by thread, not
	// by stream order, so the latest is selected explicitly.
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
		if e.TID == ri.initTID {
			continue
		}
		if kk := key1(FinalizationViolation, rank, e.Call.Line); s.claim(kk) {
			s.add(kk, []int{e.TID},
				fmt.Sprintf("MPI_Finalize must be called by the main thread, but thread %d called it", e.TID),
				sites(ri.initEvent, ri.hasInit, e))
		}
	}
	if finalized {
		for _, e := range ri.calls {
			if e.Call.Kind == trace.CallFinalize || e.Seq <= finalizeEv.Seq {
				continue
			}
			if kk := key1(FinalizationViolation, rank, e.Call.Line); s.claim(kk) {
				s.add(kk, []int{e.TID},
					fmt.Sprintf("%s issued after MPI_Finalize (pending thread-level communication at finalize time)", e.Call.Kind),
					sites(finalizeEv, true, e))
			}
		}
	}
	for i := range s.rep.Races {
		race := &s.rep.Races[i]
		if race.Loc.Rank != rank || race.Loc.Name != trace.VarFinalize || race.First.Call == nil || race.Second.Call == nil {
			continue
		}
		if kk := key2(FinalizationViolation, rank, race.First.Call.Line, race.Second.Call.Line); s.claim(kk) {
			s.add(kk, []int{race.First.TID, race.Second.TID},
				"MPI_Finalize races with concurrent MPI activity in another thread",
				raceEvidence(race))
		}
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
