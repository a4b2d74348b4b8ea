// Package detect implements HOME's dynamic concurrency analyses over
// an instrumentation event log: Eraser-style lockset analysis and
// vector-clock happens-before analysis (paper §IV-D).
//
// The analyses replay the observed interleaving (the log's sequence
// order) and report *races*: pairs of conflicting accesses to the same
// location from different threads, at least one a write, that are
//
//   - lockset races: the threads held no common lock across the two
//     accesses (Savage et al., Eraser), and
//   - happens-before races: neither access is ordered before the other
//     by the synchronization in the trace (fork/join, barriers, lock
//     release-to-acquire edges), per Lamport's partial order.
//
// Following the paper, the default mode requires BOTH conditions: the
// lockset check finds schedule-independent candidates, and the
// happens-before check suppresses the false positives pure lockset
// analysis would report around fork/join and barrier synchronization.
// Single-analysis modes are provided for the ablation experiments and
// for the baseline tool models.
//
// Neither analysis requires the race to manifest in the observed run:
// both reason about the synchronization structure, so a potential
// violation is reported even when the observed schedule happened to
// serialize the accesses (the property the paper contrasts with
// Marmot).
package detect

import (
	"fmt"
	"sort"

	"home/internal/obs"
	"home/internal/sim"
	"home/internal/trace"
	"home/internal/vclock"
)

// Mode selects which analyses gate a race report.
type Mode int

const (
	// ModeCombined requires a lockset race AND happens-before
	// concurrency (HOME's configuration).
	ModeCombined Mode = iota
	// ModeLocksetOnly reports pure Eraser races.
	ModeLocksetOnly
	// ModeHappensBeforeOnly reports pure vector-clock races.
	ModeHappensBeforeOnly
)

func (m Mode) String() string {
	switch m {
	case ModeCombined:
		return "lockset+happens-before"
	case ModeLocksetOnly:
		return "lockset"
	case ModeHappensBeforeOnly:
		return "happens-before"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures an analysis run.
type Options struct {
	Mode Mode

	// IgnoreLocks drops Acquire/Release events before analysis,
	// modelling a tool that cannot recognize the program's locking
	// discipline (the paper attributes Intel Thread Checker's false
	// positive on BT-MZ and its missed omp-critical-guarded probe
	// checks to exactly this).
	IgnoreLocks bool

	// MaxHistoryPerLoc bounds the retained access history per
	// location (0 means DefaultMaxHistory). Monitored variables see
	// one write per MPI call, so long NPB runs need the bound.
	MaxHistoryPerLoc int

	// MaxRacesPerLoc bounds reported races per location (0 means
	// DefaultMaxRaces); the spec matcher needs representatives, not
	// every pair.
	MaxRacesPerLoc int

	// Stats, when non-nil, receives the analysis counters (events
	// consumed, vector-clock comparisons, lockset sizes, candidate vs
	// confirmed races).
	Stats *obs.Registry

	// Explain captures witness material on every reported race: the
	// full vector clock observed at each access (not just the epoch)
	// and the access's schedule-stable per-thread event index. It also
	// canonicalizes each pair's First/Second order and the report's
	// race order by (rank, tid, index) rather than analysis arrival
	// order, so explained reports are byte-stable across host
	// schedules. Costs one clock copy per monitored access.
	Explain bool
}

// Default history/report bounds.
const (
	DefaultMaxHistory = 512
	DefaultMaxRaces   = 32
)

// Access is one side of a reported race.
type Access struct {
	Seq     uint64
	Rank    int
	TID     int
	Time    int64
	Op      trace.Op
	Lockset []string       // lock names held, sorted
	Call    *trace.MPICall // the MPI call that performed the access, if any

	// Ix is the 0-based index of this event within its (rank, tid)
	// lane — a schedule-stable coordinate, unlike Seq (global arrival
	// order) and Time. Populated only under Options.Explain.
	Ix uint64
	// Clock is the thread's full vector clock at the access (before
	// the access's own tick). Populated only under Options.Explain;
	// explain uses it to extract the concurrency certificate.
	Clock vclock.VC
}

func (a Access) String() string {
	s := fmt.Sprintf("#%d p%d.t%d %s", a.Seq, a.Rank, a.TID, a.Op)
	if a.Call != nil {
		s += " in " + a.Call.String()
	}
	return s
}

// Race is a pair of conflicting, concurrent accesses to one location.
type Race struct {
	Loc           trace.Loc
	First, Second Access

	// LocksetRace / HBRace record which analyses flagged the pair
	// (both true in combined mode by construction).
	LocksetRace bool
	HBRace      bool
}

func (r Race) String() string {
	return fmt.Sprintf("race on %s: %s || %s", r.Loc, r.First, r.Second)
}

// Report is the outcome of analyzing one event log.
type Report struct {
	Mode  Mode
	Races []Race

	// EventsAnalyzed counts the events replayed.
	EventsAnalyzed int
}

// threadState is the replay state of one logical thread.
type threadState struct {
	clock *vclock.Packed
	locks map[string]struct{}
}

// accessRec is a retained access with its analysis snapshots.
type accessRec struct {
	seq   uint64
	gid   vclock.TID
	rank  int
	tid   int
	time  int64
	op    trace.Op
	eslot vclock.Slot // last-write epoch: accessor's slot ...
	ev    uint64      // ... and component, pre-tick (FastTrack)
	locks map[string]struct{}
	call  *trace.MPICall
	ix    uint64    // per-lane event index (Explain only)
	clock vclock.VC // full clock snapshot (Explain only)
}

// analyzer carries the replay state.
type analyzer struct {
	opts    Options
	space   *vclock.Space
	threads map[vclock.TID]*threadState
	// fork snapshots and join accumulators per sync episode
	forkClocks map[trace.SyncID]*vclock.Packed
	joinAccs   map[trace.SyncID]*vclock.Packed
	// barrierMerge accumulates each barrier episode's arrivals;
	// pending lists, per thread, the episodes it has arrived at but not
	// yet absorbed (see absorb)
	barrierMerge map[trace.SyncID]*vclock.Packed
	pending      map[vclock.TID][]trace.SyncID
	// lock vector clocks for release->acquire edges
	lockClocks map[string]*vclock.Packed
	// per-location access history, bounded by MaxHistoryPerLoc
	history map[trace.Loc][]accessRec
	races   map[trace.Loc][]Race
	// per-lane event counters (Explain only): the next index each
	// (rank, tid) lane will stamp on an access
	laneIx map[vclock.TID]uint64

	st analyzerStats
}

// analyzerStats caches the analysis's observability handles (all nil
// when no registry is configured; see package obs).
//
// Stat names:
//
//	detect.events             events consumed by the analyses
//	detect.vc_comparisons     FastTrack epoch-vs-clock tests performed
//	detect.vc_joins           full-width vector-clock joins performed
//	detect.epoch_hits         O(width) joins elided by O(1) epoch adoption
//	detect.vc_width           vector-clock component high-water mark (gauge)
//	detect.lockset_size       lockset size per access (histogram)
//	detect.lockset_candidates access pairs the lockset analysis flagged
//	detect.hb_candidates      access pairs happens-before found concurrent
//	detect.confirmed_races    pairs the configured mode reported
//
// vc_comparisons are O(1) epoch tests; vc_joins are the O(width)
// operations — the detector's true vector-clock hot path, which is
// why the hotspot profile reports both. epoch_hits counts the
// synchronization edges (fork→begin adoption, an episode's first
// end-contribution, barrier publication and a thread's first absorbed
// barrier merge) where the packed clock's epoch fast path replaced a
// full join with an O(1) slice share; every hit is a join the
// map-backed detector would have performed. vc_joins does not count
// the folds of a barrier episode's later arrivals into its merge, nor
// a thread's later pending-merge absorptions. Both counts depend only
// on the trace's synchronization structure, not on host scheduling,
// so they stay gate-worthy deterministic metrics.
type analyzerStats struct {
	events      *obs.Counter
	vcCompares  *obs.Counter
	vcJoins     *obs.Counter
	epochHits   *obs.Counter
	vcWidth     *obs.Gauge
	locksetSize *obs.Histogram
	lsCandid    *obs.Counter
	hbCandid    *obs.Counter
	confirmed   *obs.Counter
}

func newAnalyzerStats(reg *obs.Registry) analyzerStats {
	return analyzerStats{
		events:      reg.Counter("detect.events"),
		vcCompares:  reg.Counter("detect.vc_comparisons"),
		vcJoins:     reg.Counter("detect.vc_joins"),
		epochHits:   reg.Counter("detect.epoch_hits"),
		vcWidth:     reg.Gauge("detect.vc_width"),
		locksetSize: reg.Histogram("detect.lockset_size"),
		lsCandid:    reg.Counter("detect.lockset_candidates"),
		hbCandid:    reg.Counter("detect.hb_candidates"),
		confirmed:   reg.Counter("detect.confirmed_races"),
	}
}

// newAnalyzer builds the replay state, defaulting the history and
// report bounds.
func newAnalyzer(opts Options) *analyzer {
	if opts.MaxHistoryPerLoc <= 0 {
		opts.MaxHistoryPerLoc = DefaultMaxHistory
	}
	if opts.MaxRacesPerLoc <= 0 {
		opts.MaxRacesPerLoc = DefaultMaxRaces
	}
	return &analyzer{
		opts:         opts,
		st:           newAnalyzerStats(opts.Stats),
		space:        vclock.NewSpace(),
		threads:      make(map[vclock.TID]*threadState),
		forkClocks:   make(map[trace.SyncID]*vclock.Packed),
		joinAccs:     make(map[trace.SyncID]*vclock.Packed),
		barrierMerge: make(map[trace.SyncID]*vclock.Packed),
		pending:      make(map[vclock.TID][]trace.SyncID),
		lockClocks:   make(map[string]*vclock.Packed),
		history:      make(map[trace.Loc][]accessRec),
		races:        make(map[trace.Loc][]Race),
		laneIx:       make(map[vclock.TID]uint64),
	}
}

// report assembles the current races with a stable order.
func (a *analyzer) report() *Report {
	rep := &Report{Mode: a.opts.Mode}
	locs := make([]trace.Loc, 0, len(a.races))
	for l := range a.races {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Rank != locs[j].Rank {
			return locs[i].Rank < locs[j].Rank
		}
		return locs[i].Name < locs[j].Name
	})
	n := 0
	for _, races := range a.races {
		n += len(races)
	}
	if n > 0 {
		rep.Races = make([]Race, 0, n)
	}
	for _, l := range locs {
		start := len(rep.Races)
		rep.Races = append(rep.Races, a.races[l]...)
		if a.opts.Explain {
			// Arrival order within a location is host-schedule
			// dependent online; re-sort by the canonical pair
			// coordinates so explained reports are stable.
			races := rep.Races[start:]
			sort.Slice(races, func(i, j int) bool {
				if !accessEq(races[i].First, races[j].First) {
					return laneAfter(races[j].First, races[i].First)
				}
				return laneAfter(races[j].Second, races[i].Second)
			})
		}
	}
	return rep
}

// accessEq compares the schedule-stable coordinates of two accesses.
func accessEq(a, b Access) bool {
	return a.Rank == b.Rank && a.TID == b.TID && a.Ix == b.Ix
}

// Analyze replays a recorded event log, in log order and keeping each
// event's logged Seq, through the same analyzer Online runs as events
// arrive, and returns the race report. For the same log it produces
// the same report and stats as feeding the events to an Online.
func Analyze(events []trace.Event, opts Options) *Report {
	a := newAnalyzer(opts)
	for _, e := range events {
		a.step(e)
	}
	rep := a.report()
	rep.EventsAnalyzed = len(events)
	return rep
}

// thread returns (creating) the state for a (rank, tid) thread.
func (a *analyzer) thread(rank, tid int) (*threadState, vclock.TID) {
	gid := sim.GID(rank, tid)
	st, ok := a.threads[gid]
	if !ok {
		st = &threadState{clock: a.space.Clock(gid), locks: make(map[string]struct{})}
		st.clock.Tick()
		a.threads[gid] = st
	}
	return st, gid
}

// step processes one event.
func (a *analyzer) step(e trace.Event) {
	a.st.events.Inc()
	st, gid := a.thread(e.Rank, e.TID)
	var ix uint64
	if a.opts.Explain {
		ix = a.laneIx[gid]
		a.laneIx[gid] = ix + 1
	}
	if e.Op != trace.OpBarrier {
		a.absorb(gid, st)
	}
	switch e.Op {
	case trace.OpFork:
		a.forkClocks[e.Sync] = st.clock.Publish()
	case trace.OpBegin:
		if fc, ok := a.forkClocks[e.Sync]; ok {
			// The fork snapshot dominates everything the member thread
			// has seen except its own ticks (the member's last
			// contribution flowed to the parent through the previous
			// region's join), so adoption nearly always applies.
			a.adoptOrJoin(st.clock, fc)
		}
	case trace.OpEnd:
		acc, ok := a.joinAccs[e.Sync]
		if !ok {
			// The episode's first contribution IS the accumulator:
			// publishing the member's clock replaces the join into an
			// empty clock the map-backed detector performs.
			a.joinAccs[e.Sync] = st.clock.Publish()
			a.st.epochHits.Inc()
			a.st.vcWidth.Observe(int64(st.clock.Components()))
			break
		}
		a.join(acc, st.clock)
	case trace.OpJoin:
		if acc, ok := a.joinAccs[e.Sync]; ok {
			a.join(st.clock, acc)
		}
	case trace.OpBarrier:
		a.arrive(e.Sync, gid, st)
	case trace.OpAcquire:
		if !a.opts.IgnoreLocks {
			if lc, ok := a.lockClocks[e.Lock.Name]; ok {
				a.join(st.clock, lc)
			}
			st.locks[e.Lock.Name] = struct{}{}
		}
	case trace.OpRelease:
		if !a.opts.IgnoreLocks {
			a.lockClocks[e.Lock.Name] = st.clock.Publish()
			delete(st.locks, e.Lock.Name)
		}
	case trace.OpRead, trace.OpWrite:
		a.access(e, st, gid, ix)
	case trace.OpMPICall:
		// Call records are consumed by the spec matcher, not the race
		// analyses.
	}
	st.clock.Tick()
}

// join performs a full-width O(width) clock join — the analyzer's
// vector-clock hot path — counting it and tracking the width
// high-water mark for the hotspot profile.
func (a *analyzer) join(dst, src *vclock.Packed) {
	dst.Join(src)
	a.st.vcJoins.Inc()
	a.st.vcWidth.Observe(int64(dst.Components()))
}

// adoptOrJoin takes the O(1) epoch-adoption fast path when it
// applies, falling back to the counted full join. Whether adoption
// applies at a given synchronization edge depends only on the trace's
// happens-before structure — never on host scheduling — so the two
// counters stay deterministic.
func (a *analyzer) adoptOrJoin(dst, src *vclock.Packed) {
	if dst.Adopt(src) {
		a.st.epochHits.Inc()
		a.st.vcWidth.Observe(int64(dst.Components()))
		return
	}
	a.join(dst, src)
}

// arrive folds one barrier arrival into the episode's merge clock;
// the first arrival's published clock seeds the merge. Barriers are
// handled lazily, without knowing how many threads take part in an
// episode: the thread absorbs the merge at its next non-barrier event.
// That is sound because every participant emits its barrier event
// before any of them emits a post-barrier event (the runtime emits the
// arrival before blocking), so by the time a post-barrier event shows
// up, the episode's merge contains every participant (everything
// before the barrier happens-before everything after it).
func (a *analyzer) arrive(s trace.SyncID, gid vclock.TID, st *threadState) {
	if merge, ok := a.barrierMerge[s]; ok {
		merge.Join(st.clock)
	} else {
		a.barrierMerge[s] = st.clock.Publish()
		a.st.epochHits.Inc()
	}
	a.pending[gid] = append(a.pending[gid], s)
}

// absorb merges the barrier episodes the thread has arrived at into
// its clock before its next action. The first pending merge usually
// adopts in O(1): since its arrival the thread has only ticked, and
// the merge dominates its arrival clock, so sharing the merge slice is
// exactly the join result. Later pending merges fold over an
// already-adopted slice and take the full join.
func (a *analyzer) absorb(gid vclock.TID, st *threadState) {
	eps := a.pending[gid]
	if len(eps) == 0 {
		return
	}
	for i, s := range eps {
		merge := a.barrierMerge[s]
		if i == 0 && st.clock.Adopt(merge) {
			a.st.epochHits.Inc()
			continue
		}
		st.clock.Join(merge)
	}
	a.pending[gid] = eps[:0]
}

// access checks the new access against the location history, against
// the thread's live clock, and records it.
func (a *analyzer) access(e trace.Event, st *threadState, gid vclock.TID, ix uint64) {
	rec := accessRec{
		seq:   e.Seq,
		gid:   gid,
		rank:  e.Rank,
		tid:   e.TID,
		time:  e.Time,
		op:    e.Op,
		eslot: st.clock.OwnSlot(),
		ev:    st.clock.OwnV(),
		locks: copyLocks(st.locks),
		call:  e.Call,
	}
	if a.opts.Explain {
		rec.ix = ix
		rec.clock = st.clock.ToVC()
	}
	a.st.locksetSize.Observe(int64(len(rec.locks)))
	hist := a.history[e.Loc]
	a.checkPairs(e.Loc, hist, &rec, st.clock)
	if len(hist) < a.opts.MaxHistoryPerLoc {
		a.history[e.Loc] = append(hist, rec)
	}
}

// checkPairs tests one access against the prior history of its
// location, recording reported races (bounded by MaxRacesPerLoc) and
// adding the pair counters to the stats once per access. clock is the
// accessor's live clock at the access.
func (a *analyzer) checkPairs(loc trace.Loc, hist []accessRec, rec *accessRec, clock *vclock.Packed) {
	races := a.races[loc]
	var vcCompares, lsCandid, hbCandid, confirmed int64
	for i := range hist {
		prev := &hist[i]
		if prev.gid == rec.gid {
			continue
		}
		if prev.op != trace.OpWrite && rec.op != trace.OpWrite {
			continue
		}
		lsRace := disjoint(prev.locks, rec.locks)
		// prev happened earlier in the log; it is ordered before the
		// current access iff its epoch has been observed by the
		// current thread's clock (FastTrack's epoch test) — one O(1)
		// slot read on the packed clock.
		vcCompares++
		hbRace := prev.ev > clock.AtSlot(prev.eslot)
		if lsRace {
			lsCandid++
		}
		if hbRace {
			hbCandid++
		}

		reported := false
		switch a.opts.Mode {
		case ModeCombined:
			reported = lsRace && hbRace
		case ModeLocksetOnly:
			reported = lsRace
		case ModeHappensBeforeOnly:
			reported = hbRace
		}
		if reported {
			confirmed++
		}
		if reported && len(races) < a.opts.MaxRacesPerLoc {
			first, second := prev.toAccess(), rec.toAccess()
			// Under Explain the pair order is canonical — by
			// schedule-stable lane coordinate rather than analysis
			// arrival order — so witness output does not depend on the
			// host schedule.
			if a.opts.Explain && laneAfter(first, second) {
				first, second = second, first
			}
			races = append(races, Race{
				Loc:         loc,
				First:       first,
				Second:      second,
				LocksetRace: lsRace,
				HBRace:      hbRace,
			})
		}
	}
	if len(races) > 0 {
		a.races[loc] = races
	}
	a.st.vcCompares.Add(vcCompares)
	a.st.lsCandid.Add(lsCandid)
	a.st.hbCandid.Add(hbCandid)
	a.st.confirmed.Add(confirmed)
}

func (r accessRec) toAccess() Access {
	names := make([]string, 0, len(r.locks))
	for n := range r.locks {
		names = append(names, n)
	}
	sort.Strings(names)
	return Access{
		Seq: r.seq, Rank: r.rank, TID: r.tid, Time: r.time,
		Op: r.op, Lockset: names, Call: r.call,
		Ix: r.ix, Clock: r.clock,
	}
}

// laneAfter orders accesses by their schedule-stable coordinate
// (rank, tid, lane index).
func laneAfter(a, b Access) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	if a.TID != b.TID {
		return a.TID > b.TID
	}
	return a.Ix > b.Ix
}

// copyLocks snapshots a lockset; an empty one is nil, which every
// reader treats as empty.
func copyLocks(m map[string]struct{}) map[string]struct{} {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}

func disjoint(a, b map[string]struct{}) bool {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	for k := range small {
		if _, ok := big[k]; ok {
			return false
		}
	}
	return true
}
