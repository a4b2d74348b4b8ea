package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Activity tracks how many simulated threads exist and how many are
// blocked inside the message-passing runtime. When every live thread
// is blocked, no future event can unblock any of them (message
// delivery happens synchronously at send time in this runtime), so the
// state is a global deadlock; Activity then trips a latch that all
// blocked operations observe.
//
// Protocol:
//   - AddThreads/DoneThread bracket thread lifetimes (the MPI process
//     main thread and every OpenMP worker).
//   - A thread about to wait calls Block and selects on both its wake
//     channel and the returned deadlock channel.
//   - Whoever satisfies the wait (message sender, barrier releaser)
//     calls Unblock *before* signalling the wake channel, so the
//     blocked count never over-reports.
//   - A woken thread does not decrement; its waker already did. A
//     thread abandoning a wait for another reason calls Unblock itself.
//
// Two extensions serve the chaos layer:
//
//   - Transient blocks (StallPause): outside Serialize, an injected
//     stall parks its thread for a bounded wall-clock pause. It
//     counts as blocked, but an all-blocked state that includes transient blocks is not an
//     immediate deadlock — the stalled thread will wake on its own.
//     Instead of tripping, the watchdog arms a wall-clock grace timer
//     (SetGrace); if no progress happens within the grace, the state
//     is treated as a hang after all. With no transient blocks the
//     original exact, immediate detection is unchanged.
//   - Per-rank aborts (AbortRank): when a rank crash-stops, its
//     blocked threads must wake and unwind even though the world keeps
//     running. The channel Block returns is a per-rank latch that
//     closes on either the global deadlock trip or the rank's abort;
//     woken sites consult Deadlocked to tell the two apart.
type Activity struct {
	mu        sync.Mutex
	active    int
	blocked   int
	transient int // blocked threads that will wake on their own (injected stalls)
	dead      chan struct{}
	tripped   bool

	// Watchdog grace for transient blocks.
	graceNs    int64
	graceGen   uint64
	graceArmed bool

	// ranks holds the per-rank deadlock-or-abort latches; aborted
	// records ranks whose latch closed by AbortRank.
	ranks   map[int]*rankLatch
	aborted map[int]bool

	// stuck describes each currently blocked operation, keyed by a
	// registration token. Entries left behind when the latch trips
	// form the wait-for snapshot of the deadlock report.
	stuck   map[int64]BlockedOp
	nextTok int64

	// Turn-taking (Serialize): holder is the one thread running, ready
	// the threads waiting for their turn, and deferred a thread that
	// gave up its turn for the others (Yield with defer set).
	serial   bool
	holder   *turn
	ready    []*turn
	deferred *turn
}

// turn is one thread's place in the serialized schedule.
type turn struct {
	ctx *Ctx
	ch  chan struct{}
}

// before orders turns by virtual clock, then global identity.
func (t *turn) before(u *turn) bool {
	if t.ctx.Now != u.ctx.Now {
		return t.ctx.Now < u.ctx.Now
	}
	return t.ctx.GID() < u.ctx.GID()
}

type rankLatch struct {
	ch     chan struct{}
	closed bool
}

// DefaultGraceNs is the wall-clock grace granted to an all-blocked
// state that contains transient (self-waking) blocks before it is
// declared a deadlock anyway. Injected stall pauses are a couple of
// milliseconds; anything "transient" outliving this is treated as a
// hang.
const DefaultGraceNs = 250 * int64(time.Millisecond)

// BlockedOp describes one operation blocked inside the runtime: who
// is waiting (rank, thread) and what for. Op/Peer/Tag/Comm carry the
// structured MPI selector when the blocked call is an MPI operation
// (NoArg for fields that do not apply); Detail is the human-readable
// wait-for description every blocked site provides.
type BlockedOp struct {
	Rank int
	TID  int
	// Op names the blocked call ("MPI_Wait", "MPI_Probe", ...); empty
	// for unstructured registrations (omp constructs).
	Op   string
	Peer int
	Tag  int
	Comm int
	// Detail is the free-form wait-for description.
	Detail string
}

// NoArg marks a BlockedOp selector field that does not apply to the
// operation (e.g. the peer of a collective).
const NoArg = -2

// String renders the blocked operation in the established wait-for
// report form.
func (o BlockedOp) String() string {
	return fmt.Sprintf("rank %d thread %d blocked in %s", o.Rank, o.TID, o.Detail)
}

// NewActivity returns an Activity with no registered threads.
func NewActivity() *Activity {
	return &Activity{
		dead:    make(chan struct{}),
		ranks:   make(map[int]*rankLatch),
		aborted: make(map[int]bool),
		stuck:   make(map[int64]BlockedOp),
	}
}

// SetGrace sets the wall-clock grace (nanoseconds) for all-blocked
// states containing transient blocks; ns <= 0 keeps DefaultGraceNs.
func (a *Activity) SetGrace(ns int64) {
	a.mu.Lock()
	a.graceNs = ns
	a.mu.Unlock()
}

// AddThreads registers n newly started threads.
func (a *Activity) AddThreads(n int) {
	a.mu.Lock()
	a.active += n
	a.mu.Unlock()
}

// DoneThread unregisters a finished thread. If the remaining threads
// are all blocked, that is a deadlock (nobody can make progress).
func (a *Activity) DoneThread() {
	a.mu.Lock()
	a.active--
	a.holder = nil // under Serialize the finishing thread is the runner
	a.checkLocked()
	a.dispatchLocked()
	a.mu.Unlock()
}

// Serialize makes the threads of the run take turns, so that a run's
// outcome no longer depends on how the host schedules goroutines: one
// thread runs at a time, and when it blocks, yields or finishes, the
// waiting thread with the lowest virtual clock (then the lowest
// global identity) runs next. Which thread receives a message, wins a
// lock or claims a loop chunk is then a function of the program alone.
// Every thread must call Enter when it starts. Call Serialize before
// the first thread starts. A global deadlock or a rank abort ends
// turn-taking for the rest of the run.
func (a *Activity) Serialize() {
	a.mu.Lock()
	a.serial = true
	a.mu.Unlock()
}

// Enter waits for a newly started thread's first turn; the thread must
// already be counted by AddThreads. No-op unless serialized.
func (a *Activity) Enter(ctx *Ctx) {
	a.mu.Lock()
	if !a.serial {
		a.mu.Unlock()
		return
	}
	a.waitTurnLocked(&turn{ctx: ctx, ch: make(chan struct{}, 1)})
}

// Yield ends the running thread's turn if a waiting thread should run
// first: one with an earlier virtual clock, or, with deferToOthers,
// any waiting thread (which keeps threads that spin on shared memory
// from starving the thread they wait for). It reports whether the run
// takes turns; it is a no-op if not.
func (a *Activity) Yield(deferToOthers bool) bool {
	a.mu.Lock()
	h := a.holder
	if h == nil {
		a.mu.Unlock()
		return false
	}
	a.holder = nil
	if deferToOthers {
		a.deferred = h
	}
	a.waitTurnLocked(h)
	return true
}

// Pause is an injected wall-clock pause that lets other threads
// overtake the caller (chaos send jitter). Under Serialize the caller
// hands its turn to any waiting thread instead of sleeping, so the
// threads are reordered the same way on every run.
func (a *Activity) Pause(d time.Duration) {
	if d > 0 && !a.Yield(true) {
		time.Sleep(d)
	}
}

// waitTurnLocked queues t, hands out the turn if it is free, and
// blocks until t holds it. Called with a.mu held; returns with it
// released.
func (a *Activity) waitTurnLocked(t *turn) {
	a.ready = append(a.ready, t)
	a.dispatchLocked()
	a.mu.Unlock()
	<-t.ch
}

// dispatchLocked hands the free turn to the earliest waiting thread.
// It waits until every runnable thread has queued: a thread just woken
// (Unblock) or just started (AddThreads) that has not queued yet must
// take part in the choice, or the choice would depend on host timing.
func (a *Activity) dispatchLocked() {
	if !a.serial || a.holder != nil || len(a.ready) == 0 || len(a.ready) < a.active-a.blocked {
		return
	}
	next := -1
	for i, t := range a.ready {
		if t == a.deferred && len(a.ready) > 1 {
			continue
		}
		if next < 0 || t.before(a.ready[next]) {
			next = i
		}
	}
	t := a.ready[next]
	a.ready = append(a.ready[:next], a.ready[next+1:]...)
	a.deferred = nil
	a.holder = t
	t.ch <- struct{}{}
}

// freeLocked ends turn-taking: every waiting thread runs on.
func (a *Activity) freeLocked() {
	a.serial = false
	a.holder = nil
	a.deferred = nil
	for _, t := range a.ready {
		t.ch <- struct{}{}
	}
	a.ready = nil
}

// Block marks the calling thread as blocked and returns the deadlock
// latch channel to select on alongside the thread's wake channel.
func (a *Activity) Block() <-chan struct{} {
	d, _ := a.BlockDesc(-1, -1, "")
	return d
}

// BlockDesc is Block with a wait-for description for deadlock
// reports. The returned release function removes the description; a
// thread that wakes normally calls it, while one abandoned by the
// deadlock trip leaves its entry in place so StuckOps can report what
// everybody was waiting for.
func (a *Activity) BlockDesc(rank, tid int, desc string) (<-chan struct{}, func()) {
	return a.BlockOp(BlockedOp{Rank: rank, TID: tid, Peer: NoArg, Tag: NoArg, Comm: NoArg, Detail: desc})
}

// BlockOp is BlockDesc with a structured wait-for record, so deadlock
// reports can tabulate the blocked call's kind, peer, tag and
// communicator rather than just a description string. The returned
// channel closes on global deadlock or, when op.Rank >= 0, when that
// rank is aborted (crash-stop); woken sites use Deadlocked to
// distinguish.
//
// Under Serialize, blocking ends the caller's turn, and the release
// function waits for the next one.
func (a *Activity) BlockOp(op BlockedOp) (<-chan struct{}, func()) {
	a.mu.Lock()
	a.blocked++
	tok := int64(-1)
	if op.Detail != "" {
		tok = a.nextTok
		a.nextTok++
		a.stuck[tok] = op
	}
	a.checkLocked()
	d := a.dead
	if op.Rank >= 0 {
		d = a.rankLatchLocked(op.Rank).ch
	}
	h := a.holder
	a.holder = nil
	a.dispatchLocked()
	a.mu.Unlock()
	release := func() {
		a.mu.Lock()
		if tok >= 0 {
			delete(a.stuck, tok)
		}
		if a.serial && h != nil {
			a.waitTurnLocked(h)
			return
		}
		a.mu.Unlock()
	}
	return d, release
}

// rankLatchLocked returns (creating if needed) the rank's latch; new
// latches start closed if the watchdog already tripped or the rank is
// already aborted.
func (a *Activity) rankLatchLocked(rank int) *rankLatch {
	rl, ok := a.ranks[rank]
	if !ok {
		rl = &rankLatch{ch: make(chan struct{})}
		if a.tripped || a.aborted[rank] {
			rl.closed = true
			close(rl.ch)
		}
		a.ranks[rank] = rl
	}
	return rl
}

// AbortRank closes the rank's latch: every thread of that rank
// blocked through BlockOp wakes and (seeing Deadlocked false) unwinds
// with its own cleanup. Used by the crash-stop fault.
func (a *Activity) AbortRank(rank int) {
	a.mu.Lock()
	a.freeLocked()
	a.aborted[rank] = true
	rl := a.rankLatchLocked(rank)
	if !rl.closed {
		rl.closed = true
		close(rl.ch)
	}
	a.mu.Unlock()
}

// RankAborted reports whether AbortRank was called for the rank.
func (a *Activity) RankAborted(rank int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aborted[rank]
}

// StallPause marks the calling thread transiently blocked for the
// given wall-clock pause, then resumes it. The pause models an
// injected thread stall: the watchdog counts the thread as blocked
// but knows it will wake on its own. Under Serialize the stall is a
// Pause: the thread hands its turn to the waiting threads and does not
// sleep.
func (a *Activity) StallPause(d time.Duration) {
	if d <= 0 || a.Yield(true) {
		return
	}
	a.mu.Lock()
	a.blocked++
	a.transient++
	a.checkLocked()
	a.mu.Unlock()
	time.Sleep(d)
	a.mu.Lock()
	a.blocked--
	a.transient--
	a.graceGen++ // progress: invalidate any pending grace check
	a.mu.Unlock()
}

// StuckOps returns the descriptions of operations that were blocked
// when (or since) the deadlock latch tripped, sorted for stable
// reports.
func (a *Activity) StuckOps() []string {
	ops := a.StuckTable()
	out := make([]string, 0, len(ops))
	for _, op := range ops {
		out = append(out, op.String())
	}
	sort.Strings(out)
	return out
}

// StuckTable returns the structured wait-for snapshot, sorted by
// (rank, tid) for stable reports.
func (a *Activity) StuckTable() []BlockedOp {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]BlockedOp, 0, len(a.stuck))
	for _, op := range a.stuck {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// Unblock marks one blocked thread as runnable again. Callers invoke
// it before signalling the thread's wake channel.
func (a *Activity) Unblock() {
	a.mu.Lock()
	a.blocked--
	a.graceGen++ // progress: invalidate any pending grace check
	a.mu.Unlock()
}

// Deadlocked reports whether the deadlock latch has tripped.
func (a *Activity) Deadlocked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tripped
}

// Dead returns the latch channel (closed once deadlock is detected).
func (a *Activity) Dead() <-chan struct{} { return a.dead }

func (a *Activity) checkLocked() {
	if a.tripped || a.active <= 0 || a.blocked < a.active {
		return
	}
	if a.transient > 0 {
		// Some blocked threads are injected stalls that will wake on
		// their own; grant a wall-clock grace instead of tripping. If
		// nothing has made progress when the grace expires, treat the
		// state as a hang after all.
		a.armGraceLocked()
		return
	}
	a.tripLocked()
}

func (a *Activity) tripLocked() {
	a.freeLocked()
	a.tripped = true
	close(a.dead)
	for _, rl := range a.ranks {
		if !rl.closed {
			rl.closed = true
			close(rl.ch)
		}
	}
}

// armGraceLocked schedules the delayed re-check for an all-blocked
// state that contains transient blocks.
func (a *Activity) armGraceLocked() {
	if a.graceArmed {
		return
	}
	a.graceArmed = true
	gen := a.graceGen
	ns := a.graceNs
	if ns <= 0 {
		ns = DefaultGraceNs
	}
	time.AfterFunc(time.Duration(ns), func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.graceArmed = false
		if a.tripped {
			return
		}
		if gen == a.graceGen && a.active > 0 && a.blocked >= a.active {
			// No progress for the whole grace: the "transient" block
			// outlived its budget; declare the deadlock.
			a.tripLocked()
			return
		}
		// Progress happened; if we are all-blocked again with
		// transients, re-arm for the new episode.
		if a.active > 0 && a.blocked >= a.active && a.transient > 0 {
			a.armGraceLocked()
		}
	})
}

// Counts returns the current (active, blocked) thread counts; useful
// in tests and diagnostics.
func (a *Activity) Counts() (active, blocked int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active, a.blocked
}
