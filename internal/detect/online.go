package detect

import (
	"sync"

	"home/internal/trace"
)

// Online is the on-the-fly variant of the analysis: it implements
// trace.Sink, updating the lockset and vector-clock state as events
// arrive instead of replaying a recorded log (the paper's HOME
// monitors "on the fly"; the offline Analyze entry point exists for
// the hometrace workflow and the baseline tool models). Both run the
// same analyzer, so Analyze over a log Online numbered yields Online's
// report and stats.
type Online struct {
	mu sync.Mutex
	a  *analyzer
	n  int
}

// NewOnline builds an on-the-fly analyzer.
func NewOnline(opts Options) *Online {
	return &Online{a: newAnalyzer(opts)}
}

// Emit consumes one event (trace.Sink). Events are numbered in
// arrival order (the observed interleaving), mirroring what the log
// would assign.
func (o *Online) Emit(e trace.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e.Seq = uint64(o.n)
	o.n++
	o.a.step(e)
}

// Report returns the races found so far. It may be called repeatedly;
// the analyzer keeps accumulating afterwards.
func (o *Online) Report() *Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	rep := o.a.report()
	rep.EventsAnalyzed = o.n
	return rep
}
