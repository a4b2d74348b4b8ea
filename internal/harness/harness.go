// Package harness reproduces the paper's evaluation (§V): the
// detection-accuracy table and the execution-time/overhead figures,
// over the synthetic NPB-MZ workloads of package npb.
//
// Experiments:
//
//   - Table I  — violations detected per tool on LU/BT/SP with six
//     injected violations each (paper: HOME 6/6/6, ITC 5/7/6,
//     Marmot 5/6/5);
//   - Fig. 4-6 — execution time vs process count (2..64) for
//     Base/HOME/Marmot/ITC on LU, BT, SP;
//   - Fig. 7   — average overhead percentage vs process count
//     (paper: HOME 16-45%, Marmot 15-56%, ITC up to ~200%);
//   - Ablation — HOME with and without the static filter (DESIGN.md).
//
// Absolute times come from the simulator's virtual-time cost model,
// so only the relative shape is meaningful; see EXPERIMENTS.md.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"home"
	"home/internal/baseline"
	"home/internal/npb"
	"home/internal/obs/live"
	"home/internal/serve"
	"home/internal/spec"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Class scales the workloads (default 'W' keeps host runtime
	// modest; the shapes are class-invariant).
	Class npb.Class
	// Procs lists the process counts for the figures (default the
	// paper's 2..64 powers of two).
	Procs []int
	// TableProcs is the rank count for the accuracy table (default 4).
	TableProcs int
	// Seed seeds the explore experiment and is passed to every run.
	Seed int64
	// Threads is OpenMP threads per rank (paper default 2).
	Threads int
	// CollectStats attaches a fresh obs registry to every HOME run and
	// records its snapshot on the result (TimingPoint.Stats,
	// ToolOutcome.Stats, ScalePoint.Stats) for machine-readable output.
	CollectStats bool
	// ScheduleDir is where the chaos soak dumps the realized schedule
	// of any plan whose verdict diverges from its baseline, as a
	// replayable artifact ("" = the OS temp directory).
	ScheduleDir string
	// Live, when non-nil, registers every HOME run on the telemetry
	// plane (internal/obs/live): a long soak or campaign becomes
	// observable over homebench -introspect and feeds the progress
	// ticker. Publication never perturbs run artifacts.
	Live *live.Plane
	// Cache, when non-nil, resolves every generated or corpus program
	// through the shared compiled-artifact cache (internal/serve), so
	// experiments revisiting the same source skip parse, sema and the
	// instrumentation analysis. Reuse is observable as
	// serve.cache_hits / serve.cache_misses on the cache's registry.
	Cache *serve.Cache
}

// compileSource resolves source text to a compiled handle — through
// the shared artifact cache when the config carries one, else a fresh
// one-shot compile.
func (c Config) compileSource(src string) (*home.Compiled, error) {
	if c.Cache != nil {
		comp, _, err := c.Cache.Get(src)
		return comp, err
	}
	return home.Compile(src)
}

// homeOptions builds the options for one HOME run, attaching a stats
// registry and a phase profile when the config asks for per-run
// statistics (the profile feeds RunMeta.Phases and the hotspot view).
func (c Config) homeOptions(procs int) home.Options {
	o := home.Options{Procs: procs, Threads: c.Threads, Seed: c.Seed, Live: c.Live}
	if c.CollectStats {
		o.Stats = home.NewStatsRegistry()
		o.Profile = home.NewProfile()
	}
	return o
}

// RunMeta is the uniform per-run result shape every experiment's HOME
// run emits — makespan, analyzed-event count, per-rank coverage and
// (when Config.CollectStats is set) the phase spans. Chaos outcomes
// used to be the only ones carrying coverage; reports now aggregate
// any experiment's runs without special-casing.
type RunMeta struct {
	MakespanNs     int64               `json:"makespanNs"`
	EventsAnalyzed int                 `json:"eventsAnalyzed"`
	RankCoverage   []home.RankCoverage `json:"rankCoverage,omitempty"`
	Phases         []home.Span         `json:"phases,omitempty"`
}

// runMeta extracts the uniform shape from a report.
func runMeta(rep *home.Report) *RunMeta {
	return &RunMeta{
		MakespanNs:     rep.Makespan,
		EventsAnalyzed: rep.EventsAnalyzed,
		RankCoverage:   rep.RankCoverage,
		Phases:         rep.Spans,
	}
}

func (c Config) withDefaults() Config {
	if c.Class == 0 {
		c.Class = 'W'
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{2, 4, 8, 16, 32, 64}
	}
	if c.TableProcs == 0 {
		c.TableProcs = 4
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
	return c
}

// ToolOutcome is one tool's result on one injected benchmark.
type ToolOutcome struct {
	Tool baseline.Tool `json:"tool"`
	// DetectedKinds lists which injected kinds were attributed at
	// least one report.
	DetectedKinds []spec.Kind `json:"detectedKinds,omitempty"`
	// FalsePositives counts reports outside every injected site.
	FalsePositives int `json:"falsePositives"`
	// Reported is the Table I cell: detected injections + false
	// positives.
	Reported int `json:"reported"`
	// Stats holds the HOME run's runtime statistics when
	// Config.CollectStats is set (nil for other tools).
	Stats *home.StatsSnapshot `json:"stats,omitempty"`
	// Run is the uniform per-run shape (nil for non-HOME tools, whose
	// simulations do not produce it).
	Run *RunMeta `json:"run,omitempty"`
}

// TableRow is one benchmark's row of Table I.
type TableRow struct {
	Benchmark npb.Benchmark                 `json:"benchmark"`
	Injected  int                           `json:"injected"`
	Outcomes  map[baseline.Tool]ToolOutcome `json:"outcomes"`
}

// Table1 reproduces the detection-accuracy table.
func Table1(cfg Config) ([]TableRow, error) {
	cfg = cfg.withDefaults()
	var rows []TableRow
	for _, bench := range npb.All() {
		o := npb.PaperInjections(bench)
		o.Class = cfg.Class
		src := npb.Generate(bench, o)
		comp, err := cfg.compileSource(src.Text)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", bench, err)
		}
		prog := comp.Program()

		row := TableRow{
			Benchmark: bench,
			Injected:  len(o.Inject),
			Outcomes:  map[baseline.Tool]ToolOutcome{},
		}

		// HOME.
		homeRep, err := home.CheckCompiled(comp, cfg.homeOptions(cfg.TableProcs))
		if err != nil {
			return nil, err
		}
		homeOut := scoreOutcome(baseline.ToolHOME, src, homeRep.Violations)
		homeOut.Stats = homeRep.Stats
		homeOut.Run = runMeta(homeRep)
		row.Outcomes[baseline.ToolHOME] = homeOut

		// Marmot.
		bopts := baseline.Options{Procs: cfg.TableProcs, Threads: cfg.Threads, Seed: cfg.Seed}
		marmot := baseline.RunMarmot(prog, bopts)
		row.Outcomes[baseline.ToolMarmot] = scoreOutcome(baseline.ToolMarmot, src, marmot.Violations)

		// ITC.
		itc := baseline.RunITC(prog, bopts)
		row.Outcomes[baseline.ToolITC] = scoreOutcome(baseline.ToolITC, src, itc.Violations)

		rows = append(rows, row)
	}
	return rows, nil
}

// scoreOutcome attributes a tool's reports to injection sites.
func scoreOutcome(tool baseline.Tool, src *npb.Source, violations []spec.Violation) ToolOutcome {
	detected := map[spec.Kind]bool{}
	fps := map[string]bool{}
	for _, v := range violations {
		if kind, ok := src.Attribute(v); ok {
			detected[kind] = true
			continue
		}
		fps[fmt.Sprintf("%v@%v", v.Kind, v.Lines)] = true
	}
	out := ToolOutcome{Tool: tool, FalsePositives: len(fps)}
	for _, k := range spec.AllKinds() {
		if detected[k] {
			out.DetectedKinds = append(out.DetectedKinds, k)
		}
	}
	out.Reported = len(out.DetectedKinds) + out.FalsePositives
	return out
}

// TimingPoint is one (procs, tool) measurement.
type TimingPoint struct {
	Procs    int           `json:"procs"`
	Tool     baseline.Tool `json:"tool"`
	Makespan int64         `json:"makespanNs"` // virtual ns
	// OverheadPct is relative to the Base run at the same proc count
	// (0 for Base itself).
	OverheadPct float64 `json:"overheadPct"`
	// Stats holds the HOME run's runtime statistics when
	// Config.CollectStats is set (nil for other tools).
	Stats *home.StatsSnapshot `json:"stats,omitempty"`
	// Run is the uniform per-run shape (nil for non-HOME tools).
	Run *RunMeta `json:"run,omitempty"`
}

// FigureSeries is one benchmark's execution-time figure (Fig. 4/5/6).
type FigureSeries struct {
	Benchmark npb.Benchmark `json:"benchmark"`
	Points    []TimingPoint `json:"points"` // grouped by procs, ordered Base/HOME/Marmot/ITC
}

// toolsOrder is the presentation order of the figures.
var toolsOrder = []baseline.Tool{baseline.ToolBase, baseline.ToolHOME, baseline.ToolMarmot, baseline.ToolITC}

// Figure runs the execution-time experiment for one benchmark
// (Fig. 4 = LU, Fig. 5 = BT, Fig. 6 = SP). Like the paper, the
// benchmarks carry the injected violations during timing runs.
func Figure(bench npb.Benchmark, cfg Config) (*FigureSeries, error) {
	cfg = cfg.withDefaults()
	o := npb.PaperInjections(bench)
	o.Class = cfg.Class
	src := npb.Generate(bench, o)
	comp, err := cfg.compileSource(src.Text)
	if err != nil {
		return nil, err
	}
	prog := comp.Program()

	fs := &FigureSeries{Benchmark: bench}
	for _, procs := range cfg.Procs {
		base := baseline.RunBase(prog, baseline.Options{Procs: procs, Threads: cfg.Threads, Seed: cfg.Seed})
		if err := firstErr(base.Errs); err != nil {
			return nil, fmt.Errorf("%v base procs=%d: %w", bench, procs, err)
		}
		fs.Points = append(fs.Points, TimingPoint{Procs: procs, Tool: baseline.ToolBase, Makespan: base.Makespan})

		homeRep, err := home.CheckCompiled(comp, cfg.homeOptions(procs))
		if err != nil {
			return nil, err
		}
		homePt := point(procs, baseline.ToolHOME, homeRep.Makespan, base.Makespan)
		homePt.Stats = homeRep.Stats
		homePt.Run = runMeta(homeRep)
		fs.Points = append(fs.Points, homePt)

		bopts := baseline.Options{Procs: procs, Threads: cfg.Threads, Seed: cfg.Seed}
		marmot := baseline.RunMarmot(prog, bopts)
		fs.Points = append(fs.Points, point(procs, baseline.ToolMarmot, marmot.Makespan, base.Makespan))

		itc := baseline.RunITC(prog, bopts)
		fs.Points = append(fs.Points, point(procs, baseline.ToolITC, itc.Makespan, base.Makespan))
	}
	return fs, nil
}

func point(procs int, tool baseline.Tool, makespan, base int64) TimingPoint {
	return TimingPoint{
		Procs: procs, Tool: tool, Makespan: makespan,
		OverheadPct: overheadPct(makespan, base),
	}
}

func overheadPct(makespan, base int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(makespan-base) / float64(base)
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// OverheadPoint is one (procs, tool) average-overhead measurement
// across the three benchmarks (Fig. 7).
type OverheadPoint struct {
	Procs       int           `json:"procs"`
	Tool        baseline.Tool `json:"tool"`
	OverheadPct float64       `json:"overheadPct"`
}

// Figure7 computes the average overhead per tool and proc count over
// LU, BT and SP.
func Figure7(cfg Config) ([]OverheadPoint, error) {
	cfg = cfg.withDefaults()
	sums := map[[2]int]float64{} // (procIdx, tool) -> sum over benchmarks
	for _, bench := range npb.All() {
		fs, err := Figure(bench, cfg)
		if err != nil {
			return nil, err
		}
		for _, p := range fs.Points {
			if p.Tool == baseline.ToolBase {
				continue
			}
			sums[[2]int{p.Procs, int(p.Tool)}] += p.OverheadPct
		}
	}
	var out []OverheadPoint
	for _, procs := range cfg.Procs {
		for _, tool := range toolsOrder[1:] {
			out = append(out, OverheadPoint{
				Procs: procs, Tool: tool,
				OverheadPct: sums[[2]int{procs, int(tool)}] / float64(len(npb.All())),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Procs != out[j].Procs {
			return out[i].Procs < out[j].Procs
		}
		return out[i].Tool < out[j].Tool
	})
	return out, nil
}

// AblationPoint compares HOME with and without the static filter.
type AblationPoint struct {
	Procs                    int     `json:"procs"`
	BaseNs                   int64   `json:"baseNs"`
	FilteredNs               int64   `json:"filteredNs"`      // HOME (selective monitoring)
	InstrumentAllNs          int64   `json:"instrumentAllNs"` // HOME without the static filter
	FilteredOverheadPct      float64 `json:"filteredOverheadPct"`
	InstrumentAllOverheadPct float64 `json:"instrumentAllOverheadPct"`
	SitesFiltered            int     `json:"sitesFiltered"` // instrumented sites with the filter
	SitesAll                 int     `json:"sitesAll"`      // without
}

// Ablation measures the value of the static phase (the design choice
// DESIGN.md calls out) on the LU workload.
func Ablation(cfg Config) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	o := npb.PaperInjections(npb.LU)
	o.Class = cfg.Class
	src := npb.Generate(npb.LU, o)
	comp, err := cfg.compileSource(src.Text)
	if err != nil {
		return nil, err
	}
	prog := comp.Program()
	var out []AblationPoint
	for _, procs := range cfg.Procs {
		base := baseline.RunBase(prog, baseline.Options{Procs: procs, Threads: cfg.Threads, Seed: cfg.Seed})
		withFilter, err := home.CheckCompiled(comp, home.Options{Procs: procs, Threads: cfg.Threads, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		noFilter, err := home.CheckCompiled(comp, home.Options{
			Procs: procs, Threads: cfg.Threads, Seed: cfg.Seed, InstrumentAll: true,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Procs:                    procs,
			BaseNs:                   base.Makespan,
			FilteredNs:               withFilter.Makespan,
			InstrumentAllNs:          noFilter.Makespan,
			FilteredOverheadPct:      overheadPct(withFilter.Makespan, base.Makespan),
			InstrumentAllOverheadPct: overheadPct(noFilter.Makespan, base.Makespan),
			SitesFiltered:            withFilter.Plan.Instrumented,
			SitesAll:                 noFilter.Plan.Instrumented,
		})
	}
	return out, nil
}

// ---- rendering ----

// RenderTable1 prints the accuracy table in the paper's layout.
func RenderTable1(rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %8s\n", "Benchmarks", "HOME", "ITC", "Marmot")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %8d %8d\n",
			fmt.Sprintf("NPB-MZ %s (%d)", r.Benchmark, r.Injected),
			r.Outcomes[baseline.ToolHOME].Reported,
			r.Outcomes[baseline.ToolITC].Reported,
			r.Outcomes[baseline.ToolMarmot].Reported)
	}
	return b.String()
}

// RenderFigure prints one execution-time figure as aligned columns.
func RenderFigure(fs *FigureSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s execution time (virtual milliseconds)\n", fs.Benchmark)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "procs", "Base", "HOME", "MARMOT", "ITC")
	byProcs := map[int]map[baseline.Tool]TimingPoint{}
	var procs []int
	for _, p := range fs.Points {
		if byProcs[p.Procs] == nil {
			byProcs[p.Procs] = map[baseline.Tool]TimingPoint{}
			procs = append(procs, p.Procs)
		}
		byProcs[p.Procs][p.Tool] = p
	}
	sort.Ints(procs)
	for _, n := range procs {
		row := byProcs[n]
		fmt.Fprintf(&b, "%6d %12.3f %12.3f %12.3f %12.3f\n", n,
			millis(row[baseline.ToolBase].Makespan),
			millis(row[baseline.ToolHOME].Makespan),
			millis(row[baseline.ToolMarmot].Makespan),
			millis(row[baseline.ToolITC].Makespan))
	}
	return b.String()
}

// RenderFigure7 prints the overhead summary.
func RenderFigure7(points []OverheadPoint) string {
	var b strings.Builder
	b.WriteString("Average overhead (%) across LU/BT/SP\n")
	fmt.Fprintf(&b, "%6s %10s %10s %10s\n", "procs", "HOME", "MARMOT", "ITC")
	byProcs := map[int]map[baseline.Tool]float64{}
	var procs []int
	for _, p := range points {
		if byProcs[p.Procs] == nil {
			byProcs[p.Procs] = map[baseline.Tool]float64{}
			procs = append(procs, p.Procs)
		}
		byProcs[p.Procs][p.Tool] = p.OverheadPct
	}
	sort.Ints(procs)
	for _, n := range procs {
		row := byProcs[n]
		fmt.Fprintf(&b, "%6d %9.1f%% %9.1f%% %9.1f%%\n", n,
			row[baseline.ToolHOME], row[baseline.ToolMarmot], row[baseline.ToolITC])
	}
	return b.String()
}

// RenderAblation prints the static-filter ablation.
func RenderAblation(points []AblationPoint) string {
	var b strings.Builder
	b.WriteString("Static-filter ablation (LU-MZ): HOME vs instrument-everything\n")
	fmt.Fprintf(&b, "%6s %10s %14s %12s %16s\n", "procs", "sites", "overhead", "sites(all)", "overhead(all)")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %10d %13.1f%% %12d %15.1f%%\n",
			p.Procs, p.SitesFiltered, p.FilteredOverheadPct,
			p.SitesAll, p.InstrumentAllOverheadPct)
	}
	return b.String()
}

func millis(ns int64) float64 { return float64(ns) / 1e6 }
