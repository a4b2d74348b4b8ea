package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"home/internal/faults"
	"home/internal/npb"
	"home/internal/serve"
)

// serve-mix: homeserve jobs against an in-process serve.Server on
// loopback — the operator. Open loop at fixed offered rates: each job
// is due on a schedule whatever the server's state, and is timed from
// its due time until its report is fetched. NPB-MZ class A jobs run
// next to small fault-program jobs; most sources repeat (artifact
// cache hits) and some carry a salt comment that makes them unique
// (misses).
const (
	serveNPBShare  = 0.25 // share of jobs that are NPB-MZ class A
	serveSaltShare = 0.20 // share of jobs with a unique source
	// serveHeadlineRate is the fixed offered rate (jobs/s) the
	// latency, throughput and cost metrics are measured at.
	serveHeadlineRate = 30.0
	// serveLimitMs is the latency limit on op_ms_p90 that
	// max_jobs_per_s must meet.
	serveLimitMs = 100.0
	// servePoll is the client's report polling interval.
	servePoll = time.Millisecond
)

// serveLadder is the fixed ladder of offered rates max_jobs_per_s is
// read from; steps are 25% apart so the reading repeats.
var serveLadder = []float64{20, 25, 31.25, 39.06, 48.83, 61.04, 76.29, 95.37, 119.2, 149.0, 186.3}

// serveMetrics are serve-mix's own figures: max_jobs_per_s next to the
// end-to-end metrics, the rest in its traced ledger.
var serveMetrics = []metricDef{
	{"max_jobs_per_s", "1/s"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.report_fetch_ms_p50", "ms"},
	{"serve.report_bytes", "B"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.jobs_rejected", "count"},
	{"loadgen.lag_ms_p90", "ms"},
}

// serveTemplate is one base program of the mix.
type serveTemplate struct {
	req serve.JobRequest
	ref []byte // report bytes of the program's cold run
}

// serveJob is one generated submission.
type serveJob struct {
	tmpl int
	req  serve.JobRequest
}

// genTemplates builds the mix's base programs: the three NPB-MZ class
// A programs at procs 4, then the six fault programs at procs 2.
func genTemplates(seed int64) []serveTemplate {
	var tmpls []serveTemplate
	for _, b := range npb.All() {
		o := npb.PaperInjections(b)
		o.Class = 'A'
		tmpls = append(tmpls, serveTemplate{req: serve.JobRequest{
			Program: npb.Generate(b, o).Text, Procs: tableProcs, Threads: tableThreads, Seed: seed,
		}})
	}
	for _, k := range faults.AllKinds() {
		tmpls = append(tmpls, serveTemplate{req: serve.JobRequest{
			Program: faults.Program(k), Procs: faultProcs, Threads: faultThreads, Seed: seed,
		}})
	}
	return tmpls
}

// jobStream draws the job sequence from seed, one job at a time.
type jobStream struct {
	seed  int64
	rng   *rand.Rand
	tmpls []serveTemplate
	n     int
}

func newJobStream(seed int64, tmpls []serveTemplate) *jobStream {
	return &jobStream{seed: seed, rng: rand.New(rand.NewSource(seed)), tmpls: tmpls}
}

func (s *jobStream) next() serveJob {
	nNPB := len(npb.All())
	t := nNPB + s.rng.Intn(len(s.tmpls)-nNPB)
	if s.rng.Float64() < serveNPBShare {
		t = s.rng.Intn(nNPB)
	}
	req := s.tmpls[t].req
	if s.rng.Float64() < serveSaltShare {
		// A trailing comment changes the source hash, not the
		// program: the report must still match the template's.
		req.Program += fmt.Sprintf("\n/* salt %d-%d */\n", s.seed, s.n)
	}
	s.n++
	return serveJob{tmpl: t, req: req}
}

type serveMix struct {
	srv    *serve.Server
	base   string
	client *http.Client
	tmpls  []serveTemplate
	jobs   *jobStream
}

func newServeMix(seed int64) (workload, error) {
	tmpls := genTemplates(seed)
	w := &serveMix{tmpls: tmpls, jobs: newJobStream(seed, tmpls)}
	w.srv = serve.New(serve.Config{Workers: runtime.NumCPU()})
	if err := w.srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	w.base = "http://" + w.srv.Addr()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	// Cold runs: every template once, its report the reference the
	// cached resubmissions must reproduce byte for byte.
	for i := range w.tmpls {
		out, err := w.submit(w.tmpls[i].req)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("cold run %d: %w", i, err)
		}
		w.tmpls[i].ref = out.report
	}
	return w, nil
}

func (w *serveMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix shutdown: %v\n", err)
	}
	w.client.CloseIdleConnections()
}

// served is one job's outcome as the client saw it.
type served struct {
	report []byte
	submit time.Duration // POST /jobs round trip
	fetch  time.Duration // the final, successful report GET
}

// submit posts one job and polls until its report is served.
func (w *serveMix) submit(req serve.JobRequest) (*served, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	out := &served{submit: time.Since(t)}
	for {
		t = time.Now()
		resp, err := w.client.Get(w.base + "/jobs/" + st.ID + "/report")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			out.report, out.fetch = data, time.Since(t)
			return out, nil
		case http.StatusConflict:
			time.Sleep(servePoll)
		default:
			return nil, fmt.Errorf("job %s: status %d: %s", st.ID, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// stats reads the daemon's counters from GET /stats.
func (w *serveMix) stats() (map[string]int64, error) {
	resp, err := w.client.Get(w.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return snap.Counters, nil
}

// step is one open-loop stretch at a fixed offered rate.
type step struct {
	win *window
	lag []float64 // submit time past due, ms
}

// openLoop offers n jobs at rate jobs/s to a pool of NumCPU clients
// and times each from its due time until its report is fetched.
func (w *serveMix) openLoop(rate float64, n int, tr *tracer) *step {
	type due struct {
		job serveJob
		at  time.Time
	}
	// The queue holds every job of the stretch, so the generator never
	// blocks on slow clients: their backlog is what it measures.
	queue := make(chan due, n)
	st := &step{win: &window{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	m0 := readMeter()
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				lag := ms(time.Since(d.at))
				out, err := w.submit(d.job.req)
				if err == nil && !bytes.Equal(out.report, w.tmpls[d.job.tmpl].ref) {
					err = errors.New("report bytes differ from the program's cold run")
				}
				took := time.Since(d.at)
				mu.Lock()
				st.lag = append(st.lag, lag)
				st.win.attempted++
				if err != nil {
					st.win.fail(fmt.Errorf("template %d: %w", d.job.tmpl, err))
				} else {
					st.win.lat = append(st.win.lat, ms(took))
				}
				if tr != nil && out != nil {
					tr.span("job", d.at, took)
					tr.add("traced.op_ms", ms(took))
					tr.add("serve.submit_ms_p50", ms(out.submit))
					tr.add("serve.report_fetch_ms_p50", ms(out.fetch))
					tr.add("serve.report_bytes", float64(len(out.report)))
					tr.commit()
				}
				mu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < n; k++ {
		at := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(at))
		queue <- due{job: w.jobs.next(), at: at}
	}
	close(queue)
	wg.Wait()
	st.win.elapsed = time.Since(start)
	st.win.cost = readMeter().sub(m0)
	return st
}

// meets reports whether a step kept its p90 within the latency limit
// with every job served and no growing backlog (the generator's jobs
// were all picked up within the limit).
func (s *step) meets(samples int) bool {
	if s.win.failed > 0 || len(s.win.lat) < samples {
		return false
	}
	lat := append([]float64(nil), s.win.lat...)
	lag := append([]float64(nil), s.lag...)
	return percentile(lat, 0.9) <= serveLimitMs && percentile(lag, 0.9) <= serveLimitMs
}

func (w *serveMix) run(s stretch, tr *tracer) *window {
	n := max(int(serveHeadlineRate*s.d.Seconds()), s.samples)
	if tr != nil {
		return w.tracedRun(n, tr)
	}
	win := w.openLoop(serveHeadlineRate, n, nil).win
	if s.samples == 0 {
		return win // a warm-up
	}
	// The ladder: climb until a rate misses the limit.
	best := 0.0
	for _, rate := range serveLadder {
		st := w.openLoop(rate, max(int(rate*2), s.samples), nil)
		if !st.meets(s.samples) {
			break
		}
		best = rate
	}
	win.extra = map[string]float64{"max_jobs_per_s": best}
	return win
}

// tracedRun offers jobs at the headline rate with the ledger on and
// reads the daemon's own counters around it.
func (w *serveMix) tracedRun(n int, tr *tracer) *window {
	before, err := w.stats()
	s := w.openLoop(serveHeadlineRate, n, tr)
	after, err2 := w.stats()
	if err == nil {
		err = err2
	}
	if err != nil {
		s.win.fail(err)
	}
	hits := after["serve.cache_hits"] - before["serve.cache_hits"]
	misses := after["serve.cache_misses"] - before["serve.cache_misses"]
	s.win.extra = map[string]float64{
		"serve.cache_hit_ratio": float64(hits) / float64(max(hits+misses, 1)),
		"serve.jobs_rejected":   float64(after["serve.jobs_rejected"] - before["serve.jobs_rejected"]),
		"loadgen.lag_ms_p90":    percentile(s.lag, 0.9),
	}
	for _, name := range []string{"serve.submit_ms_p50", "serve.report_fetch_ms_p50", "serve.report_bytes"} {
		s.win.extra[name] = tr.value(name, unitOf(name))
	}
	return s.win
}
