package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchDef is BENCHMARK.json, the benchmark's definition.
type benchDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchDef decodes a benchmark definition, refusing unknown keys.
func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &def, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default exclusive method); xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// pyMedian matches Python's statistics.median.
func pyMedian(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / pyMedian(xs)
}

// runStability runs each workload `runs` times per set with distinct
// seeds, each run a separate process as a benchmark run is, and
// prints every end-to-end metric's spread next to its bound — and,
// with two sets, how far the second set's median moved from the
// first's.
func runStability(benchJSON, only string, runs, sets int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	def, err := readBenchDef(benchJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if runs < 2 {
		fmt.Fprintln(stderr, "perfbench: the stability mode needs at least 2 runs")
		return 2
	}
	if seconds <= 0 {
		seconds = float64(def.RunSeconds)
	}
	var names []string
	if only != "" {
		names = strings.Split(only, ",")
	} else {
		for _, w := range def.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range names {
		// vals[set][metric] holds one value per run.
		vals := make([]map[string][]float64, sets)
		for s := range vals {
			vals[s] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				k := seed + int64(s*runs+r)
				res, took, err := runOnce(self, name, k, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", name, k, err)
					return 1
				}
				fmt.Fprintf(stdout, "%s set %d seed %d: %d ops, %d failed, cpu_ms_per_op %.3f, %.1fs\n",
					name, s+1, k, res.Attempted, res.Failed, res.Metrics["cpu_ms_per_op"].Value, took.Seconds())
				if !res.Correct {
					fmt.Fprintf(stdout, "  %s\n", res.firstFailure)
					status = 1
				}
				for m, v := range res.Metrics {
					vals[s][m] = append(vals[s][m], v.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs x %d sets of %gs\n", name, runs, sets, seconds)
		fmt.Fprintf(stdout, "  %-18s %12s %9s %9s %7s  %s\n", "metric", "median", "spread", "bound/3", "drift", "verdict")
		for _, m := range def.EndToEnd {
			xs := vals[0][m.Name]
			if len(xs) != runs {
				fmt.Fprintf(stdout, "  %-18s missing\n", m.Name)
				status = 1
				continue
			}
			sp := spread(xs)
			verdict := "steady"
			if m.Name != "setup_s" && sp > m.Bound/3 {
				verdict = "SPREAD"
				status = 1
			}
			drift := "-"
			if sets > 1 && len(vals[1][m.Name]) == runs {
				d := pyMedian(vals[1][m.Name])/pyMedian(xs) - 1
				if m.Better == "higher" {
					d = -d
				}
				drift = strconv.FormatFloat(d, 'f', 4, 64)
				if d > m.Bound {
					verdict += " DRIFT"
					status = 1
				}
			}
			fmt.Fprintf(stdout, "  %-18s %12.4f %9.4f %9.4f %7s  %s\n", m.Name, pyMedian(xs), sp, m.Bound/3, drift, verdict)
		}
	}
	return status
}

// childResult is a child run's result line and its first failure.
type childResult struct {
	result
	firstFailure string
}

// runOnce runs the benchmark once in a child process and parses its
// result line.
func runOnce(self, name string, seed int64, seconds float64) (*childResult, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.result); err != nil {
		return nil, 0, fmt.Errorf("parse result line: %w", err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "first failure:") {
			res.firstFailure = l
		}
	}
	return &res, time.Since(start), nil
}
