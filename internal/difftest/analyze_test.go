package difftest

import (
	"bytes"
	"encoding/json"
	"testing"

	"home/internal/detect"
	"home/internal/explain"
	"home/internal/obs"
	"home/internal/spec"
	"home/internal/trace"
)

// artifacts is everything observable downstream of one offline
// analysis of one event log: the detector report, the matched
// violations, the extracted witnesses, the overlaid timeline export,
// and the stats snapshot.
type artifacts struct {
	report     []byte
	violations []byte
	witnesses  []byte
	timeline   []byte
	stats      []byte
}

// analyzeArtifacts runs the full offline explanation pipeline (the
// hometrace timeline flow).
func analyzeArtifacts(t testing.TB, c cell) artifacts {
	t.Helper()
	reg := obs.NewRegistry()
	rep := detect.Analyze(c.events, detect.Options{Explain: true, Stats: reg})
	vs := spec.Match(c.events, rep)
	ws := explain.Extract(c.events, rep, vs)
	tl := trace.BuildTimeline(c.events)
	explain.Overlay(tl, ws)
	var tb bytes.Buffer
	if err := tl.WriteJSON(&tb); err != nil {
		t.Fatalf("%s: timeline: %v", c.name, err)
	}
	snap := reg.Snapshot()
	return artifacts{
		report:     mustJSON(t, rep),
		violations: mustJSON(t, vs),
		witnesses:  mustJSON(t, ws),
		timeline:   tb.Bytes(),
		stats:      mustJSON(t, snap),
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestAnalyzeIsRepeatable pins that the offline analysis is
// deterministic: for every corpus cell, repeated runs in one process
// produce byte-identical reports, violations, witnesses, timeline
// exports and stats, regardless of GOMAXPROCS.
func TestAnalyzeIsRepeatable(t *testing.T) {
	cells := corpus(t)
	first := make([]artifacts, len(cells))
	for i, c := range cells {
		first[i] = analyzeArtifacts(t, c)
	}
	withGOMAXPROCS(t, func(t *testing.T) {
		for i, c := range cells {
			got := analyzeArtifacts(t, c)
			diff := func(what string, g, w []byte) {
				if !bytes.Equal(g, w) {
					t.Errorf("%s: %s not repeatable:\n got %s\nwant %s", c.name, what, g, w)
				}
			}
			diff("report", got.report, first[i].report)
			diff("violations", got.violations, first[i].violations)
			diff("witnesses", got.witnesses, first[i].witnesses)
			diff("timeline", got.timeline, first[i].timeline)
			diff("stats", got.stats, first[i].stats)
			if t.Failed() {
				return
			}
		}
	})
}
