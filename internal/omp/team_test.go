package omp

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine N [running]:").
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// waitGoroutines fails the test unless the goroutine count falls back
// to base within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines alive, want at most %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamGoroutinesReusedAcrossRegions pins the hot team: 100
// sequential regions of up to size threads run their workers on at
// most size-1 goroutines, each team thread id always on the same one,
// and Close ends them.
func TestTeamGoroutinesReusedAcrossRegions(t *testing.T) {
	const size = 4
	base := runtime.NumGoroutine()
	rt := NewRuntime(0, nil)
	var mu sync.Mutex
	byTID := map[int]map[int]bool{} // team thread id -> goroutine ids
	for i := 0; i < 100; i++ {
		n := size - i%3 // 4, 3, 2, 4, ...
		err := rt.Parallel(testCtx(), n, func(m *Member) error {
			if m.TID == 0 {
				return nil
			}
			mu.Lock()
			if byTID[m.TID] == nil {
				byTID[m.TID] = map[int]bool{}
			}
			byTID[m.TID][goid()] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(byTID) != size-1 {
		t.Fatalf("worker thread ids %v, want 1..%d", byTID, size-1)
	}
	for tid, gs := range byTID {
		if len(gs) != 1 {
			t.Errorf("team thread %d ran on %d goroutines, want 1", tid, len(gs))
		}
	}
	if got := runtime.NumGoroutine() - base; got > size-1 {
		t.Errorf("%d goroutines started, want at most %d", got, size-1)
	}
	rt.Close()
	waitGoroutines(t, base)

	// A region after Close starts a new team, which Close ends again.
	if err := rt.Parallel(testCtx(), 2, func(*Member) error { return nil }); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	waitGoroutines(t, base)
}
