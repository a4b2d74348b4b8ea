package sim

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// startThreads registers one serialized thread per clock value; each
// runs body once it holds its first turn and then finishes.
func startThreads(a *Activity, clocks []int64, body func(ctx *Ctx)) *sync.WaitGroup {
	var wg sync.WaitGroup
	a.AddThreads(len(clocks))
	for tid, now := range clocks {
		ctx := &Ctx{Rank: 0, TID: tid, Now: now}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Enter(ctx)
			body(ctx)
			a.DoneThread()
		}()
	}
	return &wg
}

// The first turn goes to the earliest clock, whatever order the host
// starts the goroutines in, and threads run one at a time.
func TestSerializeEarliestClockFirst(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := NewActivity()
		a.Serialize()
		var order []int
		startThreads(a, []int64{30, 10, 20, 10}, func(ctx *Ctx) {
			order = append(order, ctx.TID) // unsynchronized: turns exclude each other
		}).Wait()
		if want := []int{1, 3, 2, 0}; !reflect.DeepEqual(order, want) {
			t.Fatalf("run %d: order %v, want %v", i, order, want)
		}
	}
}

// A thread woken by the running thread takes part in the next choice
// even if the host has not run it yet: the waker's Yield waits for it
// and then hands it the turn, since its clock is earlier.
func TestSerializeWokenThreadTakesTurn(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := NewActivity()
		a.Serialize()
		wake := make(chan struct{}, 1)
		var log []string
		startThreads(a, []int64{0, 5}, func(ctx *Ctx) {
			if ctx.TID == 0 {
				log = append(log, "block")
				dead, release := a.BlockDesc(0, 0, "test wait")
				select {
				case <-wake:
					release()
				case <-dead:
					t.Error("deadlock latch closed")
					return
				}
				log = append(log, "woken")
				return
			}
			log = append(log, "wake")
			a.Unblock()
			wake <- struct{}{}
			a.Yield(false)
			log = append(log, "after")
		}).Wait()
		if want := []string{"block", "wake", "woken", "after"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("run %d: log %v, want %v", i, log, want)
		}
	}
}

// Yield(true) hands the turn to another thread even when the yielder's
// clock is earliest, so a thread spinning on memory cannot starve the
// one it waits for.
func TestSerializeDeferToOthers(t *testing.T) {
	a := NewActivity()
	a.Serialize()
	flag := false
	startThreads(a, []int64{0, 100}, func(ctx *Ctx) {
		if ctx.TID == 1 {
			flag = true
			return
		}
		for !flag {
			a.Yield(true)
		}
	}).Wait()
}

// Injected pauses (jitter, stalls) hand the turn to a waiting thread
// even though the pausing thread's clock is earliest, and take no wall
// time while the run takes turns.
func TestSerializePausesHandOverTurn(t *testing.T) {
	for name, pause := range map[string]func(a *Activity){
		"jitter": func(a *Activity) { a.Pause(time.Hour) },
		"stall":  func(a *Activity) { a.StallPause(time.Hour) },
	} {
		a := NewActivity()
		a.Serialize()
		var log []int
		startThreads(a, []int64{0, 100}, func(ctx *Ctx) {
			if ctx.TID == 0 {
				pause(a)
			}
			log = append(log, ctx.TID)
		}).Wait()
		if want := []int{1, 0}; !reflect.DeepEqual(log, want) {
			t.Fatalf("%s: order %v, want %v", name, log, want)
		}
	}
}

// A global deadlock ends turn-taking: every blocked thread wakes on the
// latch and unwinds without waiting for a turn.
func TestSerializeDeadlockFreesThreads(t *testing.T) {
	a := NewActivity()
	a.Serialize()
	startThreads(a, []int64{0, 0, 0}, func(ctx *Ctx) {
		dead, release := a.BlockDesc(0, ctx.TID, "never woken")
		<-dead
		release()
	}).Wait()
	if !a.Deadlocked() {
		t.Fatal("all threads blocked but the watchdog did not trip")
	}
}
