package mpi

import (
	"errors"
	"math"
	"testing"

	"home/internal/sim"
)

// runWorld is a test helper: builds a world with n ranks, MULTIPLE
// thread level pre-initialized inside body via InitThread.
func runWorld(t *testing.T, n int, body func(p *Proc, ctx *sim.Ctx) error) *RunResult {
	t.Helper()
	w := NewWorld(Config{Procs: n, Seed: 42})
	return w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if err := body(p, ctx); err != nil {
			return err
		}
		return p.Finalize(ctx)
	})
}

func TestSendRecvBasic(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			return p.Send(ctx, []float64{1, 2, 3}, 1, 7, CommWorld)
		}
		data, st, err := p.Recv(ctx, 0, 7, CommWorld)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Count != 3 {
			t.Errorf("status = %+v", st)
		}
		if len(data) != 3 || data[0] != 1 || data[2] != 3 {
			t.Errorf("data = %v", data)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan should be positive")
	}
}

func TestRecvBeforeSend(t *testing.T) {
	// The receive is posted first (rank 1 does no work before Recv),
	// exercising the pending-receive path.
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 1 {
			data, _, err := p.Recv(ctx, 0, 1, CommWorld)
			if err != nil {
				return err
			}
			if data[0] != 9 {
				t.Errorf("data = %v", data)
			}
			return nil
		}
		ctx.Compute(100_000) // delay the send
		return p.Send(ctx, []float64{9}, 1, 1, CommWorld)
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc, ctx *sim.Ctx) error {
		switch p.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, st, err := p.Recv(ctx, AnySource, AnyTag, CommWorld)
				if err != nil {
					return err
				}
				got[st.Source] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("sources seen: %v", got)
			}
			return nil
		default:
			return p.Send(ctx, []float64{float64(p.Rank())}, 0, p.Rank()*10, CommWorld)
		}
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSamePair(t *testing.T) {
	// Messages between the same (source, dest, comm, tag) must arrive
	// in send order.
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		const n = 20
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := p.Send(ctx, []float64{float64(i)}, 1, 5, CommWorld); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := p.Recv(ctx, 0, 5, CommWorld)
			if err != nil {
				return err
			}
			if int(data[0]) != i {
				t.Errorf("message %d arrived out of order: got %v", i, data[0])
			}
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			if err := p.Send(ctx, []float64{1}, 1, 100, CommWorld); err != nil {
				return err
			}
			return p.Send(ctx, []float64{2}, 1, 200, CommWorld)
		}
		// Receive tag 200 first even though tag 100 was sent first.
		d2, _, err := p.Recv(ctx, 0, 200, CommWorld)
		if err != nil {
			return err
		}
		d1, _, err := p.Recv(ctx, 0, 100, CommWorld)
		if err != nil {
			return err
		}
		if d2[0] != 2 || d1[0] != 1 {
			t.Errorf("tag selection wrong: %v %v", d1, d2)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitTest(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			req, err := p.Isend(ctx, []float64{5}, 1, 3, CommWorld)
			if err != nil {
				return err
			}
			if !req.Done() {
				t.Error("eager isend should complete immediately")
			}
			_, err = p.Wait(ctx, req)
			return err
		}
		req, err := p.Irecv(ctx, 0, 3, CommWorld)
		if err != nil {
			return err
		}
		st, err := p.Wait(ctx, req)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Count != 1 || req.Data()[0] != 5 {
			t.Errorf("st=%+v data=%v", st, req.Data())
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestTestPolling(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			ctx.Compute(10_000)
			return p.Send(ctx, []float64{1}, 1, 0, CommWorld)
		}
		req, err := p.Irecv(ctx, 0, 0, CommWorld)
		if err != nil {
			return err
		}
		for {
			ok, st, err := p.Test(ctx, req)
			if err != nil {
				return err
			}
			if ok {
				if st.Source != 0 {
					t.Errorf("st = %+v", st)
				}
				return nil
			}
		}
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeThenRecv(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			return p.Send(ctx, []float64{1, 2}, 1, 9, CommWorld)
		}
		st, err := p.Probe(ctx, AnySource, AnyTag, CommWorld)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 9 || st.Count != 2 {
			t.Errorf("probe status = %+v", st)
		}
		// The probed message must still be receivable.
		data, _, err := p.Recv(ctx, st.Source, st.Tag, CommWorld)
		if err != nil {
			return err
		}
		if len(data) != 2 {
			t.Errorf("data = %v", data)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			return p.Send(ctx, []float64{1}, 1, 4, CommWorld)
		}
		for {
			ok, st, err := p.Iprobe(ctx, 0, 4, CommWorld)
			if err != nil {
				return err
			}
			if ok {
				if st.Tag != 4 {
					t.Errorf("st = %+v", st)
				}
				_, _, err = p.Recv(ctx, 0, 4, CommWorld)
				return err
			}
			ctx.Compute(100)
		}
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	times := make([]int64, 4)
	res := runWorld(t, 4, func(p *Proc, ctx *sim.Ctx) error {
		ctx.Compute(int64(p.Rank()) * 50_000)
		if err := p.Barrier(ctx, CommWorld); err != nil {
			return err
		}
		times[p.Rank()] = ctx.Now
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if times[r] != times[0] {
			t.Errorf("rank %d released at %d, rank 0 at %d", r, times[r], times[0])
		}
	}
}

func TestBcast(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc, ctx *sim.Ctx) error {
		var in []float64
		if p.Rank() == 2 {
			in = []float64{3, 1, 4}
		}
		out, err := p.Bcast(ctx, in, 2, CommWorld)
		if err != nil {
			return err
		}
		if len(out) != 3 || out[0] != 3 || out[2] != 4 {
			t.Errorf("rank %d bcast = %v", p.Rank(), out)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc, ctx *sim.Ctx) error {
		in := []float64{float64(p.Rank() + 1)}
		sum, err := p.Reduce(ctx, in, OpSum, 0, CommWorld)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if sum[0] != 10 {
				t.Errorf("reduce sum = %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root got reduce data: %v", sum)
		}
		all, err := p.Allreduce(ctx, in, OpMax, CommWorld)
		if err != nil {
			return err
		}
		if all[0] != 4 {
			t.Errorf("allreduce max = %v", all)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterAlltoall(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc, ctx *sim.Ctx) error {
		r := p.Rank()
		g, err := p.Gather(ctx, []float64{float64(r * 10)}, 0, CommWorld)
		if err != nil {
			return err
		}
		if r == 0 {
			want := []float64{0, 10, 20}
			for i := range want {
				if g[i] != want[i] {
					t.Errorf("gather = %v", g)
					break
				}
			}
		}
		var root []float64
		if r == 1 {
			root = []float64{7, 8, 9}
		}
		s, err := p.Scatter(ctx, root, 1, CommWorld)
		if err != nil {
			return err
		}
		if len(s) != 1 || s[0] != float64(7+r) {
			t.Errorf("rank %d scatter = %v", r, s)
		}
		// Alltoall: rank r sends chunk {r*3+j} to rank j.
		in := []float64{float64(r*3 + 0), float64(r*3 + 1), float64(r*3 + 2)}
		a, err := p.Alltoall(ctx, in, CommWorld)
		if err != nil {
			return err
		}
		// Rank r receives element r from each source s: s*3 + r.
		for s := 0; s < 3; s++ {
			if a[s] != float64(s*3+r) {
				t.Errorf("rank %d alltoall = %v", r, a)
				break
			}
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestCommDupIsolatesTraffic(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		dup, err := p.CommDup(ctx, CommWorld)
		if err != nil {
			return err
		}
		if dup == CommWorld {
			t.Error("dup returned world comm")
		}
		if p.Rank() == 0 {
			// Same tag on two comms; receiver selects by comm.
			if err := p.Send(ctx, []float64{1}, 1, 0, CommWorld); err != nil {
				return err
			}
			return p.Send(ctx, []float64{2}, 1, 0, dup)
		}
		d, _, err := p.Recv(ctx, 0, 0, dup)
		if err != nil {
			return err
		}
		if d[0] != 2 {
			t.Errorf("dup comm received %v", d)
		}
		d, _, err = p.Recv(ctx, 0, 0, CommWorld)
		if err != nil {
			return err
		}
		if d[0] != 1 {
			t.Errorf("world comm received %v", d)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetectedRecvNoSender(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		// Both ranks receive; nobody sends.
		_, _, err := p.Recv(ctx, AnySource, AnyTag, CommWorld)
		return err
	})
	if !res.Deadlocked {
		t.Fatal("watchdog should have tripped")
	}
	for r, err := range res.Errs {
		if !errors.Is(err, ErrDeadlock) {
			t.Errorf("rank %d err = %v, want ErrDeadlock", r, err)
		}
	}
}

func TestDeadlockDetectedMismatchedBarrier(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		if p.Rank() == 0 {
			return p.Barrier(ctx, CommWorld)
		}
		_, _, err := p.Recv(ctx, 0, 0, CommWorld)
		return err
	})
	if !res.Deadlocked {
		t.Fatal("mismatched barrier + recv should deadlock")
	}
}

func TestSendRecvCycleDeadlockFreeWithEagerSends(t *testing.T) {
	// Head-to-head Send/Recv is safe under the eager-send model (like
	// small-message MPI); both complete.
	res := runWorld(t, 2, func(p *Proc, ctx *sim.Ctx) error {
		peer := 1 - p.Rank()
		if err := p.Send(ctx, []float64{1}, peer, 0, CommWorld); err != nil {
			return err
		}
		_, _, err := p.Recv(ctx, peer, 0, CommWorld)
		return err
	})
	if res.Deadlocked {
		t.Fatal("eager sends should not deadlock head-to-head exchange")
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadLevelEnforcementDropsNonMainSend(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 1, EnforceThreadLevel: true})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadSingle); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Simulate a second thread issuing the send under SINGLE.
			tctx := ctx.Child(1)
			if err := p.Send(tctx, []float64{1}, 1, 0, CommWorld); err != nil {
				return err
			}
			return nil
		}
		_, _, err := p.Recv(ctx, 0, 0, CommWorld)
		return err
	})
	// The send was dropped, so rank 1's receive deadlocks.
	if !res.Deadlocked {
		t.Fatal("dropped send should leave the receive deadlocked")
	}
}

func TestThreadLevelMultipleAllowsWorkerCalls(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 1, EnforceThreadLevel: true})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		tctx := ctx.Child(1)
		if p.Rank() == 0 {
			return p.Send(tctx, []float64{1}, 1, 0, CommWorld)
		}
		_, _, err := p.Recv(tctx, 0, 0, CommWorld)
		return err
	})
	if res.Deadlocked || res.FirstError() != nil {
		t.Fatalf("deadlocked=%v err=%v", res.Deadlocked, res.FirstError())
	}
}

func TestCallBeforeInitFails(t *testing.T) {
	w := NewWorld(Config{Procs: 1, Seed: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		return p.Send(ctx, nil, 0, 0, CommWorld)
	})
	if !errors.Is(res.Errs[0], ErrNotInitialized) {
		t.Fatalf("err = %v", res.Errs[0])
	}
}

func TestCallAfterFinalizeFails(t *testing.T) {
	w := NewWorld(Config{Procs: 1, Seed: 1})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if err := p.Finalize(ctx); err != nil {
			return err
		}
		return p.Send(ctx, nil, 0, 0, CommWorld)
	})
	if !errors.Is(res.Errs[0], ErrFinalized) {
		t.Fatalf("err = %v", res.Errs[0])
	}
}

func TestInvalidRankAndComm(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc, ctx *sim.Ctx) error {
		if err := p.Send(ctx, nil, 5, 0, CommWorld); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("send to bad rank: %v", err)
		}
		if err := p.Send(ctx, nil, 0, 0, CommID(99)); !errors.Is(err, ErrInvalidComm) {
			t.Errorf("send on bad comm: %v", err)
		}
		if _, err := p.Irecv(ctx, 9, 0, CommWorld); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("irecv from bad rank: %v", err)
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeMessageLatency(t *testing.T) {
	w := NewWorld(Config{Procs: 2, Seed: 1})
	var recvTime int64
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		if p.Rank() == 0 {
			return p.Send(ctx, make([]float64, 1000), 1, 0, CommWorld)
		}
		_, _, err := p.Recv(ctx, 0, 0, CommWorld)
		recvTime = ctx.Now
		return err
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	c := sim.DefaultCostModel()
	minArrival := c.MPICallNs + c.MsgLatencyNs + 8000*c.MsgNsPerByte
	if recvTime < minArrival {
		t.Fatalf("recv completed at %d, before earliest possible arrival %d", recvTime, minArrival)
	}
}

func TestMakespanDeterministicForFixedSeedSequentialProgram(t *testing.T) {
	run := func() int64 {
		w := NewWorld(Config{Procs: 2, Seed: 7})
		res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
			if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
				return err
			}
			ctx.Compute(1000)
			if p.Rank() == 0 {
				if err := p.Send(ctx, []float64{1}, 1, 0, CommWorld); err != nil {
					return err
				}
			} else {
				if _, _, err := p.Recv(ctx, 0, 0, CommWorld); err != nil {
					return err
				}
			}
			return p.Barrier(ctx, CommWorld)
		})
		return res.Makespan
	}
	m1, m2 := run(), run()
	if m1 != m2 {
		t.Fatalf("makespan not deterministic: %d vs %d", m1, m2)
	}
}

func TestReduceOpsApply(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		a, b []float64
		want []float64
	}{
		{OpSum, []float64{1, 2}, []float64{3, 4}, []float64{4, 6}},
		{OpProd, []float64{2, 3}, []float64{4, 5}, []float64{8, 15}},
		{OpMax, []float64{1, 9}, []float64{5, 2}, []float64{5, 9}},
		{OpMin, []float64{1, 9}, []float64{5, 2}, []float64{1, 2}},
	}
	for _, c := range cases {
		a := append([]float64(nil), c.a...)
		c.op.apply(a, c.b)
		for i := range c.want {
			if math.Abs(a[i]-c.want[i]) > 1e-12 {
				t.Errorf("%v: got %v want %v", c.op, a, c.want)
				break
			}
		}
	}
}

func TestStatusOnConcurrentCollectivesFromTwoThreads(t *testing.T) {
	// Two threads of each rank concurrently issue barriers on the same
	// communicator: the runtime pairs arrivals into instances by
	// arrival order. With 2 ranks x 2 threads there are exactly two
	// complete instances, so everything terminates (the hazard is
	// nondeterministic pairing, which the checker flags — the runtime
	// itself stays live).
	w := NewWorld(Config{Procs: 2, Seed: 3})
	res := w.Run(func(p *Proc, ctx *sim.Ctx) error {
		if _, err := p.InitThread(ctx, ThreadMultiple); err != nil {
			return err
		}
		errCh := make(chan error, 2)
		w.Activity().AddThreads(2)
		for tid := 1; tid <= 2; tid++ {
			go func(tid int) {
				tctx := ctx.Child(tid)
				errCh <- p.Barrier(tctx, CommWorld)
				w.Activity().DoneThread()
			}(tid)
		}
		for i := 0; i < 2; i++ {
			if err := <-errCh; err != nil {
				return err
			}
		}
		return nil
	})
	if res.Deadlocked || res.FirstError() != nil {
		t.Fatalf("deadlocked=%v err=%v", res.Deadlocked, res.FirstError())
	}
}
