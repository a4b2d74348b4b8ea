package home

import (
	"runtime"
	"testing"
	"time"

	"home/internal/npb"
)

// deadlockInRegion deadlocks with every thread of both ranks blocked
// inside a parallel region: nobody sends the awaited messages.
const deadlockInRegion = `
int main() {
  int provided;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &provided);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double buf[1];
  #pragma omp parallel num_threads(2)
  {
    MPI_Recv(buf, 1, 1 - rank, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}`

// TestTeamGoroutinesEndWithCheck pins that a check leaves no goroutine
// behind: the OpenMP team goroutines each rank keeps between parallel
// regions end when the run does, on a clean run, after a global
// deadlock and after a crash-stop.
func TestTeamGoroutinesEndWithCheck(t *testing.T) {
	lu := npb.Generate(npb.LU, npb.Options{Class: 'A'}).Text
	cases := []struct {
		name  string
		src   string
		opts  Options
		check func(*Report) bool
	}{
		{"clean NPB-MZ class A", lu, Options{Procs: 8, Threads: 2},
			func(r *Report) bool { return !r.Deadlocked && !r.Partial }},
		{"deadlock", deadlockInRegion, Options{Procs: 2, Threads: 2},
			func(r *Report) bool { return r.Deadlocked }},
		{"crash-stop", cleanHybrid, Options{Procs: 4, Chaos: ChaosCrash(3, 1, 2)},
			func(r *Report) bool { return r.Partial && len(r.DeadRanks) == 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rep, err := Check(c.src, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !c.check(rep) {
				t.Fatalf("unexpected outcome: deadlocked %v, partial %v, dead ranks %v",
					rep.Deadlocked, rep.Partial, rep.DeadRanks)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines alive after the check, %d before:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
