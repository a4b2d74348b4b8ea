package interp

import (
	"testing"

	"home/internal/chaos"
)

// Sender jitter still reorders threads when a run takes turns: it hands
// the sender's turn to its teammate, so which thread's message rank 1
// matches first depends on the chaos seed, and only on the seed.
func TestJitterChangesMatchedSender(t *testing.T) {
	prog := parse(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[1];
  if (rank == 0) {
    #pragma omp parallel num_threads(2)
    {
      MPI_Send(a, 1, 1, omp_get_thread_num(), MPI_COMM_WORLD);
    }
  }
  int first = 0;
  if (rank == 1) {
    MPI_Recv(a, 1, 0, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    first = MPI_Status_tag();
    MPI_Recv(a, 1, 0, MPI_ANY_TAG, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return first;
}`)
	firstTag := func(plan *chaos.Plan) int {
		res := Run(prog, Config{Procs: 2, Chaos: plan})
		if err := res.FirstError(); err != nil || res.Deadlocked {
			t.Fatalf("plan %v: err %v, deadlocked %v", plan, err, res.Deadlocked)
		}
		return res.ExitCodes[1]
	}
	if got := firstTag(nil); got != 0 {
		t.Fatalf("without chaos rank 1 first matched thread %d, want 0", got)
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		plan := &chaos.Plan{Seed: seed, JitterProb: 0.5}
		got := firstTag(plan)
		for i := 0; i < 3; i++ {
			if again := firstTag(plan); again != got {
				t.Fatalf("seed %d: first matched thread %d, then %d", seed, got, again)
			}
		}
		seen[got] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("first matched threads over 40 jitter seeds: %v, want both 0 and 1", seen)
	}
}
