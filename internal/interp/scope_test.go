package interp

import (
	"strconv"
	"strings"
	"testing"
)

// exitOf runs src on one rank and returns main's exit code.
func exitOf(t *testing.T, src string) int {
	t.Helper()
	return mustRun(t, src, Config{}).ExitCodes[0]
}

func TestStatusSurvivesSequentialFor(t *testing.T) {
	for _, loop := range []string{
		"for (int k = 0; k < 1; k++) MPI_Recv(a, 4, 0, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
		"for (k = 0; k < 1; k++) { MPI_Recv(a, 4, 0, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE); }",
	} {
		res := mustRun(t, `
int main() {
  int p;
  MPI_Init_thread(MPI_THREAD_MULTIPLE, &p);
  int rank = MPI_Comm_rank(MPI_COMM_WORLD);
  double a[4];
  int k;
  if (rank == 0) {
    MPI_Send(a, 4, 1, 7, MPI_COMM_WORLD);
  }
  if (rank == 1) {
    `+loop+`
    MPI_Finalize();
    return MPI_Status_tag() * 100 + MPI_Get_count();
  }
  MPI_Finalize();
  return 0;
}`, Config{Procs: 2})
		if got := res.ExitCodes[1]; got != 704 {
			t.Errorf("%s\nstatus after the loop = %d, want 704 (tag 7, count 4)", loop, got)
		}
	}
}

func TestShadowedVariableInNestedBlock(t *testing.T) {
	got := exitOf(t, `
int main() {
  int x = 1;
  int inner = 0;
  {
    int x = 2;
    { x = x + 1; }
    inner = x;
  }
  return x * 10 + inner;
}`)
	if got != 13 {
		t.Fatalf("got %d, want 13 (outer x 1, inner x 3)", got)
	}
}

func TestForInitDoesNotLeak(t *testing.T) {
	got := exitOf(t, `
int main() {
  int i = 10;
  int s = 0;
  for (int i = 0; i < 3; i++) { s += i; }
  return i * 10 + s;
}`)
	if got != 103 {
		t.Fatalf("got %d, want 103 (outer i 10, sum 3)", got)
	}
	res := run(t, `
int main() {
  for (int j = 0; j < 3; j++) { }
  return j;
}`, Config{})
	if err := res.FirstError(); err == nil || !strings.Contains(err.Error(), "j") {
		t.Fatalf("loop variable visible after the loop: err = %v", err)
	}
}

func TestBareDeclarationStaysInEnclosingBlock(t *testing.T) {
	got := exitOf(t, `
int main() {
  int x = 1;
  int n = 0;
  int seen = 0;
  {
    while (n < 2) int x = 10 + (n = n + 1);
    seen = x;
  }
  {
    if (n == 2) int x = 20;
    seen = seen * 100 + x;
  }
  {
    #pragma omp critical
    int x = 3;
    seen = seen * 10 + x;
  }
  for (n = 0; n < 1; n++) int x = 4;
  return seen * 10 + x;
}`)
	// while body: x = 12; if body: x = 20; critical body: x = 3; the
	// for body's x stays in the loop; the outer x is still 1.
	if want := (1220*10+3)*10 + 1; got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestDeclarationFreeBlockUsesOuterVariables(t *testing.T) {
	got := exitOf(t, `
int main() {
  int x = 1;
  { x = x + 1; }
  { { x = x * 10; } }
  for (int k = 0; k < 2; k++) { x = x + k; }
  return x;
}`)
	if got != 21 {
		t.Fatalf("got %d, want 21", got)
	}
}

func TestPrivateAndReductionStayPerThread(t *testing.T) {
	got := exitOf(t, `
int main() {
  int p = 100;
  int s = 0;
  double mine[4];
  #pragma omp parallel num_threads(4) private(p) reduction(+: s)
  {
    p = omp_get_thread_num();
    s = s + 1;
    { int k = p; mine[k] = p + 1; }
    for (int r = 0; r < 50; r++) { s = s + 0; }
    if (p == omp_get_thread_num()) { s = s + 10; }
  }
  double t = 0.0;
  int q = 7;
  #pragma omp parallel for num_threads(2) private(q) reduction(+: t)
  for (int i = 0; i < 10; i++) { q = i; t = t + q; }
  double m = mine[0] + mine[1] + mine[2] + mine[3];
  if (p == 100 && s == 44 && q == 7 && t == 45.0 && m == 10.0) { return 1; }
  return 0;
}`)
	if got != 1 {
		t.Fatal("private/reduction copies leaked across threads or into the outer scope")
	}
}

// TestLoopAllocsFlat pins that interpreting a declaration-free loop
// body allocates nothing per iteration: entering a block without
// declarations pushes no scope and copies no thread state.
func TestLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) float64 {
		prog := parse(t, `
int main() {
  int s = 0;
  for (int i = 0; i < `+strconv.Itoa(n)+`; i++) { s = s + i; }
  return s;
}`)
		return testing.AllocsPerRun(20, func() { Run(prog, Config{}) })
	}
	const n = 2000
	small, large := allocs(n), allocs(2*n)
	// A run's fixed set-up can vary by a few objects with goroutine
	// scheduling; one object per iteration would add n.
	if large-small > 10 {
		t.Fatalf("allocations grow with the iteration count: %.0f at %d iterations, %.0f at %d", small, n, large, 2*n)
	}
}

// TestRedeclarationKeepsOneBinding pins that redeclaring a name in the
// same scope replaces its binding: an unbraced loop body that declares
// neither grows the enclosing scope nor allocates per iteration.
func TestRedeclarationKeepsOneBinding(t *testing.T) {
	e := newEnv(nil)
	e.declare("y", false, false, intVal(7))
	for i := 0; i < 100000; i++ {
		e.declare("x", false, false, intVal(float64(i)))
	}
	if len(e.vars) != 2 {
		t.Fatalf("scope holds %d bindings after 100000 redeclarations, want 2", len(e.vars))
	}
	if got := e.lookup("x").load().Int(); got != 99999 {
		t.Fatalf("x = %d, want the last declaration's 99999", got)
	}
	if got := e.lookup("y").load().Int(); got != 7 {
		t.Fatalf("y = %d, want 7", got)
	}
	// A redeclaration takes the new declared type.
	e.declare("x", true, false, floatVal(2.5))
	if v := e.lookup("x").load(); !v.IsFloat || v.Num != 2.5 {
		t.Fatalf("x redeclared double = %v, want 2.5", v)
	}

	src := func(n int) string {
		return `
int main() {
  int i = 0;
  while (i < ` + strconv.Itoa(n) + `) int x = (i = i + 1);
  return x;
}`
	}
	if got := exitOf(t, src(100000)); got != 100000 {
		t.Fatalf("x after the loop = %d, want 100000", got)
	}
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	allocs := func(n int) float64 {
		prog := parse(t, src(n))
		return testing.AllocsPerRun(20, func() { Run(prog, Config{}) })
	}
	const n = 2000
	small, large := allocs(n), allocs(2*n)
	if large-small > 10 {
		t.Fatalf("allocations grow with redeclarations: %.0f at %d iterations, %.0f at %d", small, n, large, 2*n)
	}
}

// TestShadowingResolvesNewestFirst pins lookup order: the innermost
// declaration wins across nested blocks, over private copies and over
// reduction accumulators, and each outer binding is visible again once
// its shadow's block ends.
func TestShadowingResolvesNewestFirst(t *testing.T) {
	got := exitOf(t, `
int main() {
  int a = 1;
  int s = 0;
  int p = 5;
  int r = 0;
  {
    int a = 2;
    {
      int a = 3;
      r = r * 10 + a;
    }
    r = r * 10 + a;
  }
  r = r * 10 + a;
  #pragma omp parallel num_threads(2) private(p) reduction(+: s)
  {
    p = 40;
    s = 1;
    {
      int p = 7;
      int s = 100;
      s = s + p;
    }
    s = s + p;
  }
  return r * 1000 + s * 10 + p % 10;
}`)
	// r = 321; each thread's accumulator ends at 41 (the inner s and p
	// shadow and vanish), so s = 82; the outer p stays 5.
	if want := 321*1000 + 82*10 + 5; got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}
