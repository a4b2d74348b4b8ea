package interp

import (
	"fmt"
	"math"
	"sync"

	"home/internal/mpi"
)

// Value is a MiniHPC runtime value: a number (int or double), an
// array reference, or an MPI request handle. Communicators and status
// handles are numbers.
type Value struct {
	Num     float64
	IsFloat bool

	// Arr is non-nil for array values; ArrMu guards concurrent
	// element access (arrays are shared across OpenMP threads).
	Arr   []float64
	ArrMu *sync.Mutex

	// Req is non-nil for MPI_Request values.
	Req *mpi.Request
}

// intVal builds an integer-typed number.
func intVal(n float64) Value { return Value{Num: math.Trunc(n)} }

// floatVal builds a double-typed number.
func floatVal(n float64) Value { return Value{Num: n, IsFloat: true} }

// boolVal encodes a C truth value.
func boolVal(b bool) Value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// Truthy reports C truthiness.
func (v Value) Truthy() bool { return v.Num != 0 }

// Int returns the value as an int (trunc).
func (v Value) Int() int { return int(v.Num) }

func (v Value) String() string {
	switch {
	case v.Req != nil:
		return fmt.Sprintf("request#%d", v.Req.ID)
	case v.Arr != nil:
		return fmt.Sprintf("array[%d]", len(v.Arr))
	case v.IsFloat:
		return fmt.Sprintf("%g", v.Num)
	default:
		return fmt.Sprintf("%d", int64(v.Num))
	}
}

// cell is one variable's storage. The mutex keeps concurrent access
// by simulated threads well-defined at the host level (the simulated
// program may still race in the MiniHPC semantics — that is exactly
// what the detectors look for).
type cell struct {
	mu      sync.Mutex
	v       Value
	isFloat bool // declared type coercion target
	isArray bool
}

func (c *cell) load() Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *cell) store(v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isArray && v.Arr == nil && v.Req == nil {
		if c.isFloat {
			v = floatVal(v.Num)
		} else {
			v = intVal(v.Num)
		}
	}
	c.v = v
}

// env is a lexical scope chain, pushed and popped in place by its
// thread. Each scope is a short slice of bindings scanned newest-first,
// so a lookup compares names and hashes nothing. Lookup is lock-free
// (other threads only read a thread's scopes, while it waits at a
// join), while cell contents are mutex guarded.
type env struct {
	parent *env
	vars   []binding
}

// binding names one variable's cell in a scope.
type binding struct {
	name string
	c    *cell
}

func newEnv(parent *env) *env { return &env{parent: parent} }

// lookup finds a variable cell, walking outward.
func (e *env) lookup(name string) *cell {
	for s := e; s != nil; s = s.parent {
		for i := len(s.vars) - 1; i >= 0; i-- {
			if s.vars[i].name == name {
				return s.vars[i].c
			}
		}
	}
	return nil
}

// declare creates a variable in this scope (shadowing outer scopes).
// Redeclaring a name of this scope reuses its binding and its cell, as
// a compiler reuses the variable's storage, so a loop whose unbraced
// body declares neither grows the scope nor allocates.
func (e *env) declare(name string, isFloat, isArray bool, v Value) *cell {
	for _, b := range e.vars {
		if b.name == name {
			b.c.mu.Lock()
			b.c.isFloat, b.c.isArray = isFloat, isArray
			b.c.mu.Unlock()
			b.c.store(v)
			return b.c
		}
	}
	c := &cell{isFloat: isFloat, isArray: isArray}
	c.store(v)
	e.vars = append(e.vars, binding{name, c})
	return c
}

// constants are predeclared identifiers resolved when no variable
// shadows them.
var constants = map[string]Value{
	"MPI_COMM_WORLD":        intVal(float64(mpi.CommWorld)),
	"MPI_ANY_SOURCE":        intVal(mpi.AnySource),
	"MPI_ANY_TAG":           intVal(mpi.AnyTag),
	"MPI_THREAD_SINGLE":     intVal(mpi.ThreadSingle),
	"MPI_THREAD_FUNNELED":   intVal(mpi.ThreadFunneled),
	"MPI_THREAD_SERIALIZED": intVal(mpi.ThreadSerialized),
	"MPI_THREAD_MULTIPLE":   intVal(mpi.ThreadMultiple),
	"MPI_SUM":               intVal(float64(mpi.OpSum)),
	"MPI_PROD":              intVal(float64(mpi.OpProd)),
	"MPI_MAX":               intVal(float64(mpi.OpMax)),
	"MPI_MIN":               intVal(float64(mpi.OpMin)),
	"MPI_STATUS_IGNORE":     intVal(0),
	"NULL":                  intVal(0),
}
