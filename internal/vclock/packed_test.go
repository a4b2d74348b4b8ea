package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// snapshot returns an O(1) frozen view of the clock sharing its slice,
// with the own epoch left out-of-line: a valid comparison operand but
// not a valid Adopt source (Publish bakes the epoch in).
func (c *Packed) snapshot() *Packed {
	c.frozen = true
	return &Packed{sp: c.sp, base: c.base, frozen: true, own: c.own, ownV: c.ownV}
}

func TestPropJoinAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a, b, c := randVC(r), randVC(r), randVC(r)
		// (a ⊔ b) ⊔ c
		left := a.Copy()
		left.Join(b)
		left.Join(c)
		// a ⊔ (b ⊔ c)
		bc := b.Copy()
		bc.Join(c)
		right := a.Copy()
		right.Join(bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEpochConsistentWithLeq(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		a, b := randVC(r), randVC(r)
		for tid := TID(0); tid < 4; tid++ {
			e := EpochOf(a, tid)
			// The epoch is one component of a; a.Leq(b) means every
			// component passed, so every epoch of a must pass too.
			if a.Leq(b) && !e.Leq(b) {
				return false
			}
			// And the epoch test must agree with the component it
			// projects.
			if e.Leq(b) != (a.Get(tid) <= b.Get(tid)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// toPacked interns a reference clock into a space as an accumulator.
func toPacked(sp *Space, c VC) *Packed {
	p := sp.Acc()
	for t, v := range c {
		q := sp.Clock(t)
		for i := uint64(0); i < v; i++ {
			q.Tick()
		}
		p.Join(q)
	}
	return p
}

// TestPropPackedAlgebraMatchesVC converts random reference clocks to
// packed form and checks the relational algebra agrees. (The deeper
// operation-stream equivalence lives in internal/difftest; this is
// the in-package smoke version.)
func TestPropPackedAlgebraMatchesVC(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		sp := NewSpace()
		a, b := randVC(r), randVC(r)
		pa, pb := toPacked(sp, a), toPacked(sp, b)
		if !pa.ToVC().Equal(a) || !pb.ToVC().Equal(b) {
			return false
		}
		if pa.Leq(pb) != a.Leq(b) || pb.Leq(pa) != b.Leq(a) {
			return false
		}
		if pa.Concurrent(pb) != a.Concurrent(b) || pa.Equal(pb) != a.Equal(b) {
			return false
		}
		pt, pok := pa.ExceedsAt(pb)
		rt, rok := a.ExceedsAt(b)
		if pok != rok || (pok && pt != rt) {
			return false
		}
		return pa.String() == a.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedSnapshotIsImmutable(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(1)
	c.Tick()
	c.Tick()
	snap := c.snapshot()
	want := snap.String()
	c.Tick()
	other := sp.Clock(2)
	other.Tick()
	c.Join(other.Publish())
	if snap.String() != want {
		t.Fatalf("snapshot mutated by owner activity: %s, want %s", snap, want)
	}
	if got := c.Get(1); got != 3 {
		t.Fatalf("owner component after snapshot = %d, want 3", got)
	}
}

func TestPackedAdoptEqualsJoin(t *testing.T) {
	sp := NewSpace()
	a, b := sp.Clock(1), sp.Clock(2)
	b.Tick()
	b.Tick()
	a.Tick()
	pub := b.Publish()
	// a has its own component only, so adopting b's published clock
	// must succeed and equal the join.
	ref := a.ToVC()
	ref.Join(b.ToVC())
	if !a.Adopt(pub) {
		t.Fatal("Adopt refused a dominated clock")
	}
	if !a.ToVC().Equal(ref) {
		t.Fatalf("Adopt result %s, want join result %s", a, ref)
	}
	// Now a has foreign knowledge b lacks; adopting a stale published
	// view must refuse and leave a unchanged.
	c := sp.Clock(3)
	c.Tick()
	a.Join(c.Publish())
	before := a.String()
	if a.Adopt(pub) {
		t.Fatal("Adopt accepted a clock missing foreign components")
	}
	if a.String() != before {
		t.Fatalf("failed Adopt mutated the clock: %s, want %s", a, before)
	}
}

func TestPackedAdoptRefusesUnbakedEpoch(t *testing.T) {
	sp := NewSpace()
	a, b := sp.Clock(1), sp.Clock(2)
	b.Tick()
	// A raw snapshot (epoch not baked into the slice) is not a valid
	// adoption source: the foreign own component would be lost.
	if a.Adopt(b.snapshot()) {
		t.Fatal("Adopt accepted an unbaked snapshot")
	}
	if !a.Adopt(b.Publish()) {
		t.Fatal("Adopt refused the published form of the same clock")
	}
	if got := a.Get(2); got != 1 {
		t.Fatalf("adopted component = %d, want 1", got)
	}
}

func TestPackedAccumulatorTickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Tick on an accumulator did not panic")
		}
	}()
	NewSpace().Acc().Tick()
}

func TestPackedComponentsMatchesMapWidth(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(7)
	if c.Components() != 0 {
		t.Fatalf("fresh clock has %d components", c.Components())
	}
	c.Tick()
	if c.Components() != 1 {
		t.Fatalf("ticked clock has %d components, want 1", c.Components())
	}
	d := sp.Clock(9)
	d.Tick()
	c.Join(d.Publish())
	if got, want := c.Components(), len(c.ToVC()); got != want {
		t.Fatalf("Components() = %d, map width = %d", got, want)
	}
}
