package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"home/internal/vclock"
)

// mirrored is a reference/packed clock pair driven by the same
// operation stream. Thread clocks own a TID; accumulator pairs mirror
// the detector's join/barrier accumulators (no owner).
type mirrored struct {
	tid vclock.TID // owner, or -1 for accumulators
	vc  vclock.VC
	pk  *vclock.Packed
}

// TestClockEquivalenceRandomHistories drives randomized histories of
// ticks, joins, snapshots, publications and adoptions through both
// clock implementations in lockstep and asserts the full observable
// algebra agrees: components, Leq, HappensBefore, Concurrent, Equal,
// ExceedsAt, the concurrency certificate and the rendered string.
func TestClockEquivalenceRandomHistories(t *testing.T) {
	withGOMAXPROCS(t, func(t *testing.T) {
		for h := 0; h < 30; h++ {
			h := h
			t.Run(fmt.Sprintf("history=%d", h), func(t *testing.T) {
				runClockHistory(t, int64(h)*7919+1)
			})
		}
	})
}

func runClockHistory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sp := vclock.NewSpace()

	// Sparse thread identities, like the detector's rank/tid packing.
	n := 2 + rng.Intn(10)
	pairs := make([]*mirrored, 0, n+3)
	for i := 0; i < n; i++ {
		tid := vclock.TID(i)*1024 + vclock.TID(rng.Intn(4))
		pairs = append(pairs, &mirrored{tid: tid, vc: vclock.New(), pk: sp.Clock(tid)})
	}
	threads := append([]*mirrored(nil), pairs...)
	for k := 0; k < 1+rng.Intn(3); k++ {
		pairs = append(pairs, &mirrored{tid: -1, vc: vclock.New(), pk: sp.Acc()})
	}
	accs := pairs[n:]

	check := func(m *mirrored, op string) {
		t.Helper()
		if got, want := m.pk.String(), m.vc.String(); got != want {
			t.Fatalf("seed %d after %s: packed %s, reference %s", seed, op, got, want)
		}
		if m.tid >= 0 {
			if got, want := m.pk.OwnV(), m.vc.Get(m.tid); got != want {
				t.Fatalf("seed %d after %s: own epoch %d, reference component %d", seed, op, got, want)
			}
		}
	}

	steps := 200 + rng.Intn(100)
	for s := 0; s < steps; s++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // tick a thread
			m := threads[rng.Intn(len(threads))]
			m.vc.Tick(m.tid)
			m.pk.Tick()
			check(m, "tick")
		case 4, 5: // full join between any two clocks
			a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
			if a == b {
				continue
			}
			a.vc.Join(b.vc)
			if rng.Intn(2) == 0 {
				a.pk.Join(b.pk)
			} else {
				a.pk.Join(b.pk.Publish())
			}
			check(a, "join")
		case 6, 7: // adopt-or-join from a published clock
			a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
			if a == b {
				continue
			}
			pub := b.pk.Publish()
			a.vc.Join(b.vc)
			if !a.pk.Adopt(pub) {
				a.pk.Join(pub)
			}
			check(a, "adopt")
			check(b, "publish")
		case 8: // accumulator absorbs a thread (barrier arrival)
			acc := accs[rng.Intn(len(accs))]
			m := threads[rng.Intn(len(threads))]
			acc.vc.Join(m.vc)
			if !acc.pk.Adopt(m.pk.Publish()) {
				acc.pk.Join(m.pk)
			}
			check(acc, "absorb")
		case 9: // thread absorbs an accumulator (barrier completion)
			acc := accs[rng.Intn(len(accs))]
			m := threads[rng.Intn(len(threads))]
			m.vc.Join(acc.vc)
			if !m.pk.Adopt(acc.pk.Publish()) {
				m.pk.Join(acc.pk)
			}
			check(m, "complete")
		}
		if s%25 == 0 || s == steps-1 {
			comparePairs(t, seed, s, pairs)
		}
	}
}

// comparePairs asserts the relational algebra agrees for every
// ordered clock pair.
func comparePairs(t *testing.T, seed int64, step int, pairs []*mirrored) {
	t.Helper()
	for i, a := range pairs {
		if got, want := a.pk.ToVC(), a.vc; !got.Equal(want) {
			t.Fatalf("seed %d step %d: clock %d diverged: packed %s, reference %s", seed, step, i, got, want)
		}
		// Unknown thread identities read as zero in both.
		if v := a.pk.Get(vclock.TID(1 << 40)); v != 0 {
			t.Fatalf("seed %d step %d: unknown TID reads %d", seed, step, v)
		}
		for j, b := range pairs {
			if i == j {
				continue
			}
			type rel struct {
				name    string
				pk, ref bool
			}
			rels := []rel{
				{"Leq", a.pk.Leq(b.pk), a.vc.Leq(b.vc)},
				{"HappensBefore", a.pk.HappensBefore(b.pk), a.vc.HappensBefore(b.vc)},
				{"Concurrent", a.pk.Concurrent(b.pk), a.vc.Concurrent(b.vc)},
				{"Equal", a.pk.Equal(b.pk), a.vc.Equal(b.vc)},
			}
			for _, r := range rels {
				if r.pk != r.ref {
					t.Fatalf("seed %d step %d: %s(%d,%d): packed %v, reference %v (%s vs %s)",
						seed, step, r.name, i, j, r.pk, r.ref, a.vc, b.vc)
				}
			}
			pt, pok := a.pk.ExceedsAt(b.pk)
			rt, rok := a.vc.ExceedsAt(b.vc)
			if pok != rok || (pok && pt != rt) {
				t.Fatalf("seed %d step %d: ExceedsAt(%d,%d): packed (%d,%v), reference (%d,%v)",
					seed, step, i, j, pt, pok, rt, rok)
			}
			pc, pcok := vclock.WhyConcurrentPacked(a.pk, b.pk)
			rc, rcok := vclock.WhyConcurrent(a.vc, b.vc)
			if pcok != rcok || pc != rc {
				t.Fatalf("seed %d step %d: certificate(%d,%d): packed (%+v,%v), reference (%+v,%v)",
					seed, step, i, j, pc, pcok, rc, rcok)
			}
			// The own-epoch shortcut must agree with the reference
			// epoch test (FastTrack consistency).
			if a.tid >= 0 {
				e := vclock.EpochOf(a.vc, a.tid)
				if got, want := a.pk.OwnV() <= b.pk.AtSlot(a.pk.OwnSlot()), e.Leq(b.vc); got != want {
					t.Fatalf("seed %d step %d: epoch Leq(%d,%d): packed %v, reference %v",
						seed, step, i, j, got, want)
				}
			}
		}
	}
}
