package core

// SetLazy property tests. Flat counts are the only availability mode, and
// SetLazy(true) — still called by callers written for the two-mode index —
// must leave an index that answers every query, and every PickRarest draw,
// exactly like a fresh NewAvailability. These reuse the oracle harness from
// availability_oracle_test.go and pair each lazy index with a plain twin.

import (
	"math/rand"
	"testing"

	"rarestfirst/internal/bitfield"
)

// newLazyAvailability returns an index over n pieces with SetLazy(true)
// applied, as a caller written for the two-mode index builds it.
func newLazyAvailability(n int) *Availability {
	a := NewAvailability(n)
	a.SetLazy(true)
	return a
}

// checkTwins fails unless a and b agree on every query surface.
func checkTwins(t *testing.T, a, b *Availability) {
	t.Helper()
	if a.NumPieces() != b.NumPieces() || a.Peers() != b.Peers() {
		t.Fatalf("twin shape: (%d pieces, %d peers) vs (%d pieces, %d peers)",
			a.NumPieces(), a.Peers(), b.NumPieces(), b.Peers())
	}
	for i := 0; i < a.NumPieces(); i++ {
		if a.Count(i) != b.Count(i) {
			t.Fatalf("twin Count(%d): %d vs %d", i, a.Count(i), b.Count(i))
		}
	}
	amin, amean, amax := a.Stats()
	bmin, bmean, bmax := b.Stats()
	if amin != bmin || amean != bmean || amax != bmax || a.RarestSetSize() != b.RarestSetSize() {
		t.Fatalf("twin stats: (%d, %v, %d, rarest %d) vs (%d, %v, %d, rarest %d)",
			amin, amean, amax, a.RarestSetSize(), bmin, bmean, bmax, b.RarestSetSize())
	}
}

// TestLazyAvailabilityMatchesOracle drives random Inc/Dec/AddPeer/
// RemovePeer sequences through a SetLazy index and the scan oracle, and
// mirrors every resulting count onto a twin updated through Inc and Dec
// alone. The twin reaches the same counts by a different update path
// (no whole-bitfield AddPeer/RemovePeer), so the two must report the same
// stats after every operation.
func TestLazyAvailabilityMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257} {
		rng := rand.New(rand.NewSource(int64(2000 + n)))
		a := newLazyAvailability(n)
		o := newAvailOracle(n)
		twin := NewAvailability(n)
		st := &opState{extra: make([]int, n)}
		checkAgainstOracle(t, a, o)
		for step := 0; step < 600; step++ {
			op := applyRandomOp(rng, a, o, st)
			for i := 0; i < n; i++ {
				for twin.Count(i) < o.counts[i] {
					twin.Inc(i)
				}
				for twin.Count(i) > o.counts[i] {
					twin.Dec(i)
				}
			}
			if t.Failed() {
				t.Fatalf("n=%d step=%d after %s", n, step, op)
			}
			checkAgainstOracle(t, a, o)
			le, _, _ := a.Stats()
			te, _, _ := twin.Stats()
			if le != te || a.MinCount() != twin.MinCount() || a.RarestSetSize() != twin.RarestSetSize() {
				t.Fatalf("n=%d step=%d: index (min %d, rarest %d) != count-replay twin (min %d, rarest %d)",
					n, step, a.MinCount(), a.RarestSetSize(), twin.MinCount(), twin.RarestSetSize())
			}
		}
	}
}

// TestLazyAvailabilityFlashCrowdChurn replays the churn-heavy
// mass-join/mass-depart sequence on a SetLazy index and a plain twin,
// checking the lazy one against the oracle and the two against each other.
func TestLazyAvailabilityFlashCrowdChurn(t *testing.T) {
	const n, crowd = 128, 400
	rng := rand.New(rand.NewSource(7))
	a := newLazyAvailability(n)
	twin := NewAvailability(n)
	o := newAvailOracle(n)
	var held []*bitfield.Bitfield
	for k := 0; k < crowd; k++ {
		p := 0.05 + 0.9*rng.Float64()
		if k%10 == 0 {
			p = 1.0
		}
		b := randomBitfield(rng, n, p)
		held = append(held, b)
		a.AddPeer(b)
		twin.AddPeer(b)
		o.AddPeer(b)
		if k%37 == 0 {
			checkAgainstOracle(t, a, o)
			checkTwins(t, a, twin)
		}
	}
	checkAgainstOracle(t, a, o)
	checkTwins(t, a, twin)
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for k, b := range held {
		a.RemovePeer(b)
		twin.RemovePeer(b)
		o.RemovePeer(b)
		if k%37 == 0 {
			checkAgainstOracle(t, a, o)
			checkTwins(t, a, twin)
		}
	}
	checkAgainstOracle(t, a, o)
	checkTwins(t, a, twin)
	if a.MinCount() != 0 || a.RarestSetSize() != n {
		t.Fatalf("drained swarm: MinCount = %d, RarestSetSize = %d", a.MinCount(), a.RarestSetSize())
	}
}

// TestLazyPickRarestAgainstOracle checks PickRarest on a SetLazy index:
// the pick must be wanted and minimal-count among wanted pieces, and it
// must equal a plain twin's pick drawn from an identically seeded source.
func TestLazyPickRarestAgainstOracle(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(11))
	pick := rand.New(rand.NewSource(12))
	twinPick := rand.New(rand.NewSource(12))
	a := newLazyAvailability(n)
	twin := NewAvailability(n)
	o := newAvailOracle(n)
	st := &opState{extra: make([]int, n)}
	for step := 0; step < 400; step++ {
		applyRandomOp(rng, a, o, st)
		for i := 0; i < n; i++ {
			for twin.Count(i) < o.counts[i] {
				twin.Inc(i)
			}
			for twin.Count(i) > o.counts[i] {
				twin.Dec(i)
			}
		}
		s := &PickState{
			Have:     randomBitfield(rng, n, 0.4),
			InFlight: randomBitfield(rng, n, 0.1),
			Remote:   randomBitfield(rng, n, 0.6),
		}
		got := a.PickRarest(pick, s)
		if tg := twin.PickRarest(twinPick, s); tg != got {
			t.Fatalf("step %d: picked %d, plain twin picked %d", step, got, tg)
		}
		wantMin, any := 0, false
		for i := 0; i < n; i++ {
			if s.Remote.Has(i) && !s.Have.Has(i) && !s.InFlight.Has(i) {
				if !any || o.counts[i] < wantMin {
					wantMin, any = o.counts[i], true
				}
			}
		}
		if !any {
			if got != -1 {
				t.Fatalf("step %d: picked %d with nothing wanted", step, got)
			}
			continue
		}
		if got < 0 || !s.Remote.Has(got) || s.Have.Has(got) || s.InFlight.Has(got) {
			t.Fatalf("step %d: picked unwanted piece %d", step, got)
		}
		if o.counts[got] != wantMin {
			t.Fatalf("step %d: picked count %d, rarest wanted count is %d", step, o.counts[got], wantMin)
		}
	}
}

// FuzzLazyAvailabilityOps is the byte-driven fuzz twin of
// FuzzAvailabilityOps on a SetLazy index, with a plain index fed the same
// ops and compared at the end.
func FuzzLazyAvailabilityOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 130, 7, 7, 9})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%130 + 1
		a := newLazyAvailability(n)
		twin := NewAvailability(n)
		o := newAvailOracle(n)
		extra := make([]int, n)
		var held []*bitfield.Bitfield
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, by := range data[1:] {
			switch by % 4 {
			case 0:
				i := int(by/4) % n
				extra[i]++
				a.Inc(i)
				twin.Inc(i)
				o.Inc(i)
			case 1:
				i := int(by/4) % n
				if extra[i] > 0 {
					extra[i]--
					a.Dec(i)
					twin.Dec(i)
					o.Dec(i)
				}
			case 2:
				b := randomBitfield(rng, n, float64(by)/255)
				held = append(held, b)
				a.AddPeer(b)
				twin.AddPeer(b)
				o.AddPeer(b)
			case 3:
				if len(held) > 0 {
					k := int(by/4) % len(held)
					b := held[k]
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					a.RemovePeer(b)
					twin.RemovePeer(b)
					o.RemovePeer(b)
				}
			}
		}
		checkAgainstOracle(t, a, o)
		checkTwins(t, a, twin)
	})
}
