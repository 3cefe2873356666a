package core

// The scan-based reference oracle for Availability: a flat count array
// whose every query is a fresh full O(numPieces) scan, kept as the ground
// truth for the index's deferred stats refresh. If the two ever disagree
// the refresh bookkeeping — not the oracle — is wrong.

import (
	"math/rand"
	"testing"

	"rarestfirst/internal/bitfield"
)

// availOracle mirrors Availability's semantics with brute-force scans.
type availOracle struct {
	counts []int
	peers  int
}

func newAvailOracle(n int) *availOracle {
	return &availOracle{counts: make([]int, n)}
}

func (o *availOracle) Inc(i int) { o.counts[i]++ }
func (o *availOracle) Dec(i int) {
	if o.counts[i] == 0 {
		panic("oracle: negative count")
	}
	o.counts[i]--
}

func (o *availOracle) AddPeer(b *bitfield.Bitfield) {
	o.peers++
	b.Range(func(i int) bool { o.Inc(i); return true })
}

func (o *availOracle) RemovePeer(b *bitfield.Bitfield) {
	o.peers--
	b.Range(func(i int) bool { o.Dec(i); return true })
}

func (o *availOracle) MinCount() int {
	if len(o.counts) == 0 {
		return 0
	}
	min := o.counts[0]
	for _, c := range o.counts {
		if c < min {
			min = c
		}
	}
	return min
}

func (o *availOracle) RarestSetSize() int {
	min, k := o.MinCount(), 0
	for _, c := range o.counts {
		if c == min {
			k++
		}
	}
	return k
}

func (o *availOracle) Stats() (int, float64, int) {
	n := len(o.counts)
	if n == 0 {
		return 0, 0, 0
	}
	min, max, sum := o.counts[0], o.counts[0], 0
	for _, c := range o.counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		sum += c
	}
	return min, float64(sum) / float64(n), max
}

// checkAgainstOracle compares every query surface of a and o. The stats
// queries run after the counts are read back, so each one exercises a
// refresh over whatever updates preceded it.
func checkAgainstOracle(t *testing.T, a *Availability, o *availOracle) {
	t.Helper()
	n := len(o.counts)
	if a.NumPieces() != n {
		t.Fatalf("NumPieces = %d, want %d", a.NumPieces(), n)
	}
	if a.Peers() != o.peers {
		t.Fatalf("Peers = %d, want %d", a.Peers(), o.peers)
	}
	for i := 0; i < n; i++ {
		if a.Count(i) != o.counts[i] {
			t.Fatalf("Count(%d) = %d, want %d", i, a.Count(i), o.counts[i])
		}
	}
	if got, want := a.MinCount(), o.MinCount(); got != want {
		t.Fatalf("MinCount = %d, want %d", got, want)
	}
	if got, want := a.RarestSetSize(), o.RarestSetSize(); got != want {
		t.Fatalf("RarestSetSize = %d, want %d", got, want)
	}
	amin, amean, amax := a.Stats()
	omin, omean, omax := o.Stats()
	if amin != omin || amean != omean || amax != omax {
		t.Fatalf("Stats = (%d, %v, %d), want (%d, %v, %d)", amin, amean, amax, omin, omean, omax)
	}
	if a.dirty {
		t.Fatal("stats still marked dirty after a query")
	}
}

// randomBitfield returns a bitfield over n pieces with each bit set with
// probability p.
func randomBitfield(rng *rand.Rand, n int, p float64) *bitfield.Bitfield {
	b := bitfield.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

// opState pairs the resident peer bitfields with the per-piece credit of
// standalone Incs (HAVE messages), so Dec only ever undoes an Inc and
// RemovePeer only ever undoes an AddPeer — the pairing every caller in
// the repo maintains.
type opState struct {
	held  []*bitfield.Bitfield
	extra []int
}

// applyRandomOp mutates both implementations identically and returns a
// human-readable name for failure messages.
func applyRandomOp(rng *rand.Rand, a *Availability, o *availOracle, st *opState) string {
	n := len(o.counts)
	switch op := rng.Intn(4); {
	case op == 0 && n > 0: // Inc (a HAVE message)
		i := rng.Intn(n)
		st.extra[i]++
		a.Inc(i)
		o.Inc(i)
		return "Inc"
	case op == 1 && n > 0: // Dec a piece with standalone-Inc credit, if any
		start := rng.Intn(n)
		for k := 0; k < n; k++ {
			i := (start + k) % n
			if st.extra[i] > 0 {
				st.extra[i]--
				a.Dec(i)
				o.Dec(i)
				return "Dec"
			}
		}
		return "Dec-noop"
	case op == 2: // AddPeer
		b := randomBitfield(rng, n, rng.Float64())
		st.held = append(st.held, b)
		a.AddPeer(b)
		o.AddPeer(b)
		return "AddPeer"
	default: // RemovePeer
		if len(st.held) == 0 {
			return "RemovePeer-noop"
		}
		k := rng.Intn(len(st.held))
		b := st.held[k]
		st.held[k] = st.held[len(st.held)-1]
		st.held = st.held[:len(st.held)-1]
		a.RemovePeer(b)
		o.RemovePeer(b)
		return "RemovePeer"
	}
}

// TestAvailabilityMatchesOracle drives random Inc/Dec/AddPeer/RemovePeer
// sequences over several sizes and compares every query against the
// scan-based oracle after each operation.
func TestAvailabilityMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		a := NewAvailability(n)
		o := newAvailOracle(n)
		st := &opState{extra: make([]int, n)}
		checkAgainstOracle(t, a, o)
		for step := 0; step < 600; step++ {
			op := applyRandomOp(rng, a, o, st)
			if t.Failed() {
				t.Fatalf("n=%d step=%d after %s", n, step, op)
			}
			checkAgainstOracle(t, a, o)
		}
	}
}

// TestAvailabilityFlashCrowdChurn is the churn-heavy sequence: a flash
// crowd of peers joins (mass AddPeer), then departs en masse in random
// order — the arrival/departure pattern that drags the min and max
// counts across their full range in both directions, with dozens of
// whole-bitfield updates between stats refreshes.
func TestAvailabilityFlashCrowdChurn(t *testing.T) {
	const n, crowd = 128, 400
	rng := rand.New(rand.NewSource(7))
	a := NewAvailability(n)
	o := newAvailOracle(n)
	var held []*bitfield.Bitfield
	for k := 0; k < crowd; k++ {
		p := 0.05 + 0.9*rng.Float64()
		if k%10 == 0 {
			// Every tenth peer is a seed: full bitfields push the max
			// count up and keep MinCount pinned once every piece exists.
			p = 1.0
		}
		b := randomBitfield(rng, n, p)
		held = append(held, b)
		a.AddPeer(b)
		o.AddPeer(b)
		if k%37 == 0 {
			checkAgainstOracle(t, a, o)
		}
	}
	checkAgainstOracle(t, a, o)
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for k, b := range held {
		a.RemovePeer(b)
		o.RemovePeer(b)
		if k%37 == 0 {
			checkAgainstOracle(t, a, o)
		}
	}
	checkAgainstOracle(t, a, o)
	if a.MinCount() != 0 || a.RarestSetSize() != n {
		t.Fatalf("drained swarm: MinCount = %d, RarestSetSize = %d", a.MinCount(), a.RarestSetSize())
	}
}

// TestPickRarestAgainstOracle checks PickRarest's contract against the
// oracle: the returned piece must be wanted and have the minimum copy
// count among all wanted pieces, and -1 is returned exactly when nothing
// is wanted.
func TestPickRarestAgainstOracle(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(11))
	pick := rand.New(rand.NewSource(12))
	a := NewAvailability(n)
	o := newAvailOracle(n)
	st := &opState{extra: make([]int, n)}
	for step := 0; step < 400; step++ {
		applyRandomOp(rng, a, o, st)
		s := &PickState{
			Have:     randomBitfield(rng, n, 0.4),
			InFlight: randomBitfield(rng, n, 0.1),
			Remote:   randomBitfield(rng, n, 0.6),
		}
		got := a.PickRarest(pick, s)
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

// FuzzAvailabilityOps feeds byte-driven op sequences through both
// implementations and fails on any divergence. Bytes with the high bit
// set also query the index mid-sequence, interleaving stats refreshes with
// updates, and compare a PickRarest draw with the predicate reference.
func FuzzAvailabilityOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 130, 7, 7, 9})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%130 + 1
		a := NewAvailability(n)
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
				o.Inc(i)
			case 1:
				i := int(by/4) % n
				if extra[i] > 0 {
					extra[i]--
					a.Dec(i)
					o.Dec(i)
				}
			case 2:
				b := randomBitfield(rng, n, float64(by)/255)
				held = append(held, b)
				a.AddPeer(b)
				o.AddPeer(b)
			case 3:
				if len(held) > 0 {
					k := int(by/4) % len(held)
					b := held[k]
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					a.RemovePeer(b)
					o.RemovePeer(b)
				}
			}
			if by&0x80 != 0 {
				checkAgainstOracle(t, a, o)
				s := randomPickState(rng, n)
				seed := int64(by)
				got := a.PickRarest(rand.New(rand.NewSource(seed)), s)
				if want := pickRarestFunc(a, rand.New(rand.NewSource(seed)), s.wantFrom); got != want {
					t.Fatalf("PickRarest = %d, reference = %d", got, want)
				}
			}
		}
		checkAgainstOracle(t, a, o)
	})
}
