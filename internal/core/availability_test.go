package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rarestfirst/internal/bitfield"
)

func TestAvailabilityZero(t *testing.T) {
	a := NewAvailability(10)
	if a.NumPieces() != 10 || a.Peers() != 0 {
		t.Fatalf("fresh index wrong: %d pieces %d peers", a.NumPieces(), a.Peers())
	}
	if a.MinCount() != 0 || a.RarestSetSize() != 10 {
		t.Fatalf("fresh rarest set: min=%d size=%d", a.MinCount(), a.RarestSetSize())
	}
	min, mean, max := a.Stats()
	if min != 0 || mean != 0 || max != 0 {
		t.Fatalf("fresh stats: %d %f %d", min, mean, max)
	}
}

// TestMakeAvailabilityOverCallerStorage checks MakeAvailability: it
// zeroes the counts it is given, counts in place, and reports the
// capacity beyond them.
func TestMakeAvailabilityOverCallerStorage(t *testing.T) {
	block := []int{5, 5, 5, 9}
	a := MakeAvailability(block[:3:3])
	if a.NumPieces() != 3 || a.MinCount() != 0 || a.SpareCounts() != 0 {
		t.Fatalf("MakeAvailability over dirty counts: %d pieces, min %d, spare %d",
			a.NumPieces(), a.MinCount(), a.SpareCounts())
	}
	a.Inc(2)
	if block[2] != 1 || block[3] != 9 || a.Count(2) != 1 {
		t.Fatalf("Inc(2) left the block at %v", block)
	}
	if b := MakeAvailability(block[:2]); b.SpareCounts() != 2 {
		t.Fatalf("SpareCounts = %d over a slice with two counts of spare capacity", b.SpareCounts())
	}
	if NewAvailability(4).SpareCounts() != 0 {
		t.Fatal("NewAvailability's counts have spare capacity")
	}
}

func TestAvailabilityIncDec(t *testing.T) {
	a := NewAvailability(4)
	a.Inc(1)
	a.Inc(1)
	a.Inc(2)
	if a.Count(1) != 2 || a.Count(2) != 1 || a.Count(0) != 0 {
		t.Fatalf("counts: %d %d %d", a.Count(0), a.Count(1), a.Count(2))
	}
	if a.MinCount() != 0 || a.RarestSetSize() != 2 { // pieces 0 and 3
		t.Fatalf("min=%d rarest=%d", a.MinCount(), a.RarestSetSize())
	}
	a.Inc(0)
	a.Inc(3)
	if a.MinCount() != 1 || a.RarestSetSize() != 3 { // 0, 2, 3 have one copy
		t.Fatalf("min=%d rarest=%d", a.MinCount(), a.RarestSetSize())
	}
	a.Dec(1)
	a.Dec(1)
	if a.Count(1) != 0 || a.MinCount() != 0 || a.RarestSetSize() != 1 {
		t.Fatalf("after dec: count=%d min=%d rarest=%d", a.Count(1), a.MinCount(), a.RarestSetSize())
	}
}

func TestAvailabilityDecBelowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dec below zero did not panic")
		}
	}()
	NewAvailability(2).Dec(0)
}

func TestAvailabilityAddRemovePeer(t *testing.T) {
	a := NewAvailability(6)
	b1 := bitfield.New(6)
	b1.Set(0)
	b1.Set(3)
	b2 := bitfield.New(6)
	b2.Set(3)
	b2.Set(5)
	a.AddPeer(b1)
	a.AddPeer(b2)
	if a.Peers() != 2 || a.Count(3) != 2 || a.Count(0) != 1 || a.Count(5) != 1 {
		t.Fatalf("after add: peers=%d counts=%v", a.Peers(), []int{a.Count(0), a.Count(3), a.Count(5)})
	}
	a.RemovePeer(b1)
	if a.Peers() != 1 || a.Count(3) != 1 || a.Count(0) != 0 {
		t.Fatalf("after remove: peers=%d", a.Peers())
	}
}

func TestAvailabilityRarestSet(t *testing.T) {
	a := NewAvailability(5)
	for i := 0; i < 5; i++ {
		a.Inc(i)
	}
	a.Inc(0)
	a.Inc(1)
	if a.MinCount() != 1 || a.RarestSetSize() != 3 {
		t.Fatalf("min=%d rarest=%d, want 1 and 3", a.MinCount(), a.RarestSetSize())
	}
	// With every piece wanted, picks cover exactly the rarest set {2, 3, 4}.
	rng := rand.New(rand.NewSource(4))
	picked := map[int]bool{}
	for k := 0; k < 200; k++ {
		picked[pickRarestFunc(a, rng, func(int) bool { return true })] = true
	}
	if len(picked) != 3 || !picked[2] || !picked[3] || !picked[4] {
		t.Fatalf("picks over all pieces hit %v, want {2, 3, 4}", picked)
	}
}

func TestAvailabilityStats(t *testing.T) {
	a := NewAvailability(4)
	// counts: 0, 1, 2, 5
	a.Inc(1)
	a.Inc(2)
	a.Inc(2)
	for i := 0; i < 5; i++ {
		a.Inc(3)
	}
	min, mean, max := a.Stats()
	if min != 0 || max != 5 || mean != 2 {
		t.Fatalf("stats = %d %f %d", min, mean, max)
	}
}

func TestPickRarestPrefersLowestBucket(t *testing.T) {
	a := NewAvailability(4)
	a.Inc(0) // piece 0: 1 copy
	a.Inc(1)
	a.Inc(1) // piece 1: 2 copies
	a.Inc(2) // piece 2: 1 copy
	a.Inc(3)
	a.Inc(3)
	a.Inc(3) // piece 3: 3 copies
	rng := rand.New(rand.NewSource(1))
	// All pieces wanted: must pick among {0, 2} (count 1).
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		got := pickRarestFunc(a, rng, func(int) bool { return true })
		counts[got]++
	}
	if counts[1] > 0 || counts[3] > 0 {
		t.Fatalf("picked non-rarest pieces: %v", counts)
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Fatalf("random tie-break not uniform-ish: %v", counts)
	}
}

func TestPickRarestRespectsWantFilter(t *testing.T) {
	a := NewAvailability(3)
	a.Inc(0) // rarest among wanted will be 1 (count 1) though 0 has count 1 too
	a.Inc(1)
	a.Inc(2)
	a.Inc(2)
	rng := rand.New(rand.NewSource(2))
	got := pickRarestFunc(a, rng, func(i int) bool { return i == 2 })
	if got != 2 {
		t.Fatalf("picked %d, want 2", got)
	}
	if got := pickRarestFunc(a, rng, func(i int) bool { return false }); got != -1 {
		t.Fatalf("picked %d from empty want set", got)
	}
}

func TestPickRarestSkipsEmptyLowBucketForWanted(t *testing.T) {
	// Piece 0 has 0 copies but is not wanted (we can't download what no
	// one in the peer set has); the pick must fall through to count-1.
	a := NewAvailability(3)
	a.Inc(1)
	a.Inc(2)
	a.Inc(2)
	rng := rand.New(rand.NewSource(3))
	got := pickRarestFunc(a, rng, func(i int) bool { return i != 0 })
	if got != 1 {
		t.Fatalf("picked %d, want 1 (the rarest available)", got)
	}
}

// Property: after any sequence of Inc/Dec, the refreshed stats match a
// naive recomputation.
func TestQuickAvailabilityConsistency(t *testing.T) {
	f := func(ops []uint16, nSeed uint8) bool {
		n := int(nSeed)%50 + 1
		a := NewAvailability(n)
		naive := make([]int, n)
		for _, op := range ops {
			i := int(op>>1) % n
			if op&1 == 0 {
				a.Inc(i)
				naive[i]++
			} else if naive[i] > 0 {
				a.Dec(i)
				naive[i]--
			}
		}
		minNaive := naive[0]
		rarest := 0
		for _, c := range naive {
			if c < minNaive {
				minNaive = c
			}
		}
		for i, c := range naive {
			if a.Count(i) != c {
				return false
			}
			if c == minNaive {
				rarest++
			}
		}
		return a.MinCount() == minNaive && a.RarestSetSize() == rarest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAvailabilityZeroAlloc pins the property the flat-count index rests
// on: no update or query on a populated index allocates. Each op is
// balanced by the one after it (Inc then Dec, AddPeer then RemovePeer),
// so the index ends as it started.
func TestAvailabilityZeroAlloc(t *testing.T) {
	const n = 1393
	rng := rand.New(rand.NewSource(5))
	a := NewAvailability(n)
	for k := 0; k < 8; k++ {
		a.AddPeer(randomBitfield(rng, n, 0.5))
	}
	joiner := randomBitfield(rng, n, 0.5)
	s := &PickState{Have: randomBitfield(rng, n, 0.3), InFlight: bitfield.New(n), Remote: randomBitfield(rng, n, 0.7)}
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Inc", func() { a.Inc(7) }},
		{"Dec", func() { a.Dec(7) }},
		{"AddPeer", func() { a.AddPeer(joiner) }},
		{"RemovePeer", func() { a.RemovePeer(joiner) }},
		{"PickRarest", func() { a.PickRarest(rng, s) }},
		{"Stats", func() { a.dirty = true; a.Stats() }}, // force the refresh scan
	} {
		if allocs := testing.AllocsPerRun(100, op.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", op.name, allocs)
		}
	}
}

func BenchmarkAvailabilityIncDec(b *testing.B) {
	a := NewAvailability(1393)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := i % 1393
		a.Inc(p)
		if i%2 == 1 {
			a.Dec(p)
		}
	}
}

func BenchmarkPickRarest(b *testing.B) {
	a := NewAvailability(1393)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1393; i++ {
		for j := rng.Intn(40); j > 0; j-- {
			a.Inc(i)
		}
	}
	remote := bitfield.New(1393)
	for i := 0; i < 1393; i += 2 {
		remote.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickRarestFunc(a, rng, remote.Has)
	}
}
