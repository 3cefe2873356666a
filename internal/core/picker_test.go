package core

import (
	"math/rand"
	"testing"

	"rarestfirst/internal/bitfield"
)

// pickEnv builds a PickState with the given owned/in-flight/remote pieces.
func pickEnv(n int, have, inflight, remote []int, downloaded int) *PickState {
	h, f, r := bitfield.New(n), bitfield.New(n), bitfield.New(n)
	for _, i := range have {
		h.Set(i)
	}
	for _, i := range inflight {
		f.Set(i)
	}
	for _, i := range remote {
		r.Set(i)
	}
	return &PickState{Have: h, InFlight: f, Remote: r, Downloaded: downloaded}
}

func TestRandomPickerUniform(t *testing.T) {
	s := pickEnv(10, []int{0}, []int{1}, []int{0, 1, 2, 3, 4}, 1)
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		got := RandomPicker{}.Pick(rng, s)
		counts[got]++
	}
	// Only 2, 3, 4 are eligible (0 owned, 1 in flight).
	if counts[0] > 0 || counts[1] > 0 {
		t.Fatalf("picked ineligible pieces: %v", counts)
	}
	for _, i := range []int{2, 3, 4} {
		if counts[i] < 800 || counts[i] > 1200 {
			t.Fatalf("non-uniform pick distribution: %v", counts)
		}
	}
}

func TestRandomPickerExhausted(t *testing.T) {
	s := pickEnv(3, []int{0, 1, 2}, nil, []int{0, 1, 2}, 3)
	if got := (RandomPicker{}).Pick(rand.New(rand.NewSource(1)), s); got != -1 {
		t.Fatalf("picked %d from nothing", got)
	}
}

func TestSequentialPicker(t *testing.T) {
	s := pickEnv(6, []int{0}, []int{1}, []int{0, 1, 2, 5}, 1)
	if got := (SequentialPicker{}).Pick(nil, s); got != 2 {
		t.Fatalf("sequential picked %d, want 2", got)
	}
}

func TestRarestFirstUsesRandomFirstPolicy(t *testing.T) {
	// With fewer than 4 downloaded pieces the pick must be random, i.e. it
	// must NOT always choose the rarest piece.
	a := NewAvailability(20)
	// Piece 0 is the rarest (1 copy); the rest have 5.
	a.Inc(0)
	for i := 1; i < 20; i++ {
		for j := 0; j < 5; j++ {
			a.Inc(i)
		}
	}
	p := &RarestFirst{Avail: a}
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	s := pickEnv(20, nil, nil, all, 0) // 0 pieces downloaded: random-first active
	rng := rand.New(rand.NewSource(7))
	nonRarest := 0
	for i := 0; i < 100; i++ {
		if p.Pick(rng, s) != 0 {
			nonRarest++
		}
	}
	if nonRarest == 0 {
		t.Fatal("random-first policy inactive: always picked the rarest piece")
	}
}

func TestRarestFirstSwitchesAfterThreshold(t *testing.T) {
	a := NewAvailability(20)
	a.Inc(0)
	for i := 1; i < 20; i++ {
		for j := 0; j < 5; j++ {
			a.Inc(i)
		}
	}
	p := &RarestFirst{Avail: a}
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	s := pickEnv(20, nil, nil, all, RandomFirstThreshold) // at threshold: rarest first
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		if got := p.Pick(rng, s); got != 0 {
			t.Fatalf("picked %d, want rarest piece 0", got)
		}
	}
}

func TestRarestFirstDisableRandomFirst(t *testing.T) {
	a := NewAvailability(5)
	a.Inc(3)
	for i := 0; i < 5; i++ {
		if i != 3 {
			for j := 0; j < 4; j++ {
				a.Inc(i)
			}
		}
	}
	p := &RarestFirst{Avail: a, DisableRandomFirst: true}
	s := pickEnv(5, nil, nil, []int{0, 1, 2, 3, 4}, 0)
	if got := p.Pick(rand.New(rand.NewSource(1)), s); got != 3 {
		t.Fatalf("picked %d, want 3 despite 0 downloads", got)
	}
}

func TestRarestFirstTieBreakIsRandom(t *testing.T) {
	// Two equally-rarest pieces: both must be picked over many trials
	// ("selects the next piece at random in its rarest pieces set").
	a := NewAvailability(4)
	a.Inc(0)
	a.Inc(1)
	a.Inc(2)
	a.Inc(2)
	a.Inc(3)
	a.Inc(3)
	p := &RarestFirst{Avail: a}
	s := pickEnv(4, nil, nil, []int{0, 1, 2, 3}, 4)
	rng := rand.New(rand.NewSource(9))
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		counts[p.Pick(rng, s)]++
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] > 0 || counts[3] > 0 {
		t.Fatalf("tie-break wrong: %v", counts)
	}
}

func TestRarestFirstRestrictedToRemote(t *testing.T) {
	// The remote lacks the rarest piece; the pick must be the rarest piece
	// the remote actually has.
	a := NewAvailability(3)
	a.Inc(1)
	a.Inc(2)
	a.Inc(2)
	p := &RarestFirst{Avail: a}
	s := pickEnv(3, nil, nil, []int{1, 2}, 4) // piece 0 (count 0) not offered
	for i := 0; i < 20; i++ {
		if got := p.Pick(rand.New(rand.NewSource(int64(i))), s); got != 1 {
			t.Fatalf("picked %d, want 1", got)
		}
	}
}

func TestGlobalRarest(t *testing.T) {
	global := NewAvailability(4)
	global.Inc(2) // globally rarest available piece is 2 (count 1)
	global.Inc(0)
	global.Inc(0)
	global.Inc(1)
	global.Inc(1)
	global.Inc(3)
	global.Inc(3)
	p := &GlobalRarest{Global: global}
	s := pickEnv(4, nil, nil, []int{0, 1, 2, 3}, 10)
	if got := p.Pick(rand.New(rand.NewSource(1)), s); got != 2 {
		t.Fatalf("picked %d, want 2", got)
	}
}

func TestPickerNames(t *testing.T) {
	names := map[string]Picker{
		"rarest-first":  &RarestFirst{},
		"random":        RandomPicker{},
		"sequential":    SequentialPicker{},
		"global-rarest": &GlobalRarest{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

// --- PR 2: word-parallel picking ---

// wantFrom is the per-bit reference for wantWord: piece i is downloadable
// when the remote has it, we don't, and we're not already fetching it.
func (s *PickState) wantFrom(i int) bool {
	return s.Remote.Has(i) && !s.Have.Has(i) && !s.InFlight.Has(i)
}

// pickRarestFunc is the predicate-based reference implementation of
// Availability.PickRarest. It consumes the identical RNG stream (one Intn
// draw over the wanted pieces at the lowest wanted count, ranked in
// ascending piece order), so equivalence tests can run both against the
// same seed.
func pickRarestFunc(a *Availability, rng *rand.Rand, want func(i int) bool) int {
	var rarest []int
	for i := 0; i < a.NumPieces(); i++ {
		switch {
		case !want(i):
		case len(rarest) == 0 || a.Count(i) < a.Count(rarest[0]):
			rarest = append(rarest[:0], i)
		case a.Count(i) == a.Count(rarest[0]):
			rarest = append(rarest, i)
		}
	}
	if len(rarest) == 0 {
		return -1
	}
	return rarest[rng.Intn(len(rarest))]
}

// randomPickState builds a random but consistent PickState: Have, InFlight
// and Remote are disjoint-where-required random bitfields over n pieces.
func randomPickState(rng *rand.Rand, n int) *PickState {
	s := &PickState{
		Have:     bitfield.New(n),
		InFlight: bitfield.New(n),
		Remote:   bitfield.New(n),
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			s.Remote.Set(i)
		}
		switch {
		case rng.Float64() < 0.25:
			s.Have.Set(i)
		case rng.Float64() < 0.2:
			s.InFlight.Set(i)
		}
	}
	s.Downloaded = s.Have.Count()
	return s
}

// TestPickUniformMatchesReference checks the word-parallel uniform pick
// against a per-bit count-then-draw reference consuming the same RNG
// stream.
func TestPickUniformMatchesReference(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 129, 400} {
		for trial := 0; trial < 50; trial++ {
			seed := int64(n*1000 + trial)
			s := randomPickState(rand.New(rand.NewSource(seed)), n)

			ref := func(rng *rand.Rand) int {
				count := 0
				for i := 0; i < n; i++ {
					if s.wantFrom(i) {
						count++
					}
				}
				if count == 0 {
					return -1
				}
				k := rng.Intn(count)
				for i := 0; i < n; i++ {
					if s.wantFrom(i) {
						if k == 0 {
							return i
						}
						k--
					}
				}
				return -1
			}
			got := pickUniform(rand.New(rand.NewSource(seed)), s)
			want := ref(rand.New(rand.NewSource(seed)))
			if got != want {
				t.Fatalf("n=%d trial=%d: pickUniform=%d ref=%d", n, trial, got, want)
			}
			if got >= 0 && !s.wantFrom(got) {
				t.Fatalf("picked unwanted piece %d", got)
			}
		}
	}
}

// TestPickUniformUniformity draws many picks over a fixed candidate set
// and checks every candidate is hit at a frequency near 1/k.
func TestPickUniformUniformity(t *testing.T) {
	const n = 130
	s := &PickState{Have: bitfield.New(n), InFlight: bitfield.New(n), Remote: bitfield.New(n)}
	cands := []int{0, 1, 63, 64, 65, 100, 129}
	for _, i := range cands {
		s.Remote.Set(i)
	}
	rng := rand.New(rand.NewSource(99))
	counts := map[int]int{}
	const draws = 70000
	for d := 0; d < draws; d++ {
		counts[pickUniform(rng, s)]++
	}
	want := float64(draws) / float64(len(cands))
	for _, i := range cands {
		got := float64(counts[i])
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("piece %d drawn %d times, want ~%.0f (counts %v)", i, counts[i], want, counts)
		}
	}
}

// TestPickRarestStateMatchesFunc pins the contract that the word-probe
// PickRarest and the predicate-based PickRarestFunc consume identical RNG
// streams and return identical picks.
func TestPickRarestStateMatchesFunc(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(7000 + trial)
		setup := rand.New(rand.NewSource(seed))
		const n = 150
		a := NewAvailability(n)
		for i := 0; i < n; i++ {
			for c := 0; c < setup.Intn(4); c++ {
				a.Inc(i)
			}
		}
		s := randomPickState(setup, n)
		got := a.PickRarest(rand.New(rand.NewSource(seed)), s)
		want := pickRarestFunc(a, rand.New(rand.NewSource(seed)), s.wantFrom)
		if got != want {
			t.Fatalf("trial %d: PickRarest=%d PickRarestFunc=%d", trial, got, want)
		}
		if got >= 0 && !s.wantFrom(got) {
			t.Fatalf("trial %d: picked unwanted piece %d", trial, got)
		}
	}
}

// TestSequentialPickerWordScan checks the word-skipping sequential picker
// against the obvious per-bit loop.
func TestSequentialPickerWordScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 65, 200} {
		for trial := 0; trial < 30; trial++ {
			s := randomPickState(rng, n)
			want := -1
			for i := 0; i < n; i++ {
				if s.wantFrom(i) {
					want = i
					break
				}
			}
			if got := (SequentialPicker{}).Pick(rng, s); got != want {
				t.Fatalf("n=%d: sequential pick %d, want %d", n, got, want)
			}
		}
	}
}

func BenchmarkPickUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomPickState(rng, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickUniform(rng, s)
	}
}
