package bitfield

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(100)
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	if b.Count() != 0 || !b.Empty() || b.Complete() {
		t.Fatalf("new bitfield not empty: count=%d", b.Count())
	}
	for i := 0; i < 100; i++ {
		if b.Has(i) {
			t.Fatalf("Has(%d) = true on empty bitfield", i)
		}
	}
}

func TestNewZeroLength(t *testing.T) {
	b := New(0)
	if !b.Complete() {
		t.Fatal("zero-length bitfield should be trivially complete")
	}
	if got := b.ToWire(); len(got) != 0 {
		t.Fatalf("ToWire on zero-length = %v, want empty", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

// TestMakeOverCallerStorage checks Make: it zeroes the words it is
// given, works on them in place, keeps within their length, reports the
// capacity beyond it, and rejects a slice of the wrong length.
func TestMakeOverCallerStorage(t *testing.T) {
	block := []uint64{^uint64(0), ^uint64(0), ^uint64(0), 7}
	b := Make(block[:3:3], 130)
	if b.Count() != 0 || b.Has(0) || b.Len() != 130 || b.SpareWords() != 0 {
		t.Fatalf("Make over dirty words: count %d, spare %d", b.Count(), b.SpareWords())
	}
	b.SetAll()
	if block[0] != ^uint64(0) || block[2] != uint64(3)<<62 || block[3] != 7 {
		t.Fatalf("SetAll wrote %x, want the tail masked and the next word untouched", block)
	}
	if got := Make(block[:3], 130); got.SpareWords() != 1 {
		t.Fatalf("SpareWords = %d over a slice with one word of spare capacity", got.SpareWords())
	}
	if Words(0) != 0 || Words(64) != 1 || Words(65) != 2 || New(130).SpareWords() != 0 {
		t.Fatal("Words or New's backing is off")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Make over 2 words for 130 pieces did not panic")
		}
	}()
	Make(block[:2], 130)
}

func TestSetClearCount(t *testing.T) {
	b := New(130) // crosses a word boundary and has a partial tail
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("Set on fresh bits returned false")
	}
	if b.Set(64) {
		t.Fatal("double Set returned true")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if !b.Clear(64) {
		t.Fatal("Clear of set bit returned false")
	}
	if b.Clear(64) {
		t.Fatal("double Clear returned true")
	}
	if b.Count() != 2 {
		t.Fatalf("Count after clear = %d, want 2", b.Count())
	}
	if !b.Has(0) || b.Has(64) || !b.Has(129) {
		t.Fatal("Has disagrees with Set/Clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(8)
	for _, i := range []int{-1, 8, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Has(%d) did not panic", i)
				}
			}()
			b.Has(i)
		}()
	}
}

func TestSetAllResetComplete(t *testing.T) {
	b := New(77)
	b.SetAll()
	if !b.Complete() || b.Count() != 77 {
		t.Fatalf("SetAll: count=%d complete=%v", b.Count(), b.Complete())
	}
	for i := 0; i < 77; i++ {
		if !b.Has(i) {
			t.Fatalf("Has(%d) false after SetAll", i)
		}
	}
	b.Reset()
	if !b.Empty() {
		t.Fatalf("Reset left count=%d", b.Count())
	}
}

func TestRangeOrderAndEarlyStop(t *testing.T) {
	b := New(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	var first []int
	b.Range(func(i int) bool { first = append(first, i); return len(first) < 2 })
	if len(first) != 2 || first[0] != 3 || first[1] != 64 {
		t.Fatalf("early stop visited %v", first)
	}
}

func TestMissing(t *testing.T) {
	b := New(6)
	b.Set(1)
	b.Set(4)
	var got []int
	b.Missing(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
}

func TestInterestSemantics(t *testing.T) {
	// AnyMissingIn implements "A is interested in B": B has a piece A lacks.
	a, b := New(10), New(10)
	b.Set(3)
	if !a.AnyMissingIn(b) {
		t.Fatal("A should be interested in B")
	}
	if b.AnyMissingIn(a) {
		t.Fatal("B should not be interested in empty A")
	}
	a.Set(3)
	if a.AnyMissingIn(b) {
		t.Fatal("A has everything B has; not interested")
	}
	if got := a.CountMissingIn(b); got != 0 {
		t.Fatalf("CountMissingIn = %d, want 0", got)
	}
	b.Set(9)
	b.Set(0)
	if got := a.CountMissingIn(b); got != 2 {
		t.Fatalf("CountMissingIn = %d, want 2", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AnyMissingIn with mismatched lengths did not panic")
		}
	}()
	New(10).AnyMissingIn(New(11))
}

func TestUnion(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(1)
	a.Set(69)
	b.Set(2)
	b.Set(69)
	a.Union(b)
	if a.Count() != 3 || !a.Has(1) || !a.Has(2) || !a.Has(69) {
		t.Fatalf("Union wrong: %v", a)
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 100, 863, 1393} {
		b := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		w := b.ToWire()
		if len(w) != (n+7)/8 {
			t.Fatalf("n=%d: wire len %d", n, len(w))
		}
		back, err := FromWire(w, n)
		if err != nil {
			t.Fatalf("n=%d: FromWire: %v", n, err)
		}
		if back.Count() != b.Count() {
			t.Fatalf("n=%d: count %d != %d", n, back.Count(), b.Count())
		}
		for i := 0; i < n; i++ {
			if back.Has(i) != b.Has(i) {
				t.Fatalf("n=%d: bit %d differs after round trip", n, i)
			}
		}
	}
}

func TestWireBitOrder(t *testing.T) {
	// Piece 0 must be the MSB of byte 0 (BEP 3).
	b := New(9)
	b.Set(0)
	b.Set(8)
	w := b.ToWire()
	if w[0] != 0x80 || w[1] != 0x80 {
		t.Fatalf("wire = %x, want 8080", w)
	}
}

func TestFromWireErrors(t *testing.T) {
	if _, err := FromWire([]byte{0xff}, 4); err == nil {
		t.Fatal("spare bits accepted")
	}
	if _, err := FromWire([]byte{0xf0}, 4); err != nil {
		t.Fatalf("exact bitfield rejected: %v", err)
	}
	if _, err := FromWire([]byte{0, 0}, 4); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := FromWire(nil, 0); err != nil {
		t.Fatalf("empty bitfield rejected: %v", err)
	}
}

func TestCopyIndependence(t *testing.T) {
	a := New(20)
	a.Set(5)
	c := a.Copy()
	c.Set(6)
	a.Clear(5)
	if !c.Has(5) || !c.Has(6) || a.Has(6) {
		t.Fatal("Copy shares storage with original")
	}
}

func TestString(t *testing.T) {
	b := New(863)
	b.Set(0)
	b.Set(1)
	if got := b.String(); got != "2/863" {
		t.Fatalf("String = %q", got)
	}
}

// Property: count always equals the number of distinct set indices, and
// wire round-trips preserve the set exactly.
func TestQuickCountAndRoundTrip(t *testing.T) {
	f := func(idx []uint16, nSeed uint16) bool {
		n := int(nSeed)%2000 + 1
		b := New(n)
		seen := map[int]bool{}
		for _, raw := range idx {
			i := int(raw) % n
			b.Set(i)
			seen[i] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		back, err := FromWire(b.ToWire(), n)
		if err != nil {
			return false
		}
		ok := true
		back.Range(func(i int) bool {
			if !seen[i] {
				ok = false
				return false
			}
			delete(seen, i)
			return true
		})
		return ok && len(seen) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interest is monotone — adding a piece to B never removes A's
// interest in B unless A already has it.
func TestQuickInterestMonotone(t *testing.T) {
	f := func(aBits, bBits []uint16, nSeed uint16, extra uint16) bool {
		n := int(nSeed)%500 + 2
		a, b := New(n), New(n)
		for _, i := range aBits {
			a.Set(int(i) % n)
		}
		for _, i := range bBits {
			b.Set(int(i) % n)
		}
		before := a.AnyMissingIn(b)
		b.Set(int(extra) % n)
		after := a.AnyMissingIn(b)
		if before && !after {
			return false
		}
		// CountMissingIn is consistent with AnyMissingIn.
		return (a.CountMissingIn(b) > 0) == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetHas(b *testing.B) {
	bf := New(1393)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bf.Set(i % 1393)
		bf.Has((i * 7) % 1393)
	}
}

func BenchmarkAnyMissingIn(b *testing.B) {
	x, y := New(1393), New(1393)
	for i := 0; i < 1393; i += 2 {
		x.Set(i)
	}
	for i := 1; i < 1393; i += 2 {
		y.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.AnyMissingIn(y) {
			b.Fatal("expected interest")
		}
	}
}

// --- PR 2: word-level iterator equivalence ---

// refRange/refMissing are the per-bit reference
// implementations the word-parallel iterators must match exactly.
func refRange(b *Bitfield, fn func(i int) bool) {
	for i := 0; i < b.Len(); i++ {
		if b.Has(i) && !fn(i) {
			return
		}
	}
}

func refMissing(b *Bitfield, fn func(i int) bool) {
	for i := 0; i < b.Len(); i++ {
		if !b.Has(i) && !fn(i) {
			return
		}
	}
}

// randomBitfield fills a fresh bitfield of size n from rng with density p.
func randomBitfield(rng *rand.Rand, n int, p float64) *Bitfield {
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

func collect(iter func(fn func(i int) bool)) []int {
	var out []int
	iter(func(i int) bool { out = append(out, i); return true })
	return out
}

func TestWordIteratorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes chosen to hit empty, single-word, exact-word and tail-word
	// boundaries.
	sizes := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 256, 1000}
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	for _, n := range sizes {
		for _, p := range densities {
			b := randomBitfield(rng, n, p)
			if got, want := collect(b.Range), collect(func(fn func(int) bool) { refRange(b, fn) }); !equalInts(got, want) {
				t.Fatalf("Range mismatch n=%d p=%.2f: got %v want %v", n, p, got, want)
			}
			if got, want := collect(b.Missing), collect(func(fn func(int) bool) { refMissing(b, fn) }); !equalInts(got, want) {
				t.Fatalf("Missing mismatch n=%d p=%.2f: got %v want %v", n, p, got, want)
			}
		}
	}
}

func TestMissingEarlyStop(t *testing.T) {
	b := New(130)
	b.Set(64)
	var seen []int
	b.Missing(func(i int) bool { seen = append(seen, i); return len(seen) < 3 })
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("seen = %v", seen)
	}
}

// TestMissingTailWord pins the tail-word edge case: the complement of the
// last word has bits beyond Len() set, and none of them may surface.
func TestMissingTailWord(t *testing.T) {
	for _, n := range []int{1, 63, 65, 127} {
		b := New(n)
		b.SetAll()
		b.Clear(n - 1)
		got := collect(b.Missing)
		if len(got) != 1 || got[0] != n-1 {
			t.Fatalf("n=%d: Missing = %v, want [%d]", n, got, n-1)
		}
	}
}

func TestWordAtTailInvariant(t *testing.T) {
	b := New(70)
	b.SetAll()
	if w := b.WordAt(1); w != uint64(0x3f)<<58 {
		t.Fatalf("tail word = %#x, spare bits must stay zero", w)
	}
	if b.NumWords() != 2 {
		t.Fatalf("NumWords = %d", b.NumWords())
	}
}

func TestQuickWordIterators(t *testing.T) {
	f := func(raw []byte, nRaw uint16) bool {
		n := int(nRaw) % 600
		b := New(n)
		for _, v := range raw {
			if n > 0 {
				b.Set(int(v) % n)
			}
		}
		if !equalInts(collect(b.Missing), collect(func(fn func(int) bool) { refMissing(b, fn) })) {
			return false
		}
		return equalInts(collect(b.Range), collect(func(fn func(int) bool) { refRange(b, fn) }))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzWordIterators(f *testing.F) {
	f.Add([]byte{0x00}, uint16(1))
	f.Add([]byte{0xff, 0x01}, uint16(65))
	f.Add([]byte{0xaa, 0x55, 0x00, 0xf0}, uint16(127))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint16) {
		n := int(nRaw) % 1024
		b := New(n)
		for _, v := range raw {
			if n > 0 {
				b.Set(int(v) % n)
			}
		}
		if got, want := collect(b.Missing), collect(func(fn func(int) bool) { refMissing(b, fn) }); !equalInts(got, want) {
			t.Fatalf("Missing mismatch n=%d: got %v want %v", n, got, want)
		}
		if got, want := collect(b.Range), collect(func(fn func(int) bool) { refRange(b, fn) }); !equalInts(got, want) {
			t.Fatalf("Range mismatch n=%d: got %v want %v", n, got, want)
		}
	})
}
