package adversary

import (
	"bytes"
	"testing"
)

func TestRegistryLookup(t *testing.T) {
	for name, m := range Models {
		if m.Name != name {
			t.Fatalf("model %q has Name %q", name, m.Name)
		}
		if m.Fraction <= 0 || m.Fraction > 1 {
			t.Fatalf("model %q: Fraction %v out of (0,1]", name, m.Fraction)
		}
		if m.Kind() == "none" {
			t.Fatalf("model %q has no behaviour", name)
		}
	}
	if _, ok := Models["nope"]; ok {
		t.Fatal("unknown model resolved")
	}
}

func TestKinds(t *testing.T) {
	cases := map[string]string{"poison25": "poison", "liar25": "liar", "flood25": "flood"}
	for name, want := range cases {
		m, ok := Models[name]
		if !ok {
			t.Fatalf("model %q missing", name)
		}
		if got := m.Kind(); got != want {
			t.Fatalf("%s.Kind() = %q, want %q", name, got, want)
		}
	}
	if (Model{}).Kind() != "none" || !(Model{}).IsZero() {
		t.Fatal("zero model should be none/IsZero")
	}
}

func TestBehaviorDeterministic(t *testing.T) {
	m := Models["poison25"]
	run := func(seed int64) ([]bool, [][]byte) {
		b := New(m, seed)
		var hits []bool
		var blocks [][]byte
		for i := 0; i < 64; i++ {
			block := bytes.Repeat([]byte{byte(i)}, 32)
			hits = append(hits, b.MaybePoison(block))
			blocks = append(blocks, block)
		}
		return hits, blocks
	}
	h1, b1 := run(7)
	h2, b2 := run(7)
	for i := range h1 {
		if h1[i] != h2[i] || !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	poisoned := 0
	for i, hit := range h1 {
		clean := bytes.Repeat([]byte{byte(i)}, 32)
		if hit != !bytes.Equal(b1[i], clean) {
			t.Fatalf("decision %d: hit=%v but corruption=%v", i, hit, !bytes.Equal(b1[i], clean))
		}
		if hit {
			poisoned++
		}
	}
	if poisoned == 0 || poisoned == len(h1) {
		t.Fatalf("poison rate 0.5 produced %d/%d corruptions", poisoned, len(h1))
	}
}

func TestBehaviorFloodAndLiar(t *testing.T) {
	liar := Models["liar25"]
	if b := New(liar, 1); !b.FakeHaves() || b.FloodInterval() != 0 {
		t.Fatal("liar behavior wrong")
	}
	if b := New(liar, 1); b.MaybePoison(make([]byte, 8)) {
		t.Fatal("liar must not poison")
	}
	flood := Models["flood25"]
	b := New(flood, 1)
	if b.FloodInterval() <= 0 {
		t.Fatal("flood interval must be positive")
	}
	for i := 0; i < 32; i++ {
		if p := b.FloodPiece(10); p < 0 || p >= 10 {
			t.Fatalf("FloodPiece out of range: %d", p)
		}
	}
}
