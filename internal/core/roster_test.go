package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rosterOracle is the simulator's tracker as it stood before Roster: the
// same dense slice and swap-remove, with a sampler that builds a fresh
// identity index on every call, O(roster) per announce. It is the reference
// Roster.Sample must match draw for draw.
type rosterOracle struct {
	alive []PeerID
	index map[PeerID]int
}

func newRosterOracle() *rosterOracle { return &rosterOracle{index: map[PeerID]int{}} }

func (t *rosterOracle) register(id PeerID) {
	if _, ok := t.index[id]; ok {
		return
	}
	t.index[id] = len(t.alive)
	t.alive = append(t.alive, id)
}

func (t *rosterOracle) deregister(id PeerID) {
	i, ok := t.index[id]
	if !ok {
		return
	}
	last := len(t.alive) - 1
	t.alive[i] = t.alive[last]
	t.index[t.alive[i]] = i
	t.alive = t.alive[:last]
	delete(t.index, id)
}

func (t *rosterOracle) sample(rng *rand.Rand, n int, exclude PeerID) []PeerID {
	out := make([]PeerID, 0, n)
	m := len(t.alive)
	if m == 0 {
		return out
	}
	if m <= n+1 {
		for _, p := range t.alive {
			if p != exclude {
				out = append(out, p)
			}
		}
		return out
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for k := 0; k < m && len(out) < n; k++ {
		j := k + rng.Intn(m-k)
		idx[k], idx[j] = idx[j], idx[k]
		p := t.alive[idx[k]]
		if p != exclude {
			out = append(out, p)
		}
	}
	return out
}

// rosterOp is one step of a random roster sequence, decoded from three
// bytes so the fuzzer and the property test share one interpreter.
type rosterOp struct {
	kind byte // 0-2 put, 3 remove, 4-7 sample
	id   PeerID
	n    int
}

func decodeRosterOp(b [3]byte) rosterOp {
	return rosterOp{kind: b[0] % 8, id: PeerID(b[1] % 96), n: int(b[2] % 64)}
}

// checkRosterStep applies op to both sides and compares them: the members
// in position order and, on a sample, the output and the RNG state after.
func checkRosterStep(t *testing.T, r *Roster[PeerID, PeerID], o *rosterOracle, rr, ro *rand.Rand, op rosterOp) {
	t.Helper()
	switch {
	case op.kind < 3:
		r.Put(op.id, op.id)
		o.register(op.id)
	case op.kind == 3:
		r.Remove(op.id)
		o.deregister(op.id)
	default:
		// Sample from a member half the time, an absent key otherwise.
		exclude := op.id
		if op.kind%2 == 0 && r.Len() > 0 {
			exclude, _ = r.At(int(op.id) % r.Len())
		}
		got := r.Sample(rr, op.n, exclude)
		want := o.sample(ro, op.n, exclude)
		// The one deliberate difference: with exclude absent and exactly
		// n+1 members, the old sampler returned all n+1.
		if len(want) > op.n {
			want = want[:op.n]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Sample(n=%d, exclude=%d) over %d = %v, oracle %v", op.n, exclude, r.Len(), got, want)
		}
		if a, b := rr.Int63(), ro.Int63(); a != b {
			t.Fatalf("Sample(n=%d) drew a different number of values than the oracle", op.n)
		}
		seen := map[PeerID]bool{}
		for _, id := range got {
			if id == exclude || seen[id] {
				t.Fatalf("Sample returned %d twice or the excluded key: %v", id, got)
			}
			seen[id] = true
		}
	}
	if r.Len() != len(o.alive) {
		t.Fatalf("Len = %d, oracle %d", r.Len(), len(o.alive))
	}
	for i, id := range o.alive {
		if k, v := r.At(i); k != id || v != id {
			t.Fatalf("position %d holds (%d, %d), oracle %d", i, k, v, id)
		}
	}
	for i, p := range r.perm {
		if p != i {
			t.Fatalf("perm[%d] = %d after %+v: scratch not restored to the identity", i, p, op)
		}
	}
}

// TestRosterMatchesOracle drives random put/remove/sample sequences through
// a Roster and the pre-Roster sampler with identically seeded RNGs.
func TestRosterMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := rand.New(rand.NewSource(seed))
		r, o := NewRoster[PeerID, PeerID](), newRosterOracle()
		rr, ro := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for step := 0; step < 2000; step++ {
			var b [3]byte
			binary.LittleEndian.PutUint16(b[:], uint16(ops.Intn(1<<16)))
			b[2] = byte(ops.Intn(256))
			checkRosterStep(t, r, o, rr, ro, decodeRosterOp(b))
		}
	}
}

// TestRosterSampleEdges pins the small cases: empty roster, n = 0, a roster
// of exactly n+1 with and without the requester in it.
func TestRosterSampleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRoster[PeerID, PeerID]()
	if got := r.Sample(rng, 5, 0); len(got) != 0 {
		t.Fatalf("empty roster sampled %v", got)
	}
	for id := PeerID(1); id <= 4; id++ {
		r.Put(id, id)
	}
	if got := r.Sample(rng, 0, 9); len(got) != 0 {
		t.Fatalf("n=0 sampled %v", got)
	}
	if got := r.Sample(rng, 3, 2); fmt.Sprint(got) != "[1 3 4]" {
		t.Fatalf("n+1 members with the requester: %v", got)
	}
	if got := r.Sample(rng, 3, 9); len(got) != 3 {
		t.Fatalf("n+1 members without the requester: %v, want 3", got)
	}
	if old, ok := r.Put(3, 30); !ok || old != 3 {
		t.Fatalf("Put over 3 returned (%d, %v)", old, ok)
	}
	if k, v := r.At(2); k != 3 || v != 30 {
		t.Fatalf("Put moved the member: position 2 holds (%d, %d)", k, v)
	}
	if old, ok := r.Remove(1); !ok || old != 1 {
		t.Fatalf("Remove(1) returned (%d, %v)", old, ok)
	}
	if _, ok := r.Remove(1); ok {
		t.Fatal("Remove of an absent key reported a removal")
	}
}

// TestRosterAppendSampleReusesBuffer checks that AppendSample into a
// reused buffer gives exactly Sample's result for the same RNG state,
// over rosters below, at and above the n+1 threshold, and that a warm
// buffer samples without allocating.
func TestRosterAppendSampleReusesBuffer(t *testing.T) {
	r := NewRoster[PeerID, PeerID]()
	var buf []PeerID
	for id := PeerID(0); id < 120; id++ {
		r.Put(id, id)
		for _, n := range []int{0, 1, 5, 50} {
			exclude := PeerID(int(id) * 7 % 130)
			seed := int64(id)*100 + int64(n)
			want := r.Sample(rand.New(rand.NewSource(seed)), n, exclude)
			buf = r.AppendSample(buf[:0], rand.New(rand.NewSource(seed)), n, exclude)
			if fmt.Sprint(buf) != fmt.Sprint(want) {
				t.Fatalf("roster of %d, n=%d: AppendSample %v, Sample %v", r.Len(), n, buf, want)
			}
		}
	}
	prefix := append([]PeerID{-1, -2}, r.Sample(rand.New(rand.NewSource(9)), 50, 3)...)
	if got := r.AppendSample([]PeerID{-1, -2}, rand.New(rand.NewSource(9)), 50, 3); fmt.Sprint(got) != fmt.Sprint(prefix) {
		t.Fatalf("AppendSample after a prefix: %v, want %v", got, prefix)
	}
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendSample(buf[:0], rng, 50, 3) }); n != 0 {
		t.Fatalf("AppendSample into a warm buffer allocates %v objects, want 0", n)
	}
}

// FuzzRosterOps interprets the input as three-byte roster operations and
// checks every step against the oracle.
func FuzzRosterOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 4, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1, 0, 5, 0, 2, 7, 9, 1})
	seq := make([]byte, 0, 3*200)
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%3), byte(i), 0)
	}
	seq = append(seq, 4, 7, 50, 5, 8, 10, 3, 5, 0, 6, 0, 63)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, o := NewRoster[PeerID, PeerID](), newRosterOracle()
		rr, ro := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i+3 <= len(data); i += 3 {
			checkRosterStep(t, r, o, rr, ro, decodeRosterOp([3]byte(data[i:i+3])))
		}
	})
}
