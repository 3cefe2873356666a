package sim

// Sharded-heap determinism: the loser-tree merge over per-key subheaps
// must pop events in EXACTLY the single monolithic heap's order — that is
// the whole contract that makes SetHeapShards trajectory-preserving. The
// tests drive a sharded engine and an unsharded oracle through identical
// randomized schedules (pushes into every shard, cancels, reschedules,
// lane batches, nested scheduling from inside callbacks) and require the
// fired-event logs to be byte-identical.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shardScriptLog runs a randomized self-scheduling workload on an engine
// with the given shard count (0 = single-heap oracle) and returns the
// fired-event log. Everything derives from seed, and every random draw
// happens either at schedule time or inside a fired callback — so two
// engines that pop in the same order consume the rng identically and
// produce identical logs, while any order divergence derails the streams
// and shows up as a log mismatch.
func shardScriptLog(shards int, seed int64, top int) []string {
	e := NewEngine(0)
	if shards > 0 {
		e.SetHeapShards(shards)
	}
	rng := rand.New(rand.NewSource(seed))
	var log []string

	var slots []*shardSlot
	nextID := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		nextID++
		id := nextID
		// Coarse time grid forces plenty of same-instant ties, the case
		// where (at, seq) tie-breaking across shards actually matters.
		d := math.Trunc(rng.Float64()*64) / 8
		key := rng.Int63n(96) - 16 // negative keys route to the global shard
		reSpawn := func(depth int) {
			if depth < 3 && rng.Intn(2) == 0 {
				spawn(depth + 1)
			}
		}
		switch rng.Intn(8) {
		case 0: // plain keyless event
			s := &shardSlot{}
			s.t = e.After(d, func() {
				s.state = 1
				log = append(log, fmt.Sprintf("p%d@%.3f", id, e.Now()))
				reSpawn(depth)
			})
			slots = append(slots, s)
		case 1, 2, 3: // keyed event
			s := &shardSlot{}
			s.t = e.AfterKey(d, key, func() {
				s.state = 1
				log = append(log, fmt.Sprintf("k%d@%.3f", id, e.Now()))
				reSpawn(depth)
			})
			slots = append(slots, s)
		case 4, 5: // lane event (batched with same-instant lane neighbours)
			s := &shardSlot{}
			s.t = e.AtLane(e.Now()+d, key, func(int) func() {
				return func() {
					s.state = 1
					log = append(log, fmt.Sprintf("l%d@%.3f", id, e.Now()))
					reSpawn(depth)
				}
			})
			slots = append(slots, s)
		case 6: // cancel a pending timer
			if s := pickSlot(rng, slots, 0); s != nil {
				s.t.Cancel()
				s.state = 2
			}
		case 7: // reschedule a pending timer (fresh seq, maybe new instant)
			if s := pickSlot(rng, slots, 0); s != nil {
				e.Reschedule(s.t, e.Now()+math.Trunc(rng.Float64()*64)/8)
			}
		}
	}
	for i := 0; i < top; i++ {
		spawn(0)
	}
	e.RunUntilIdle()
	return append(log, fmt.Sprintf("end@%.3f pending=%d", e.Now(), e.Pending()))
}

// shardSlot tracks one scheduled event's handle and lifecycle so the
// script only ever cancels or reschedules timers that are genuinely
// pending — a handle whose event fired may have been recycled, and pool
// layouts legitimately differ between sharded and unsharded engines.
type shardSlot struct {
	t     *Timer
	state int // 0 pending, 1 fired, 2 cancelled
}

// pickSlot returns a pending-state slot chosen with one rng draw (so
// oracle and sharded runs stay in rng lockstep), or nil if none qualify.
func pickSlot(rng *rand.Rand, slots []*shardSlot, want int) *shardSlot {
	if len(slots) == 0 {
		return nil
	}
	if s := slots[rng.Intn(len(slots))]; s.state == want {
		return s
	}
	return nil
}

// TestShardedHeapMatchesSingleHeapOracle is the core property test: for a
// spread of seeds and shard counts, the sharded engine's fired-event log
// is byte-identical to the single-heap oracle's.
func TestShardedHeapMatchesSingleHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		oracle := shardScriptLog(0, seed, 120)
		for _, shards := range []int{1, 2, 7, 32} {
			got := shardScriptLog(shards, seed, 120)
			if len(got) != len(oracle) {
				t.Fatalf("seed %d shards %d: %d events, oracle fired %d", seed, shards, len(got), len(oracle))
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("seed %d shards %d: event %d = %q, oracle %q", seed, shards, i, got[i], oracle[i])
				}
			}
		}
	}
}

// FuzzShardedHeapPopOrder fuzzes the same property over arbitrary seeds
// and shard counts.
func FuzzShardedHeapPopOrder(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(42), uint8(1))
	f.Add(int64(7), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8) {
		oracle := shardScriptLog(0, seed, 60)
		got := shardScriptLog(1+int(shards%64), seed, 60)
		if len(got) != len(oracle) {
			t.Fatalf("seed %d shards %d: %d events, oracle fired %d", seed, shards, len(got), len(oracle))
		}
		for i := range got {
			if got[i] != oracle[i] {
				t.Fatalf("seed %d shards %d: event %d = %q, oracle %q", seed, shards, i, got[i], oracle[i])
			}
		}
	})
}

// TestShardRoutingAndStats pins the routing contract (key & mask + global
// shard for negative keys and plain At) and the new EngineStats fields.
func TestShardRoutingAndStats(t *testing.T) {
	e := NewEngine(0)
	e.SetHeapShards(4)
	if e.HeapShards() != 4 {
		t.Fatalf("HeapShards = %d, want 4", e.HeapShards())
	}
	// Keys differing by a multiple of the shard count share a shard.
	if e.shardFor(3) != e.shardFor(3+4) || e.shardFor(3) != e.shardFor(3+1<<40) {
		t.Fatal("per-node key family split across shards")
	}
	if e.shardFor(-1) != 0 {
		t.Fatal("negative key left the global shard")
	}
	fired := 0
	for i := 0; i < 64; i++ {
		e.AfterKey(float64(i%5), int64(i), func() { fired++ })
	}
	e.At(1, func() { fired++ })
	e.RunUntilIdle()
	if fired != 65 {
		t.Fatalf("fired %d of 65", fired)
	}
	st := e.Stats()
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.PeakShardHeap == 0 || st.PeakShardHeap > 64 {
		t.Fatalf("Stats.PeakShardHeap = %d", st.PeakShardHeap)
	}
	if st.MergePops != 65 {
		t.Fatalf("Stats.MergePops = %d, want 65", st.MergePops)
	}

	// The unsharded engine reports the zero values, keeping old
	// serializations unchanged.
	single := NewEngine(0)
	single.At(1, func() {})
	single.RunUntilIdle()
	sst := single.Stats()
	if sst.Shards != 0 || sst.PeakShardHeap != 0 || sst.MergePops != 0 {
		t.Fatalf("single-heap engine leaked shard stats: %+v", sst)
	}
}

// TestSetHeapShardsGuards pins the reconfiguration contract: choosing a
// shard count with events already queued panics, and n <= 0 restores the
// monolithic heap.
func TestSetHeapShardsGuards(t *testing.T) {
	e := NewEngine(0)
	e.SetHeapShards(8)
	e.SetHeapShards(0)
	if e.HeapShards() != 0 {
		t.Fatalf("HeapShards = %d after reset, want 0", e.HeapShards())
	}
	e.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetHeapShards with scheduled events did not panic")
		}
	}()
	e.SetHeapShards(8)
}
