package core

import "math/rand"

// Roster is a tracker's peer list: a set of values keyed by K, stored in a
// dense slice so that Put and Remove are O(1) and Sample draws n members
// uniformly at random in O(n), whatever the roster's size. Both trackers
// answer announces from it — the simulator's and the HTTP one — with the
// rule of §II-B: "a list of 50 peers chosen at random in the list of peers
// currently involved in the torrent".
//
// A Roster is not safe for concurrent use.
type Roster[K comparable, V any] struct {
	keys  []K
	vals  []V
	index map[K]int
	// perm is the identity permutation over positions, kept between calls:
	// Sample's partial Fisher–Yates swaps entries of it and swaps back only
	// the ones it touched, so a sample never pays for the whole roster.
	perm []int
}

// NewRoster returns an empty roster.
func NewRoster[K comparable, V any]() *Roster[K, V] {
	return &Roster[K, V]{index: map[K]int{}}
}

// Len returns the number of members.
func (r *Roster[K, V]) Len() int { return len(r.keys) }

// At returns the member at dense position i, 0 <= i < Len. Put and Remove
// move members between positions.
func (r *Roster[K, V]) At(i int) (K, V) { return r.keys[i], r.vals[i] }

// Put adds k with value v, or replaces k's value in place (its position is
// kept). It returns the value replaced, if any.
func (r *Roster[K, V]) Put(k K, v V) (old V, replaced bool) {
	if i, ok := r.index[k]; ok {
		old, r.vals[i] = r.vals[i], v
		return old, true
	}
	r.index[k] = len(r.keys)
	r.keys = append(r.keys, k)
	r.vals = append(r.vals, v)
	return old, false
}

// Remove deletes k, moving the last member into its position, and returns
// the value it held.
func (r *Roster[K, V]) Remove(k K) (old V, removed bool) {
	i, ok := r.index[k]
	if !ok {
		return old, false
	}
	old = r.vals[i]
	last := len(r.keys) - 1
	r.keys[i], r.vals[i] = r.keys[last], r.vals[last]
	r.index[r.keys[i]] = i
	var zero V
	r.vals[last] = zero // drop the reference for the GC
	r.keys, r.vals = r.keys[:last], r.vals[:last]
	delete(r.index, k)
	return old, true
}

// Sample returns min(n, others) distinct members other than exclude,
// chosen uniformly at random, in a new slice; see AppendSample.
func (r *Roster[K, V]) Sample(rng *rand.Rand, n int, exclude K) []V {
	return r.AppendSample(make([]V, 0, max(0, min(n, len(r.keys)))), rng, n, exclude)
}

// AppendSample appends min(n, others) distinct members other than
// exclude, chosen uniformly at random, to dst and returns the extended
// slice, so a caller that reuses dst samples without allocating. A roster
// of at most n+1 members is answered in position order without drawing
// from rng; a larger one draws positions one at a time (a partial
// Fisher–Yates shuffle), skipping exclude, until it holds n. The draws
// depend on neither dst nor its capacity.
func (r *Roster[K, V]) AppendSample(dst []V, rng *rand.Rand, n int, exclude K) []V {
	m := len(r.keys)
	end := len(dst) + max(0, n)
	if m <= n+1 {
		for i := 0; i < m && len(dst) < end; i++ {
			if r.keys[i] != exclude {
				dst = append(dst, r.vals[i])
			}
		}
		return dst
	}
	for len(r.perm) < m {
		r.perm = append(r.perm, len(r.perm))
	}
	perm := r.perm[:m]
	k := 0
	for ; k < m && len(dst) < end; k++ {
		j := k + rng.Intn(m-k)
		perm[k], perm[j] = perm[j], perm[k]
		if i := perm[k]; r.keys[i] != exclude {
			dst = append(dst, r.vals[i])
		}
	}
	// Back to the identity. Every position p >= k the loop touched gave its
	// value p to some position below k, which no later step touched; so
	// visiting the values held below k finds them all.
	for i := 0; i < k; i++ {
		if p := perm[i]; p >= k {
			perm[p] = p
		}
		perm[i] = i
	}
	return dst
}
