// Package bitfield implements the compact piece-possession bitfield used
// throughout the BitTorrent protocol (BEP 3).
//
// A Bitfield tracks which pieces of a torrent a peer has. The wire format
// is big-endian within each byte: bit 7 of byte 0 is piece 0. Spare bits at
// the end of the last byte must be zero; decoders reject bitfields with
// spare bits set, as the mainline client does.
package bitfield

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrSpareBits is returned by FromWire when a wire-format bitfield has a
// nonzero bit beyond the last piece.
var ErrSpareBits = errors.New("bitfield: spare bits set in wire encoding")

// ErrLength is returned by FromWire when the byte length does not match the
// expected number of pieces.
var ErrLength = errors.New("bitfield: wire encoding has wrong length")

// Bitfield is a fixed-size set of piece indices. The zero value is unusable;
// construct with New, Make or FromWire.
type Bitfield struct {
	words []uint64
	n     int // number of valid bits
	count int // cached population count
}

// New returns an empty bitfield able to hold n pieces.
func New(n int) *Bitfield {
	if n < 0 {
		panic("bitfield: negative size")
	}
	return &Bitfield{words: make([]uint64, Words(n)), n: n}
}

// Words returns the number of 64-bit words a bitfield of n pieces is
// backed by: the length Make expects.
func Words(n int) int { return (n + 63) / 64 }

// Make returns an empty bitfield for n pieces backed by words, which the
// caller provides (a slab carved into many bitfields, say) and must not
// touch again. len(words) must be Words(n); Make zeroes them. A bitfield
// never writes past len(words), but SpareWords lets a caller check that
// the backing slice was cut to its length.
func Make(words []uint64, n int) Bitfield {
	if n < 0 || len(words) != Words(n) {
		panic(fmt.Sprintf("bitfield: %d words for %d pieces, want %d", len(words), n, Words(n)))
	}
	clear(words)
	return Bitfield{words: words, n: n}
}

// SpareWords returns the backing capacity beyond the bitfield's own
// words: 0 for New, and for Make over a slice cut as s[:k:k].
func (b *Bitfield) SpareWords() int { return cap(b.words) - len(b.words) }

// Len returns the number of pieces the bitfield covers.
func (b *Bitfield) Len() int { return b.n }

// Count returns the number of pieces currently set.
func (b *Bitfield) Count() int { return b.count }

// Complete reports whether every piece is set.
func (b *Bitfield) Complete() bool { return b.count == b.n }

// Empty reports whether no piece is set.
func (b *Bitfield) Empty() bool { return b.count == 0 }

// Has reports whether piece i is set. It panics if i is out of range.
func (b *Bitfield) Has(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(63-uint(i)&63)) != 0
}

// Set marks piece i as present. It reports whether the bit changed.
func (b *Bitfield) Set(i int) bool {
	b.check(i)
	w, m := i>>6, uint64(1)<<(63-uint(i)&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// Clear unmarks piece i. It reports whether the bit changed.
func (b *Bitfield) Clear(i int) bool {
	b.check(i)
	w, m := i>>6, uint64(1)<<(63-uint(i)&63)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.count--
	return true
}

// SetAll marks every piece as present.
func (b *Bitfield) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
	b.count = b.n
}

// Reset clears every piece.
func (b *Bitfield) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}

// Copy returns an independent copy of b.
func (b *Bitfield) Copy() *Bitfield {
	c := &Bitfield{words: make([]uint64, len(b.words)), n: b.n, count: b.count}
	copy(c.words, b.words)
	return c
}

// NumWords returns the number of 64-bit words backing the bitfield.
func (b *Bitfield) NumWords() int { return len(b.words) }

// WordAt returns backing word i. Piece 64*i is the most significant bit;
// bits beyond Len() in the last word are always zero (every mutator
// maintains the tail invariant), so word-parallel combinations of
// same-length bitfields need no extra masking.
func (b *Bitfield) WordAt(i int) uint64 { return b.words[i] }

// Range calls fn for each set piece in ascending order until fn returns
// false or pieces are exhausted.
func (b *Bitfield) Range(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			lz := bits.LeadingZeros64(w)
			i := wi<<6 + lz
			if i >= b.n {
				return
			}
			if !fn(i) {
				return
			}
			w &^= 1 << (63 - uint(lz))
		}
	}
}

// Missing calls fn for each unset piece in ascending order until fn
// returns false or pieces are exhausted. Like Range it walks whole words,
// skipping runs of owned pieces 64 at a time; the tail-word complement
// bits beyond Len() sort after every valid piece, so the range check stops
// the walk before they surface.
func (b *Bitfield) Missing(fn func(i int) bool) {
	for wi, w := range b.words {
		w = ^w
		for w != 0 {
			lz := bits.LeadingZeros64(w)
			i := wi<<6 + lz
			if i >= b.n {
				return
			}
			if !fn(i) {
				return
			}
			w &^= 1 << (63 - uint(lz))
		}
	}
}

// AnyMissingIn reports whether other has at least one piece that b lacks.
// This is exactly the BitTorrent notion of "b is interested in other".
// The two bitfields must have the same length.
func (b *Bitfield) AnyMissingIn(other *Bitfield) bool {
	if other.n != b.n {
		panic("bitfield: length mismatch")
	}
	for i, w := range b.words {
		if other.words[i]&^w != 0 {
			return true
		}
	}
	return false
}

// CountMissingIn returns the number of pieces other has that b lacks.
func (b *Bitfield) CountMissingIn(other *Bitfield) int {
	if other.n != b.n {
		panic("bitfield: length mismatch")
	}
	total := 0
	for i, w := range b.words {
		total += bits.OnesCount64(other.words[i] &^ w)
	}
	return total
}

// Union sets every piece in b that is set in other.
func (b *Bitfield) Union(other *Bitfield) {
	if other.n != b.n {
		panic("bitfield: length mismatch")
	}
	total := 0
	for i := range b.words {
		b.words[i] |= other.words[i]
		total += bits.OnesCount64(b.words[i])
	}
	b.count = total
}

// ToWire encodes b in the BEP 3 wire format: ceil(n/8) bytes, piece 0 at the
// most significant bit of byte 0.
func (b *Bitfield) ToWire() []byte {
	out := make([]byte, (b.n+7)/8)
	for i := range out {
		shift := 56 - 8*(uint(i)&7)
		out[i] = byte(b.words[i>>3] >> shift)
	}
	return out
}

// FromWire decodes a BEP 3 wire-format bitfield for n pieces. It returns
// ErrLength if len(p) is wrong and ErrSpareBits if trailing spare bits are
// nonzero.
func FromWire(p []byte, n int) (*Bitfield, error) {
	if len(p) != (n+7)/8 {
		return nil, fmt.Errorf("%w: got %d bytes, want %d for %d pieces", ErrLength, len(p), (n+7)/8, n)
	}
	b := New(n)
	for i, by := range p {
		shift := 56 - 8*(uint(i)&7)
		b.words[i>>3] |= uint64(by) << shift
	}
	// Verify spare bits before committing.
	tailBits := n & 63
	if tailBits != 0 {
		last := b.words[len(b.words)-1]
		if last<<uint(tailBits) != 0 {
			return nil, ErrSpareBits
		}
	}
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	b.count = total
	return b, nil
}

// String renders the bitfield as a compact summary, e.g. "37/863".
func (b *Bitfield) String() string {
	return fmt.Sprintf("%d/%d", b.count, b.n)
}

func (b *Bitfield) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitfield: index %d out of range [0,%d)", i, b.n))
	}
}

func (b *Bitfield) maskTail() {
	tailBits := b.n & 63
	if tailBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= ^uint64(0) << (64 - uint(tailBits))
	}
}
