package metainfo

import (
	"crypto/sha1"
	"encoding/hex"
	"testing"
)

// TestPieceHashMatchesStdlib checks sum against crypto/sha1 on every
// length from 0 to 1 100 (the 55/56/64-byte padding edges and several
// blocks), on piece-sized inputs, and on each of those from an unaligned
// start. Known answers from FIPS 180 check both directly.
func TestPieceHashMatchesStdlib(t *testing.T) {
	if !hasSHANI {
		t.Log("no SHA extensions on this CPU: only the crypto/sha1 fallback ran")
	}
	for _, kat := range []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	} {
		for name, f := range map[string]func([]byte) [20]byte{"sum": sum, "sha1.Sum": sha1.Sum} {
			if got := f([]byte(kat.in)); hex.EncodeToString(got[:]) != kat.want {
				t.Fatalf("%s(%q) = %x, want %s", name, kat.in, got, kat.want)
			}
		}
	}

	buf := testContent(4<<20+3, 7)
	check := func(data []byte) {
		t.Helper()
		if got, want := sum(data), sha1.Sum(data); got != want {
			t.Fatalf("len %d at offset %d: sum = %x, sha1.Sum = %x",
				len(data), cap(buf)-cap(data), got, want)
		}
	}
	for n := 0; n <= 1100; n++ {
		check(buf[:n])
	}
	for _, n := range []int{16 << 10, 256 << 10, 4<<20 - 1} {
		for off := 0; off <= 3; off++ {
			check(buf[off : off+n])
		}
	}
}

// FuzzPieceHash checks sum against crypto/sha1 on arbitrary inputs.
func FuzzPieceHash(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000, 16 << 10} {
		f.Add(testContent(n, int64(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := sum(data), sha1.Sum(data); got != want {
			t.Fatalf("len %d: sum = %x, sha1.Sum = %x", len(data), got, want)
		}
	})
}

// TestVerifyPieceZeroAlloc pins the live receive path's hash check at zero
// allocations per call.
func TestVerifyPieceZeroAlloc(t *testing.T) {
	content := testContent(3*DefaultPieceSize+100, 3)
	m, err := Build("z.bin", "", content, DefaultPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	tail := content[3*DefaultPieceSize:]
	allocs := testing.AllocsPerRun(20, func() {
		if !m.VerifyPiece(1, content[DefaultPieceSize:2*DefaultPieceSize]) || !m.VerifyPiece(3, tail) {
			t.Fatal("VerifyPiece rejected a good piece")
		}
	})
	if allocs != 0 {
		t.Fatalf("VerifyPiece allocated %.1f times per call, want 0", allocs)
	}
}
