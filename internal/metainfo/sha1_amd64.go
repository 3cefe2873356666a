package metainfo

import (
	"crypto/sha1"
	"encoding/binary"
)

// hasSHANI reports whether blockSHANI can run: SSSE3 (PSHUFB) and SSE4.1
// (PINSRD/PEXTRD) in CPUID leaf 1 ECX bits 9 and 19, and the SHA
// extensions in leaf 7 EBX bit 29.
var hasSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}()

// blockSHANI runs the SHA-1 compression function over every whole 64-byte
// block of p, updating h, with the CPU's SHA extensions. It exists because
// crypto/sha1 before Go 1.25 never uses them: on amd64 it dispatches only
// to AVX2 or scalar code, at about half this speed on 256 KiB pieces.
// Delete it with this file, sha1_amd64.s and sha1_other.go, and call
// sha1.Sum directly, once go.mod's toolchain is one whose crypto/sha1
// uses SHA-NI; Go 1.25's release notes announce that.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// sum is sha1.Sum, computed with the SHA extensions when the CPU has them.
func sum(data []byte) [20]byte {
	if !hasSHANI {
		return sha1.Sum(data)
	}
	h := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	whole := len(data) &^ 63
	blockSHANI(&h, data[:whole])

	// Pad the tail: 0x80, zeros, and the bit length in the last 8 bytes of
	// one block, or of two when fewer than 9 bytes are left in the first.
	var tail [128]byte
	n := copy(tail[:], data[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])

	var out [20]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}
