//go:build !amd64

package metainfo

import "crypto/sha1"

// hasSHANI is false off amd64: sum is sha1.Sum (see sha1_amd64.go).
const hasSHANI = false

func sum(data []byte) [20]byte { return sha1.Sum(data) }
