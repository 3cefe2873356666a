// Package metainfo builds and parses BitTorrent .torrent metainfo files
// (BEP 3) and exposes the piece/block geometry used by the rest of the
// system.
//
// A torrent's content is split into pieces (typically 256 kB in the paper's
// torrents, up to 4 MB for torrent 8); each piece is split into 16 kB
// blocks, the transmission unit on the network. Only complete, SHA-1
// verified pieces may be served to other peers.
package metainfo

import (
	"errors"
	"fmt"

	"rarestfirst/internal/bencode"
)

// DefaultPieceSize is the paper's "typically 256 kB" piece size.
const DefaultPieceSize = 256 << 10

// BlockSize is the fixed 16 kB transmission unit (2^14, the mainline
// default block size the paper reports).
const BlockSize = 16 << 10

// InfoHash is the SHA-1 hash of the bencoded info dictionary; it identifies
// a torrent.
type InfoHash [20]byte

// String renders the info-hash in hex.
func (h InfoHash) String() string { return fmt.Sprintf("%x", h[:]) }

// Info describes a single-file torrent's content.
type Info struct {
	Name        string // advisory file name
	Length      int64  // total content length in bytes
	PieceLength int    // bytes per piece (last piece may be short)
	Hashes      [][20]byte
}

// MetaInfo is a parsed .torrent file.
type MetaInfo struct {
	Announce string // tracker URL
	Info     Info
	infoHash InfoHash
}

// Geometry captures the piece/block structure of a torrent independent of
// hashes; the simulator uses it directly.
type Geometry struct {
	TotalLength int64
	PieceLength int
	NumPieces   int
}

// NewGeometry derives the geometry for a content of length bytes split into
// pieceLength-byte pieces. It panics on non-positive arguments.
func NewGeometry(length int64, pieceLength int) Geometry {
	if length <= 0 || pieceLength <= 0 {
		panic("metainfo: non-positive geometry")
	}
	n := int((length + int64(pieceLength) - 1) / int64(pieceLength))
	return Geometry{TotalLength: length, PieceLength: pieceLength, NumPieces: n}
}

// PieceSize returns the size in bytes of piece i (the final piece may be
// shorter than PieceLength).
func (g Geometry) PieceSize(i int) int {
	if i < 0 || i >= g.NumPieces {
		panic(fmt.Sprintf("metainfo: piece %d out of range [0,%d)", i, g.NumPieces))
	}
	if i == g.NumPieces-1 {
		rem := g.TotalLength - int64(g.NumPieces-1)*int64(g.PieceLength)
		return int(rem)
	}
	return g.PieceLength
}

// BlocksIn returns the number of 16 kB blocks in piece i.
func (g Geometry) BlocksIn(i int) int {
	return (g.PieceSize(i) + BlockSize - 1) / BlockSize
}

// BlockSize returns the size in bytes of block b of piece i.
func (g Geometry) BlockSize(i, b int) int {
	nb := g.BlocksIn(i)
	if b < 0 || b >= nb {
		panic(fmt.Sprintf("metainfo: block %d out of range [0,%d) in piece %d", b, nb, i))
	}
	if b == nb-1 {
		return g.PieceSize(i) - (nb-1)*BlockSize
	}
	return BlockSize
}

// TotalBlocks returns the number of blocks across all pieces.
func (g Geometry) TotalBlocks() int {
	full := g.NumPieces - 1
	return full*((g.PieceLength+BlockSize-1)/BlockSize) + g.BlocksIn(g.NumPieces-1)
}

// Build constructs a MetaInfo for the given content, hashing every piece.
func Build(name, announce string, content []byte, pieceLength int) (*MetaInfo, error) {
	if len(content) == 0 {
		return nil, errors.New("metainfo: empty content")
	}
	if pieceLength <= 0 {
		return nil, errors.New("metainfo: non-positive piece length")
	}
	g := NewGeometry(int64(len(content)), pieceLength)
	info := Info{Name: name, Length: int64(len(content)), PieceLength: pieceLength}
	for i := 0; i < g.NumPieces; i++ {
		start := i * pieceLength
		end := start + g.PieceSize(i)
		info.Hashes = append(info.Hashes, sum(content[start:end]))
	}
	m := &MetaInfo{Announce: announce, Info: info}
	m.infoHash = m.computeInfoHash()
	return m, nil
}

// Geometry returns the piece/block geometry of the torrent.
func (m *MetaInfo) Geometry() Geometry {
	return NewGeometry(m.Info.Length, m.Info.PieceLength)
}

// NumPieces returns the number of pieces.
func (m *MetaInfo) NumPieces() int { return len(m.Info.Hashes) }

// InfoHash returns the torrent's SHA-1 info-hash.
func (m *MetaInfo) InfoHash() InfoHash { return m.infoHash }

// VerifyPiece reports whether data matches the recorded hash of piece i.
func (m *MetaInfo) VerifyPiece(i int, data []byte) bool {
	if i < 0 || i >= len(m.Info.Hashes) {
		return false
	}
	return sum(data) == m.Info.Hashes[i]
}

func (m *MetaInfo) infoDict() map[string]any {
	pieces := make([]byte, 0, 20*len(m.Info.Hashes))
	for _, h := range m.Info.Hashes {
		pieces = append(pieces, h[:]...)
	}
	return map[string]any{
		"name":         m.Info.Name,
		"length":       m.Info.Length,
		"piece length": m.Info.PieceLength,
		"pieces":       pieces,
	}
}

func (m *MetaInfo) computeInfoHash() InfoHash {
	return sum(bencode.MustEncode(m.infoDict()))
}

// Marshal encodes the metainfo as a .torrent file.
func (m *MetaInfo) Marshal() []byte {
	return bencode.MustEncode(map[string]any{
		"announce": m.Announce,
		"info":     m.infoDict(),
	})
}

// Unmarshal parses a .torrent file.
func Unmarshal(data []byte) (*MetaInfo, error) {
	v, err := bencode.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("metainfo: %w", err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return nil, errors.New("metainfo: top-level value is not a dict")
	}
	info := d.Sub("info")
	if info == nil {
		return nil, errors.New("metainfo: missing info dict")
	}
	m := &MetaInfo{
		Announce: d.Str("announce"),
		Info: Info{
			Name:        info.Str("name"),
			Length:      info.Int("length"),
			PieceLength: int(info.Int("piece length")),
		},
	}
	if m.Info.Length <= 0 {
		return nil, errors.New("metainfo: missing or invalid length")
	}
	if m.Info.PieceLength <= 0 {
		return nil, errors.New("metainfo: missing or invalid piece length")
	}
	pieces := info.Str("pieces")
	if len(pieces)%20 != 0 || len(pieces) == 0 {
		return nil, fmt.Errorf("metainfo: pieces length %d not a positive multiple of 20", len(pieces))
	}
	want := m.Geometry().NumPieces
	if len(pieces)/20 != want {
		return nil, fmt.Errorf("metainfo: %d piece hashes for %d pieces", len(pieces)/20, want)
	}
	for i := 0; i+20 <= len(pieces); i += 20 {
		var h [20]byte
		copy(h[:], pieces[i:i+20])
		m.Info.Hashes = append(m.Info.Hashes, h)
	}
	m.infoHash = m.computeInfoHash()
	return m, nil
}
