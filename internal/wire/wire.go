// Package wire implements the BitTorrent peer wire protocol v1.0 (BEP 3):
// the handshake and the ten length-prefixed peer messages exchanged after
// it. It provides both an allocation-free streaming decoder (decode into a
// caller-owned Message, gopacket-style) and symmetric encoders.
//
// Framing: every message is <length uint32 big-endian><id byte><payload>.
// A length of zero is a keep-alive and carries no id.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// MsgID identifies a peer wire message type.
type MsgID byte

// Message IDs from BEP 3. KeepAlive is a pseudo-ID for zero-length frames.
const (
	MsgChoke         MsgID = 0
	MsgUnchoke       MsgID = 1
	MsgInterested    MsgID = 2
	MsgNotInterested MsgID = 3
	MsgHave          MsgID = 4
	MsgBitfield      MsgID = 5
	MsgRequest       MsgID = 6
	MsgPiece         MsgID = 7
	MsgCancel        MsgID = 8
	MsgPort          MsgID = 9
	MsgKeepAlive     MsgID = 255
)

// String returns the BEP 3 message name.
func (id MsgID) String() string {
	switch id {
	case MsgChoke:
		return "choke"
	case MsgUnchoke:
		return "unchoke"
	case MsgInterested:
		return "interested"
	case MsgNotInterested:
		return "not_interested"
	case MsgHave:
		return "have"
	case MsgBitfield:
		return "bitfield"
	case MsgRequest:
		return "request"
	case MsgPiece:
		return "piece"
	case MsgCancel:
		return "cancel"
	case MsgPort:
		return "port"
	case MsgKeepAlive:
		return "keep_alive"
	default:
		return fmt.Sprintf("unknown(%d)", byte(id))
	}
}

// MaxFrame bounds accepted frame sizes: one block (16 kB) plus the 13-byte
// piece header, rounded generously to also admit large bitfields.
const MaxFrame = 1 << 20

var (
	// ErrFrameTooLarge indicates a declared frame length above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrBadLength indicates a payload length inconsistent with the message id.
	ErrBadLength = errors.New("wire: payload length inconsistent with message id")
	// ErrBadHandshake indicates a malformed or foreign handshake.
	ErrBadHandshake = errors.New("wire: bad handshake")
)

// Message is a decoded peer wire message. Payload fields are valid only for
// the message types that define them. Raw slices alias the decoder's
// internal buffer and are invalidated by the next Decode call; copy them if
// they must outlive it.
type Message struct {
	ID MsgID

	Index  uint32 // have, request, piece, cancel
	Begin  uint32 // request, piece, cancel
	Length uint32 // request, cancel
	Block  []byte // piece payload (aliases decoder buffer)
	Raw    []byte // bitfield payload (aliases decoder buffer)
	Port   uint16 // port
}

// Decoder reads framed messages from an io.Reader without per-message
// allocation: the internal buffer is reused across calls.
type Decoder struct {
	r   io.Reader
	buf []byte
	hdr [4]byte
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, 32<<10)}
}

// Decode reads the next frame into m. It returns io.EOF cleanly only when
// the stream ends between frames.
func (d *Decoder) Decode(m *Message) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return err
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 {
		*m = Message{ID: MsgKeepAlive}
		return nil
	}
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return fmt.Errorf("wire: truncated frame body: %w", err)
	}
	return parseBody(d.buf, m)
}

func parseBody(body []byte, m *Message) error {
	*m = Message{ID: MsgID(body[0])}
	payload := body[1:]
	switch m.ID {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		if len(payload) != 0 {
			return fmt.Errorf("%w: %s with %d payload bytes", ErrBadLength, m.ID, len(payload))
		}
	case MsgHave:
		if len(payload) != 4 {
			return fmt.Errorf("%w: have with %d payload bytes", ErrBadLength, len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload)
	case MsgBitfield:
		m.Raw = payload
	case MsgRequest, MsgCancel:
		if len(payload) != 12 {
			return fmt.Errorf("%w: %s with %d payload bytes", ErrBadLength, m.ID, len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload)
		m.Begin = binary.BigEndian.Uint32(payload[4:])
		m.Length = binary.BigEndian.Uint32(payload[8:])
	case MsgPiece:
		if len(payload) < 8 {
			return fmt.Errorf("%w: piece with %d payload bytes", ErrBadLength, len(payload))
		}
		m.Index = binary.BigEndian.Uint32(payload)
		m.Begin = binary.BigEndian.Uint32(payload[4:])
		m.Block = payload[8:]
	case MsgPort:
		if len(payload) != 2 {
			return fmt.Errorf("%w: port with %d payload bytes", ErrBadLength, len(payload))
		}
		m.Port = binary.BigEndian.Uint16(payload)
	default:
		return fmt.Errorf("wire: unknown message id %d", body[0])
	}
	return nil
}

// Encoder writes framed messages to an io.Writer, reusing a scratch buffer.
type Encoder struct {
	w   io.Writer
	buf []byte
	// iov and vec carry a piece frame's header and block to one vectored
	// write. Both live in the Encoder because a net.Buffers local to
	// Piece escapes to the heap on every frame.
	iov [2][]byte
	vec net.Buffers
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, 32<<10)}
}

func (e *Encoder) frame(id MsgID, payloadLen int) []byte {
	total := 4 + 1 + payloadLen
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	e.buf = e.buf[:total]
	binary.BigEndian.PutUint32(e.buf, uint32(1+payloadLen))
	e.buf[4] = byte(id)
	return e.buf
}

func (e *Encoder) flush() error {
	_, err := e.w.Write(e.buf)
	return err
}

// KeepAlive writes a zero-length keep-alive frame.
func (e *Encoder) KeepAlive() error {
	var z [4]byte
	_, err := e.w.Write(z[:])
	return err
}

// Simple writes a payload-less message (choke, unchoke, interested,
// not-interested).
func (e *Encoder) Simple(id MsgID) error {
	switch id {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
	default:
		return fmt.Errorf("wire: %s is not a payload-less message", id)
	}
	e.frame(id, 0)
	return e.flush()
}

// Have writes a have message for piece index.
func (e *Encoder) Have(index uint32) error {
	b := e.frame(MsgHave, 4)
	binary.BigEndian.PutUint32(b[5:], index)
	return e.flush()
}

// Bitfield writes a bitfield message with the given wire-format payload.
func (e *Encoder) Bitfield(wireBits []byte) error {
	b := e.frame(MsgBitfield, len(wireBits))
	copy(b[5:], wireBits)
	return e.flush()
}

// Request writes a request message.
func (e *Encoder) Request(index, begin, length uint32) error {
	b := e.frame(MsgRequest, 12)
	binary.BigEndian.PutUint32(b[5:], index)
	binary.BigEndian.PutUint32(b[9:], begin)
	binary.BigEndian.PutUint32(b[13:], length)
	return e.flush()
}

// Cancel writes a cancel message.
func (e *Encoder) Cancel(index, begin, length uint32) error {
	b := e.frame(MsgCancel, 12)
	binary.BigEndian.PutUint32(b[5:], index)
	binary.BigEndian.PutUint32(b[9:], begin)
	binary.BigEndian.PutUint32(b[13:], length)
	return e.flush()
}

// Piece writes a piece message carrying block data. The 13-byte header
// and the block go out as one vectored write, so the block is never
// copied: on a *net.TCPConn that is a single writev, on any other writer
// two Writes. The Encoder does not retain block after Piece returns.
func (e *Encoder) Piece(index, begin uint32, block []byte) error {
	h := e.frame(MsgPiece, 8)
	binary.BigEndian.PutUint32(h, uint32(9+len(block)))
	binary.BigEndian.PutUint32(h[5:], index)
	binary.BigEndian.PutUint32(h[9:], begin)
	e.iov = [2][]byte{h, block}
	e.vec = e.iov[:]
	_, err := e.vec.WriteTo(e.w)
	e.iov[1] = nil
	return err
}

// Port writes a DHT port message (decoded but unused; 4.0.2 pre-dates DHT
// in the stable protocol).
func (e *Encoder) Port(port uint16) error {
	b := e.frame(MsgPort, 2)
	binary.BigEndian.PutUint16(b[5:], port)
	return e.flush()
}

// protocolString is the BEP 3 protocol identifier.
const protocolString = "BitTorrent protocol"

// HandshakeLen is the fixed size of a v1.0 handshake.
const HandshakeLen = 1 + len(protocolString) + 8 + 20 + 20

// Handshake is the fixed-size preamble exchanged when a connection opens.
type Handshake struct {
	Reserved [8]byte
	InfoHash [20]byte
	PeerID   [20]byte
}

// WriteHandshake writes h to w.
func WriteHandshake(w io.Writer, h Handshake) error {
	var buf [HandshakeLen]byte
	buf[0] = byte(len(protocolString))
	copy(buf[1:], protocolString)
	copy(buf[20:], h.Reserved[:])
	copy(buf[28:], h.InfoHash[:])
	copy(buf[48:], h.PeerID[:])
	_, err := w.Write(buf[:])
	return err
}

// ReadHandshake reads and validates a handshake from r.
func ReadHandshake(r io.Reader) (Handshake, error) {
	var buf [HandshakeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Handshake{}, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if int(buf[0]) != len(protocolString) || string(buf[1:20]) != protocolString {
		return Handshake{}, fmt.Errorf("%w: unknown protocol %q", ErrBadHandshake, buf[1:20])
	}
	var h Handshake
	copy(h.Reserved[:], buf[20:])
	copy(h.InfoHash[:], buf[28:])
	copy(h.PeerID[:], buf[48:])
	return h, nil
}
