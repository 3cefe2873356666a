package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
)

// roundTrip encodes via fn and decodes the result, returning the message.
func roundTrip(t *testing.T, fn func(*Encoder) error) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(NewEncoder(&buf)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var m Message
	if err := NewDecoder(&buf).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return m
}

func TestSimpleMessages(t *testing.T) {
	for _, id := range []MsgID{MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested} {
		m := roundTrip(t, func(e *Encoder) error { return e.Simple(id) })
		if m.ID != id {
			t.Errorf("got %v, want %v", m.ID, id)
		}
	}
}

func TestSimpleRejectsPayloadMessages(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Simple(MsgHave); err == nil {
		t.Fatal("Simple(have) accepted")
	}
}

func TestKeepAlive(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.KeepAlive() })
	if m.ID != MsgKeepAlive {
		t.Errorf("got %v", m.ID)
	}
}

func TestHave(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Have(862) })
	if m.ID != MsgHave || m.Index != 862 {
		t.Errorf("got %+v", m)
	}
}

func TestRequestCancel(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Request(5, 16384, 16384) })
	if m.ID != MsgRequest || m.Index != 5 || m.Begin != 16384 || m.Length != 16384 {
		t.Errorf("request: %+v", m)
	}
	m = roundTrip(t, func(e *Encoder) error { return e.Cancel(7, 0, 1024) })
	if m.ID != MsgCancel || m.Index != 7 || m.Begin != 0 || m.Length != 1024 {
		t.Errorf("cancel: %+v", m)
	}
}

func TestPiece(t *testing.T) {
	block := make([]byte, 16384)
	rand.New(rand.NewSource(1)).Read(block)
	m := roundTrip(t, func(e *Encoder) error { return e.Piece(3, 32768, block) })
	if m.ID != MsgPiece || m.Index != 3 || m.Begin != 32768 {
		t.Errorf("piece header: %+v", m)
	}
	if !bytes.Equal(m.Block, block) {
		t.Error("piece payload corrupted")
	}
}

// TestPieceZeroAlloc pins the vectored piece write: a warmed Encoder sends
// a piece frame without allocating and keeps no reference to the block.
func TestPieceZeroAlloc(t *testing.T) {
	e := NewEncoder(io.Discard)
	block := make([]byte, 16384)
	piece := func() {
		if err := e.Piece(1, 16384, block); err != nil {
			t.Fatal(err)
		}
	}
	piece()
	if n := testing.AllocsPerRun(100, piece); n != 0 {
		t.Errorf("%v allocations per warmed Piece, want 0", n)
	}
	if e.iov[1] != nil {
		t.Error("Encoder retained the block after Piece returned")
	}
}

// TestPieceFrameOverConns sends a full block, an empty block and a have
// message through a loopback TCP pair (one writev per piece frame) and a
// net.Pipe (two Writes per piece frame): each frame must decode intact
// and the have must start exactly where the last piece frame ends.
func TestPieceFrameOverConns(t *testing.T) {
	block := make([]byte, 16384)
	rand.New(rand.NewSource(2)).Read(block)
	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		w, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, ok := w.(*net.TCPConn); !ok {
			t.Fatalf("dialed %T, want *net.TCPConn", w)
		}
		r, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkPieceFrames(t, w, r, block)
	})
	t.Run("pipe", func(t *testing.T) {
		w, r := net.Pipe()
		defer w.Close()
		defer r.Close()
		checkPieceFrames(t, w, r, block)
	})
}

func checkPieceFrames(t *testing.T, w io.Writer, r io.Reader, block []byte) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		e := NewEncoder(w)
		err := e.Piece(3, 32768, block)
		if err == nil {
			err = e.Piece(4, 0, nil)
		}
		if err == nil {
			err = e.Have(9)
		}
		errc <- err
	}()
	d := NewDecoder(r)
	var m Message
	if err := d.Decode(&m); err != nil {
		t.Fatalf("full block: %v", err)
	}
	if m.ID != MsgPiece || m.Index != 3 || m.Begin != 32768 || !bytes.Equal(m.Block, block) {
		t.Fatalf("full block decoded as %v index %d begin %d, %d bytes", m.ID, m.Index, m.Begin, len(m.Block))
	}
	if err := d.Decode(&m); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if m.ID != MsgPiece || m.Index != 4 || m.Begin != 0 || len(m.Block) != 0 {
		t.Fatalf("empty block decoded as %+v", m)
	}
	if err := d.Decode(&m); err != nil {
		t.Fatalf("have after pieces: %v", err)
	}
	if m.ID != MsgHave || m.Index != 9 {
		t.Fatalf("have after pieces decoded as %+v", m)
	}
	if err := <-errc; err != nil {
		t.Fatalf("encode: %v", err)
	}
}

func TestBitfield(t *testing.T) {
	bits := []byte{0xde, 0xad, 0xbe, 0xef}
	m := roundTrip(t, func(e *Encoder) error { return e.Bitfield(bits) })
	if m.ID != MsgBitfield || !bytes.Equal(m.Raw, bits) {
		t.Errorf("bitfield: %+v", m)
	}
}

func TestPort(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Port(6881) })
	if m.ID != MsgPort || m.Port != 6881 {
		t.Errorf("port: %+v", m)
	}
}

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Bitfield([]byte{0x80}); err != nil {
		t.Fatal(err)
	}
	if err := e.Simple(MsgInterested); err != nil {
		t.Fatal(err)
	}
	if err := e.Simple(MsgUnchoke); err != nil {
		t.Fatal(err)
	}
	if err := e.Request(0, 0, 16384); err != nil {
		t.Fatal(err)
	}
	if err := e.Piece(0, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := e.Have(0); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	want := []MsgID{MsgBitfield, MsgInterested, MsgUnchoke, MsgRequest, MsgPiece, MsgHave}
	var m Message
	for i, id := range want {
		if err := d.Decode(&m); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.ID != id {
			t.Fatalf("message %d: got %v, want %v", i, m.ID, id)
		}
	}
	if err := d.Decode(&m); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestDecoderBufferReuseInvalidation(t *testing.T) {
	// Raw/Block alias the decoder buffer; a second Decode overwrites them.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Piece(0, 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := e.Piece(0, 0, []byte("xecond")); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	var m Message
	if err := d.Decode(&m); err != nil {
		t.Fatal(err)
	}
	saved := m.Block // aliases buffer — intentionally observing reuse
	if err := d.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if string(saved) == "first" {
		t.Skip("decoder grew its buffer; aliasing not observable")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated header", []byte{0, 0}},
		{"truncated body", []byte{0, 0, 0, 5, 4, 0}},
		{"oversized frame", []byte{0xff, 0xff, 0xff, 0xff}},
		{"unknown id", []byte{0, 0, 0, 1, 42}},
		{"have short", []byte{0, 0, 0, 3, 4, 0, 0}},
		{"choke with payload", []byte{0, 0, 0, 2, 0, 9}},
		{"request short", []byte{0, 0, 0, 5, 6, 0, 0, 0, 0}},
		{"piece short", []byte{0, 0, 0, 5, 7, 0, 0, 0, 0}},
		{"port short", []byte{0, 0, 0, 2, 9, 0}},
	}
	for _, c := range cases {
		var m Message
		if err := NewDecoder(bytes.NewReader(c.data)).Decode(&m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOversizedFrameError(t *testing.T) {
	data := []byte{0x00, 0x20, 0x00, 0x01} // 2 MiB + 1
	var m Message
	err := NewDecoder(bytes.NewReader(data)).Decode(&m)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Handshake{}
	copy(h.InfoHash[:], bytes.Repeat([]byte{0xab}, 20))
	copy(h.PeerID[:], "M4-0-2--0123456789ab")
	if err := WriteHandshake(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HandshakeLen {
		t.Fatalf("handshake length = %d, want %d", buf.Len(), HandshakeLen)
	}
	got, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("handshake differs: %+v vs %+v", got, h)
	}
}

func TestHandshakeErrors(t *testing.T) {
	if _, err := ReadHandshake(bytes.NewReader([]byte("short"))); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("short handshake: %v", err)
	}
	bad := make([]byte, HandshakeLen)
	bad[0] = 19
	copy(bad[1:], "NotTorrent protocol")
	if _, err := ReadHandshake(bytes.NewReader(bad)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("foreign protocol: %v", err)
	}
}

func TestMsgIDString(t *testing.T) {
	if MsgPiece.String() != "piece" || MsgKeepAlive.String() != "keep_alive" {
		t.Fatal("String names wrong")
	}
	if MsgID(200).String() != "unknown(200)" {
		t.Fatalf("unknown rendering: %s", MsgID(200))
	}
}

// Property: request/cancel round-trip any (index, begin, length) triple.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(index, begin, length uint32) bool {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Request(index, begin, length); err != nil {
			return false
		}
		var m Message
		if err := NewDecoder(&buf).Decode(&m); err != nil {
			return false
		}
		return m.ID == MsgRequest && m.Index == index && m.Begin == begin && m.Length == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary framed garbage.
func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(bytes.NewReader(data))
		var m Message
		for {
			if err := d.Decode(&m); err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodePiece(b *testing.B) {
	var buf bytes.Buffer
	block := make([]byte, 16384)
	e := NewEncoder(&buf)
	if err := e.Piece(1, 0, block); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	d := NewDecoder(r)
	var m Message
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if err := d.Decode(&m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	e := NewEncoder(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Request(uint32(i), 0, 16384); err != nil {
			b.Fatal(err)
		}
	}
}
