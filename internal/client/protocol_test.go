package client

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"rarestfirst/internal/wire"
)

// dialHandshake opens a raw TCP connection to c and completes the wire
// handshake under one fixed peer ID, returning the socket.
func dialHandshake(t *testing.T, c *Client, infoHash [20]byte) net.Conn {
	t.Helper()
	return dialHandshakeAs(t, c, infoHash, "-XX0001-abcdefghijkl")
}

// dialHandshakeAs is dialHandshake with the given 20-byte peer ID.
func dialHandshakeAs(t *testing.T, c *Client, infoHash [20]byte, peerID string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", c.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pid [20]byte
	copy(pid[:], peerID)
	if err := wire.WriteHandshake(conn, wire.Handshake{InfoHash: infoHash, PeerID: pid}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(conn); err != nil {
		t.Fatalf("no handshake back: %v", err)
	}
	return conn
}

// expectClosed asserts the peer closes the connection within 3 s: reading
// must end in EOF or a reset, not in the read deadline.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 4096)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("connection still open after 3 s")
		}
		return // closed or reset: what we wanted
	}
}

func startSeed(t *testing.T) (*Client, [20]byte) {
	t.Helper()
	m, content := makeTorrent(t, 128<<10, "")
	seed, err := New(Options{Meta: m, Content: content, UploadBps: 8 << 20, ChokeInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Stop)
	return seed, m.InfoHash()
}

func TestProtocolRejectsWrongInfoHash(t *testing.T) {
	seed, _ := startSeed(t)
	conn, err := net.DialTimeout("tcp", seed.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wrong [20]byte
	copy(wrong[:], "not-the-right-hash!!")
	var pid [20]byte
	copy(pid[:], "-XX0001-abcdefghijkl")
	if err := wire.WriteHandshake(conn, wire.Handshake{InfoHash: wrong, PeerID: pid}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
}

func TestProtocolRejectsGarbageFrames(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	// Unknown message id 0x2a.
	conn.Write([]byte{0, 0, 0, 1, 0x2a})
	expectClosed(t, conn)
}

func TestProtocolRejectsOversizedFrame(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xffffffff)
	conn.Write(hdr[:])
	expectClosed(t, conn)
}

func TestProtocolRejectsDuplicateBitfield(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	bits := make([]byte, 1) // 2 pieces -> 1 byte
	if err := enc.Bitfield(bits); err != nil {
		t.Fatal(err)
	}
	if err := enc.Bitfield(bits); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
}

func TestProtocolRejectsOutOfRangeHave(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	if err := enc.Have(9999); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
}

func TestProtocolIgnoresRequestWhileChoked(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	// No interested/unchoke dance: a request now must be silently dropped,
	// not answered and not fatal.
	if err := enc.Request(0, 0, 16384); err != nil {
		t.Fatal(err)
	}
	if err := enc.KeepAlive(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(1 * time.Second))
	dec := wire.NewDecoder(conn)
	var m wire.Message
	for {
		if err := dec.Decode(&m); err != nil {
			return // timed out with no piece: correct
		}
		if m.ID == wire.MsgPiece {
			t.Fatal("served a block to a choked peer")
		}
	}
}

func TestProtocolSurvivesAdversarialFrames(t *testing.T) {
	// A Byzantine peer sends hostile framing; the client must close each
	// connection without panicking and keep serving honest peers after.
	seed, ih := startSeed(t)
	frames := []struct {
		name string
		raw  []byte
		// halfClose ends the attacker's side of the stream after raw, so
		// the client reads EOF mid-frame.
		halfClose bool
	}{
		{"oversized declared length", []byte{0xff, 0xff, 0xff, 0xff}, false},
		{"request out-of-range index", []byte{0, 0, 0, 13, 6, 0, 0, 0x27, 0x0f, 0, 0, 0, 0, 0, 0, 0x40, 0}, false},
		{"request absurd length", []byte{0, 0, 0, 13, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, false},
		{"piece out-of-range index", []byte{0, 0, 0, 13, 7, 0, 0, 0x27, 0x0f, 0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}, false},
		{"piece misaligned begin", []byte{0, 0, 0, 13, 7, 0, 0, 0, 0, 0, 0, 0, 7, 0xde, 0xad, 0xbe, 0xef}, false},
		{"truncated body", []byte{0, 0, 0, 100, 7, 0, 0}, true},
		{"unknown id", []byte{0, 0, 0, 1, 0x2a}, false},
		{"choke with payload", []byte{0, 0, 0, 2, 0, 9}, false},
	}
	for _, f := range frames {
		conn := dialHandshake(t, seed, ih)
		if _, err := conn.Write(f.raw); err != nil {
			t.Fatalf("%s: write: %v", f.name, err)
		}
		if f.halfClose {
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("%s: half-close: %v", f.name, err)
			}
		}
		expectClosed(t, conn)
		conn.Close()
	}
	// The seed survived every attack: an honest leecher still completes.
	m := seed.meta
	leech, err := New(Options{Meta: m, UploadBps: 8 << 20, ChokeInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()
	leech.AddPeer(seed.Addr())
	waitComplete(t, 30*time.Second, leech)
}

func TestProtocolKeepAliveIsHarmless(t *testing.T) {
	seed, ih := startSeed(t)
	conn := dialHandshake(t, seed, ih)
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	for i := 0; i < 5; i++ {
		if err := enc.KeepAlive(); err != nil {
			t.Fatalf("keep-alive %d: %v", i, err)
		}
	}
	// Connection must still be usable: a valid bitfield is accepted.
	if err := enc.Bitfield(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	seed.mu.Lock()
	n := len(seed.connOrder)
	seed.mu.Unlock()
	if n != 1 {
		t.Fatalf("connection dropped after keep-alives: %d conns", n)
	}
}

// TestChokeSnapshotCountsRemotePieces checks that the choke snapshot
// carries each remote's advertised piece count (the newcomer boost reads
// it): a peer that sent two HAVEs shows 2, a silent peer shows 0.
func TestChokeSnapshotCountsRemotePieces(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "") // 4 pieces
	seed, err := New(Options{Meta: m, Content: content})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Stop)
	silent := dialHandshakeAs(t, seed, m.InfoHash(), "-XX0001-silentsilent")
	defer silent.Close()
	talker := dialHandshakeAs(t, seed, m.InfoHash(), "-XX0001-talkertalker")
	defer talker.Close()
	enc := wire.NewEncoder(talker)
	for _, piece := range []uint32{0, 2} {
		if err := enc.Have(piece); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		seed.mu.Lock()
		var counts []int
		for _, p := range seed.chokeSnapshot(0) {
			counts = append(counts, p.RemotePieces)
		}
		seed.mu.Unlock()
		if len(counts) == 2 && counts[0]+counts[1] == 2 && counts[0]*counts[1] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot RemotePieces = %v, want one peer at 2 and one at 0", counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
