package tracker

import (
	"testing"

	"rarestfirst/internal/bencode"
)

// malformedResponses are announce replies a client must reject. They pin
// ParseAnnounceResponse's errors and seed FuzzParseAnnounceResponse.
func malformedResponses() [][]byte {
	return [][]byte{
		[]byte("not bencode"),
		[]byte("le"),
		[]byte("d14:failure reason4:nopee"),
		[]byte("d5:peers7:1234567e"),              // compact not multiple of 6
		[]byte("d5:peersli1eee"),                  // peer entry not a dict
		[]byte("d5:peersld2:ip3:bad4:porti1eeee"), // unparseable ip
	}
}

// compactReply is a well-formed compact reply listing n peers.
func compactReply(n int) []byte {
	peers := make([]byte, 0, 6*n)
	for k := 0; k < n; k++ {
		peers = append(peers, 10, 0, byte(k>>8), byte(k), byte(k>>8), byte(k))
	}
	return bencode.MustEncode(map[string]any{"interval": 1800, "complete": 1, "incomplete": n, "peers": peers})
}

// FuzzParseAnnounceResponse feeds arbitrary bytes to the client's reply
// parser: it must return a reply or an error, never panic, and every peer
// of an accepted reply must carry an address.
func FuzzParseAnnounceResponse(f *testing.F) {
	for _, b := range malformedResponses() {
		f.Add(b)
	}
	f.Add(compactReply(3))
	f.Add([]byte("d8:intervali60e5:peersld2:ip8:10.0.0.14:porti7001eeee"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseAnnounceResponse(data)
		if err != nil {
			return
		}
		for _, p := range r.Peers {
			if len(p.IP) == 0 {
				t.Fatalf("accepted a peer without an address: %+v", r.Peers)
			}
			_ = p.Addr()
		}
	})
}

// TestParseAnnounceResponseAllocsFlat pins the compact path's allocations
// as independent of the peer count: the IPs share one backing array and
// Peers is allocated once. (Below ten peers the count still moves by one or
// two with the reply's size.)
func TestParseAnnounceResponseAllocsFlat(t *testing.T) {
	few, many := compactReply(10), compactReply(MaxNumWant)
	r, err := ParseAnnounceResponse(many)
	if err != nil || len(r.Peers) != MaxNumWant {
		t.Fatalf("%d-peer reply: %v, %d peers", MaxNumWant, err, len(r.Peers))
	}
	if p := r.Peers[49]; p.Addr() != "10.0.0.49:49" || p.IP.To4() == nil || len(p.IP) != 16 {
		t.Fatalf("peer 49 decoded as %v (%d-byte IP)", p.Addr(), len(p.IP))
	}
	parse := func(b []byte) func() {
		return func() {
			if _, err := ParseAnnounceResponse(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := testing.AllocsPerRun(100, parse(few)), testing.AllocsPerRun(100, parse(many)); a != b {
		t.Fatalf("ParseAnnounceResponse: %v allocs for %d compact peers, %v for 10", b, MaxNumWant, a)
	}
}
