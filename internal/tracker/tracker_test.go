package tracker

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rarestfirst/internal/obs"
)

func announceVia(t *testing.T, url string, ih, pid [20]byte, port int, left int64, extra func(*AnnounceRequest)) *AnnounceResponse {
	t.Helper()
	req := AnnounceRequest{URL: url, InfoHash: ih, PeerID: pid, Port: port, Left: left}
	if extra != nil {
		extra(&req)
	}
	resp, err := Announce(req)
	if err != nil {
		t.Fatalf("announce: %v", err)
	}
	return resp
}

func pid(b byte) [20]byte {
	var p [20]byte
	for i := range p {
		p[i] = b
	}
	return p
}

func TestAnnounceRegistersAndReturnsPeers(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "demo-infohash-12345_")

	// First peer sees an empty swarm.
	r1 := announceVia(t, url, ih, pid(1), 7001, 1000, nil)
	if len(r1.Peers) != 0 {
		t.Fatalf("first peer saw %d peers", len(r1.Peers))
	}
	if r1.Interval != 900 {
		t.Fatalf("interval = %d", r1.Interval)
	}
	// Second peer sees the first.
	r2 := announceVia(t, url, ih, pid(2), 7002, 0, nil)
	if len(r2.Peers) != 1 || r2.Peers[0].Port != 7001 {
		t.Fatalf("second peer saw %+v", r2.Peers)
	}
	// Seed/leecher counts include the requester (it registered first).
	if r2.Complete != 1 || r2.Incomplete != 1 {
		t.Fatalf("counts: %d/%d, want 1/1", r2.Complete, r2.Incomplete)
	}
	c, i := srv.Count(ih)
	if c != 1 || i != 1 {
		t.Fatalf("server counts: %d seeds %d leechers", c, i)
	}
}

func TestAnnounceCompactFormat(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "compact-hash-543210_")
	announceVia(t, url, ih, pid(1), 7001, 10, nil)
	r := announceVia(t, url, ih, pid(2), 7002, 10, func(a *AnnounceRequest) { a.Compact = true })
	if len(r.Peers) != 1 {
		t.Fatalf("compact peers: %+v", r.Peers)
	}
	if r.Peers[0].Port != 7001 || r.Peers[0].IP.To4() == nil {
		t.Fatalf("compact peer decoded wrong: %+v", r.Peers[0])
	}
}

func TestAnnounceStoppedRemoves(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "stopped-hash-12345__")
	announceVia(t, url, ih, pid(1), 7001, 10, nil)
	announceVia(t, url, ih, pid(1), 7001, 10, func(a *AnnounceRequest) { a.Event = "stopped" })
	r := announceVia(t, url, ih, pid(2), 7002, 10, nil)
	if len(r.Peers) != 0 {
		t.Fatalf("stopped peer still returned: %+v", r.Peers)
	}
}

func TestAnnounceNumWantLimits(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "numwant-hash-12345__")
	for i := 0; i < 10; i++ {
		announceVia(t, url, ih, pid(byte(i)), 7100+i, 10, nil)
	}
	r := announceVia(t, url, ih, pid(99), 7999, 10, func(a *AnnounceRequest) { a.NumWant = 3 })
	if len(r.Peers) != 3 {
		t.Fatalf("numwant=3 returned %d peers", len(r.Peers))
	}
}

func TestAnnounceCapsNumWant(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "numwant-cap-12345___")
	for i := 0; i < MaxNumWant+50; i++ {
		announceVia(t, url, ih, pid(byte(i%250)), 10000+i, 10, nil)
	}
	// An absurd numwant is clamped to MaxNumWant, not honored.
	r := announceVia(t, url, ih, pid(255), 9999, 10, func(a *AnnounceRequest) { a.NumWant = 1 << 20 })
	if len(r.Peers) != MaxNumWant {
		t.Fatalf("numwant=1M returned %d peers, want cap %d", len(r.Peers), MaxNumWant)
	}
}

func TestAnnounceRejectsUnroutableIP(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var ih [20]byte
	copy(ih[:], "01234567890123456789")
	req := func(ip string) AnnounceRequest {
		return AnnounceRequest{URL: ts.URL + "/announce?ip=" + ip, InfoHash: ih, PeerID: pid(1), Port: 7001, Left: 10}
	}
	for _, ip := range []string{"0.0.0.0", "::", "224.0.0.1", "ff02::1", "255.255.255.255"} {
		_, err := Announce(req(ip))
		if err == nil || !strings.Contains(err.Error(), "unroutable ip") {
			t.Errorf("ip=%s accepted (err=%v)", ip, err)
		}
	}
	if _, inc := srv.Count(ih); inc != 0 {
		t.Fatalf("unroutable announce registered a peer: incomplete=%d", inc)
	}
	// A routable explicit ip still works.
	if _, err := Announce(req("10.1.2.3")); err != nil {
		t.Fatalf("routable explicit ip rejected: %v", err)
	}
	if _, inc := srv.Count(ih); inc != 1 {
		t.Fatalf("routable announce not registered")
	}
}

func TestAnnounceRejectsGarbage(t *testing.T) {
	srv := NewServer(900)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{
		"",                 // no info_hash
		"?info_hash=short", // bad hash
		"?info_hash=01234567890123456789&peer_id=short",                           // bad peer id
		"?info_hash=01234567890123456789&peer_id=01234567890123456789&port=0",     // bad port
		"?info_hash=01234567890123456789&peer_id=01234567890123456789&port=99999", // bad port
	} {
		_, err := Announce(AnnounceRequest{URL: ts.URL + "/announce" + q})
		if err == nil {
			t.Errorf("announce %q accepted", q)
		}
	}
}

func TestPruneDropsStalePeers(t *testing.T) {
	srv := NewServer(1)
	clock := time.Now()
	srv.now = func() time.Time { return clock }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "prune-hash-123456___")
	announceVia(t, url, ih, pid(1), 7001, 10, nil)
	clock = clock.Add(10 * time.Second) // > 2 * interval
	r := announceVia(t, url, ih, pid(2), 7002, 10, nil)
	if len(r.Peers) != 0 {
		t.Fatalf("stale peer survived prune: %+v", r.Peers)
	}
}

func TestSetTTLAgesOutDeadClient(t *testing.T) {
	// A crashed client never sends event=stopped; the TTL must age it out
	// of peer lists on its own.
	srv := NewServer(900)
	srv.SetTTL(5 * time.Second)
	clock := time.Now()
	srv.now = func() time.Time { return clock }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "ttl-hash-1234567____")

	announceVia(t, url, ih, pid(1), 7001, 10, nil) // the soon-to-die client
	clock = clock.Add(3 * time.Second)             // inside the TTL: still listed
	r := announceVia(t, url, ih, pid(2), 7002, 10, nil)
	if len(r.Peers) != 1 {
		t.Fatalf("live peer missing before TTL: %+v", r.Peers)
	}
	clock = clock.Add(3 * time.Second) // 6s since pid(1)'s last announce: expired
	r = announceVia(t, url, ih, pid(3), 7003, 10, nil)
	for _, p := range r.Peers {
		if p.Port == 7001 {
			t.Fatalf("dead client survived TTL: %+v", r.Peers)
		}
	}
	if _, inc := srv.Count(ih); inc != 2 {
		t.Fatalf("incomplete = %d after expiry, want 2 (pid 2 and 3)", inc)
	}

	// Non-positive TTLs are ignored rather than disabling expiry.
	srv.SetTTL(0)
	if srv.ttl != 5*time.Second {
		t.Fatalf("SetTTL(0) changed ttl to %v", srv.ttl)
	}
}

func TestParseAnnounceResponseErrors(t *testing.T) {
	for _, b := range malformedResponses() {
		if _, err := ParseAnnounceResponse(b); err == nil {
			t.Errorf("ParseAnnounceResponse(%q) accepted", b)
		}
	}
	// Missing peers key is fine.
	if r, err := ParseAnnounceResponse([]byte("d8:intervali60ee")); err != nil || r.Interval != 60 {
		t.Fatalf("minimal response: %v %+v", err, r)
	}
}

func TestMetricsPerInfohash(t *testing.T) {
	srv := NewServer(900)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "demo-infohash-12345_")

	announceVia(t, url, ih, pid(1), 7001, 1000, nil)
	announceVia(t, url, ih, pid(2), 7002, 0, nil)

	if v, ok := reg.Value("tracker_announces_total"); !ok || v != 2 {
		t.Errorf("tracker_announces_total = %v, %v; want 2", v, ok)
	}
	label := fmt.Sprintf("%x", ih[:4])
	if v, ok := reg.Value(obs.SeriesName("tracker_announces_total", "info_hash", label)); !ok || v != 2 {
		t.Errorf("per-infohash announces = %v, %v; want 2", v, ok)
	}
	if v, ok := reg.Value(obs.SeriesName("tracker_peers", "info_hash", label)); !ok || v != 2 {
		t.Errorf("per-infohash peers gauge = %v, %v; want 2", v, ok)
	}
	// Two announces inside the first (clamped 1 s) window: rate = 2/s.
	if v, ok := reg.Value(obs.SeriesName("tracker_announce_rate", "info_hash", label)); !ok || v != 2 {
		t.Errorf("per-infohash announce rate = %v, %v; want 2", v, ok)
	}

	// /stats surfaces the live rate alongside the swarm counts.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "announces/s") || !strings.Contains(string(body), "2 announces total") {
		t.Errorf("/stats missing announce metrics:\n%s", body)
	}

	// /metrics (the registry handler) exports the same series.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `tracker_announces_total{info_hash="`+label+`"} 2`) {
		t.Errorf("prometheus export missing labeled series:\n%s", buf.String())
	}
}

func TestMetricsRateWindowRebases(t *testing.T) {
	srv := NewServer(900)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	now := time.Unix(1000, 0)
	srv.now = func() time.Time { return now }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/announce"
	var ih [20]byte
	copy(ih[:], "window-infohash-123_")

	announceVia(t, url, ih, pid(1), 7001, 1000, nil)
	now = now.Add(rateWindow) // past the window: next announce re-bases it
	announceVia(t, url, ih, pid(2), 7002, 0, nil)
	now = now.Add(2 * time.Second)
	announceVia(t, url, ih, pid(1), 7001, 1000, nil)

	label := fmt.Sprintf("%x", ih[:4])
	// Fresh window holds one announce over 2 s clamped elapsed: 0.5/s.
	if v, ok := reg.Value(obs.SeriesName("tracker_announce_rate", "info_hash", label)); !ok || v != 0.5 {
		t.Errorf("post-rebase rate = %v, %v; want 0.5", v, ok)
	}
	if v, _ := reg.Value(obs.SeriesName("tracker_announces_total", "info_hash", label)); v != 3 {
		t.Errorf("cumulative announces = %v; want 3 (window re-base must not reset the counter)", v)
	}
}
