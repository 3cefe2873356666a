package tracker

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"testing"
	"time"
)

// announceDirect runs one announce through the handler in-process, peer k
// at 10.0.<k>.1 (written IPv4-mapped when mapped is set).
func announceDirect(t *testing.T, h http.Handler, ih [20]byte, k int, event string, left int64, numWant int, compact, mapped bool) *AnnounceResponse {
	t.Helper()
	ip := fmt.Sprintf("10.0.%d.1", k)
	if mapped {
		ip = "::ffff:" + ip
	}
	id := pid(byte(k))
	q := url.Values{
		"info_hash": {string(ih[:])}, "peer_id": {string(id[:])}, "ip": {ip},
		"port": {strconv.Itoa(7000 + k)}, "left": {strconv.FormatInt(left, 10)}, "numwant": {strconv.Itoa(numWant)},
	}
	if event != "" {
		q.Set("event", event)
	}
	if compact {
		q.Set("compact", "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/announce?"+q.Encode(), nil))
	resp, err := ParseAnnounceResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("announce by peer %d: %v", k, err)
	}
	return resp
}

// peerIndex maps a returned peer back to k, checking address and port agree.
func peerIndex(t *testing.T, p AnnouncedPeer) int {
	t.Helper()
	k := p.Port - 7000
	if p.IP.String() != fmt.Sprintf("10.0.%d.1", k) {
		t.Fatalf("returned peer %s does not match port %d", p.Addr(), p.Port)
	}
	return k
}

// oracleEntry is one registered peer in the map-plus-TTL oracle.
type oracleEntry struct {
	left     int64
	lastSeen time.Time
}

// TestTrackerMatchesOracle runs random started, refresh, completed and
// stopped announces, clock advances and snapshot/restore bounces against a
// plain map with prune-on-announce TTL semantics, under a fake clock.
func TestTrackerMatchesOracle(t *testing.T) {
	const ttl = 10 * time.Second
	const peers = 24
	ihs := [2][20]byte{}
	copy(ihs[0][:], "oracle-hash-A_______")
	copy(ihs[1][:], "oracle-hash-B_______")
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1_000_000, 0)
		newServer := func() *Server {
			srv := NewServer(900)
			srv.SetTTL(ttl)
			srv.now = func() time.Time { return now }
			return srv
		}
		srv := newServer()
		h := srv.Handler()
		oracle := map[[20]byte]map[int]oracleEntry{ihs[0]: {}, ihs[1]: {}}
		counts := func(ih [20]byte) (c, i int) {
			for _, e := range oracle[ih] {
				if e.left == 0 {
					c++
				} else {
					i++
				}
			}
			return c, i
		}
		for step := 0; step < 1500; step++ {
			ih := ihs[rng.Intn(2)]
			switch r := rng.Intn(20); {
			case r < 2:
				now = now.Add(time.Duration(rng.Intn(6000)) * time.Millisecond)
			case r == 2:
				// Bounce the tracker: the snapshot is the oracle's table,
				// and the restore drops exactly the entries already stale.
				snap := srv.Snapshot()
				var want []string
				for ih, m := range oracle {
					for k, e := range m {
						want = append(want, fmt.Sprintf("%x 10.0.%d.1:%d %d %d", ih, k, 7000+k, e.left, e.lastSeen.UnixNano()))
					}
				}
				var got []string
				for _, e := range snap {
					got = append(got, fmt.Sprintf("%x %s:%d %d %d", e.InfoHash, e.IP, e.Port, e.Left, e.LastSeen.UnixNano()))
				}
				sort.Strings(want)
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: snapshot\n%v\noracle\n%v", seed, step, got, want)
				}
				now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
				kept := 0
				for _, m := range oracle {
					for k, e := range m {
						if e.lastSeen.Before(now.Add(-ttl)) {
							delete(m, k)
						} else {
							kept++
						}
					}
				}
				srv = newServer()
				h = srv.Handler()
				if n := srv.Restore(snap); n != kept {
					t.Fatalf("seed %d step %d: restored %d entries, oracle kept %d", seed, step, n, kept)
				}
			default:
				k := rng.Intn(peers)
				left := int64(rng.Intn(2) * 100)
				event := [...]string{"", "", "", "started", "completed", "stopped"}[rng.Intn(6)]
				if event == "completed" {
					left = 0
				}
				numWant := rng.Intn(30)
				// A mapped announce must refresh peer k's plain IPv4 entry:
				// a second entry would show in the counts and the snapshot.
				mapped := rng.Intn(4) == 0
				resp := announceDirect(t, h, ih, k, event, left, numWant, rng.Intn(2) == 0, mapped)

				m := oracle[ih]
				if event == "stopped" {
					delete(m, k)
				} else {
					m[k] = oracleEntry{left: left, lastSeen: now}
				}
				for j, e := range m {
					if e.lastSeen.Before(now.Add(-ttl)) {
						delete(m, j)
					}
				}
				others := len(m)
				if _, ok := m[k]; ok {
					others--
				}
				c, i := counts(ih)
				if resp.Complete != c || resp.Incomplete != i {
					t.Fatalf("seed %d step %d: reply counts %d/%d, oracle %d/%d", seed, step, resp.Complete, resp.Incomplete, c, i)
				}
				if len(resp.Peers) != min(numWant, others) {
					t.Fatalf("seed %d step %d: %d peers for numwant %d with %d others", seed, step, len(resp.Peers), numWant, others)
				}
				seen := map[int]bool{}
				for _, p := range resp.Peers {
					j := peerIndex(t, p)
					if _, live := m[j]; !live || j == k || seen[j] {
						t.Fatalf("seed %d step %d: peer %d returned to %d (live %v, repeated %v)", seed, step, j, k, live, seen[j])
					}
					seen[j] = true
				}
			}
			for _, ih := range ihs {
				c, i := srv.Count(ih)
				if wc, wi := counts(ih); c != wc || i != wi {
					t.Fatalf("seed %d step %d: Count %d/%d, oracle %d/%d", seed, step, c, i, wc, wi)
				}
			}
		}
	}
}

// TestPeerListIsUniform: §II-B's tracker returns peers "chosen at random".
// 20 000 announces with numwant 10 to a 100-peer swarm, all from the first
// half of it (the second half announced once, long ago), include each peer
// 2 000 times on average, 1 980 or 2 020 by half in expectation (sd ~43).
// Every peer must land within 10% of the mean — the max-vs-mean load that
// balanced allocation under uniform choice bounds (Augustine et al., arXiv
// 1602.08298). A list picked by recency never names the second half.
func TestPeerListIsUniform(t *testing.T) {
	const peers, announces, numWant = 100, 20000, 10
	srv := NewServer(900)
	h := srv.Handler()
	var ih [20]byte
	copy(ih[:], "uniform-hash-12345__")
	for k := 0; k < peers; k++ {
		announceDirect(t, h, ih, k, "started", 10, 0, true, false)
	}
	rng := rand.New(rand.NewSource(1))
	var hits [peers]int
	for a := 0; a < announces; a++ {
		for _, p := range announceDirect(t, h, ih, rng.Intn(peers/2), "", 10, numWant, true, false).Peers {
			hits[peerIndex(t, p)]++
		}
	}
	mean := float64(announces*numWant) / peers
	lo, hi := hits[0], hits[0]
	for _, n := range hits {
		lo, hi = min(lo, n), max(hi, n)
	}
	t.Logf("inclusions per peer: min %d, max %d, mean %.0f (max/mean %.3f)", lo, hi, mean, float64(hi)/mean)
	if float64(hi) > 1.1*mean || float64(lo) < 0.9*mean {
		t.Fatalf("inclusions per peer range %d..%d, want within 10%% of %.0f", lo, hi, mean)
	}
}
