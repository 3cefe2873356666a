// Package tracker implements a real BEP 3 HTTP tracker: the /announce
// endpoint speaking bencode over net/http, with both the dictionary peer
// list and the BEP 23 compact format. It is the only centralized component
// of BitTorrent and is "not involved in the actual distribution of the
// file" (§II-B); the real client in internal/client announces to it.
package tracker

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	"rarestfirst/internal/bencode"
	"rarestfirst/internal/core"
	"rarestfirst/internal/obs"
)

// DefaultNumWant is the number of peers returned when the client does not
// ask for a specific amount (the mainline default of 50, §II-B).
const DefaultNumWant = 50

// MaxNumWant caps the numwant parameter: a client asking for more peers
// than this is clamped rather than allowed to pull the whole registry in
// one response. Flooding adversaries use huge numwant values to amplify
// the tracker's response size per request byte.
const MaxNumWant = 200

// DefaultInterval is the re-announce interval returned to clients, in
// seconds. The paper reports 30 minutes; tests override this.
const DefaultInterval = 1800

// peerEntry is one registered peer of one torrent. An entry is never
// modified once registered (a re-announce replaces it), so a reply can be
// encoded from sampled entries after mu is released.
type peerEntry struct {
	peerID   [20]byte
	addr     netip.AddrPort // unmapped: IPv4-mapped and plain IPv4 are one peer
	left     int64
	lastSeen time.Time
}

// torrent is one info-hash's peer table.
type torrent struct {
	peers *core.Roster[netip.AddrPort, *peerEntry]
	seeds int // entries with left == 0
	// oldest is a lower bound on every entry's lastSeen (zero until the
	// first sweep): expiry sweeps the table only once it falls before the
	// TTL cutoff, and tightens it to the oldest survivor.
	oldest time.Time
}

func (t *torrent) put(e *peerEntry) {
	if old, ok := t.peers.Put(e.addr, e); ok && old.left == 0 {
		t.seeds--
	}
	if e.left == 0 {
		t.seeds++
	}
	if e.lastSeen.Before(t.oldest) {
		t.oldest = e.lastSeen
	}
}

func (t *torrent) remove(addr netip.AddrPort) {
	if old, ok := t.peers.Remove(addr); ok && old.left == 0 {
		t.seeds--
	}
}

// expire drops entries whose last announce is before now-ttl. It is exact:
// no entry older than the cutoff survives a call.
func (t *torrent) expire(now time.Time, ttl time.Duration) {
	cutoff := now.Add(-ttl)
	if !t.oldest.Before(cutoff) {
		return
	}
	t.oldest = now
	for i := t.peers.Len() - 1; i >= 0; i-- {
		_, e := t.peers.At(i)
		switch {
		case e.lastSeen.Before(cutoff):
			t.remove(e.addr) // moves an already visited entry into i
		case e.lastSeen.Before(t.oldest):
			t.oldest = e.lastSeen
		}
	}
}

func (t *torrent) count() (complete, incomplete int) {
	return t.seeds, t.peers.Len() - t.seeds
}

// Server is an HTTP tracker. Create with NewServer, mount Handler on an
// http.Server, or use Serve for a self-managed listener.
type Server struct {
	mu       sync.Mutex
	torrents map[[20]byte]*torrent
	interval int
	ttl      time.Duration
	now      func() time.Time
	rng      *rand.Rand // draws the peer lists; constant seed, so replies are reproducible

	// Observability (SetMetrics): the registry, the global announce
	// counter, and per-infohash series with a windowed announce rate.
	reg        *obs.Registry
	mAnnounces *obs.Counter
	ihm        map[[20]byte]*ihMetrics

	// Graceful-restart state: draining refuses new announces while
	// inflight counts the ones already being served (Close waits for
	// them), so a snapshot taken after Close can never miss a
	// registration that was mid-flight.
	draining bool
	inflight sync.WaitGroup
}

// rateWindow bounds the per-infohash announce-rate estimate: the rate is
// announces-per-second over the current window, re-based every window so
// a stopped swarm decays instead of averaging over the tracker's entire
// lifetime.
const rateWindow = 30 * time.Second

// ihMetrics is one torrent's live series in the obs registry.
type ihMetrics struct {
	announces *obs.Counter
	peers     *obs.Gauge
	rate      *obs.Gauge
	winStart  time.Time
	winCount  uint64
}

// NewServer returns a tracker that advertises the given re-announce
// interval in seconds (0 means DefaultInterval). Peers that do not
// re-announce within the TTL (default two intervals) are expired; see
// SetTTL.
func NewServer(interval int) *Server {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Server{
		torrents: map[[20]byte]*torrent{},
		interval: interval,
		ttl:      2 * time.Duration(interval) * time.Second,
		now:      time.Now,
		rng:      rand.New(rand.NewSource(1)),
	}
}

// torrentLocked returns torrent ih's table, creating it. Callers must hold mu.
func (s *Server) torrentLocked(ih [20]byte) *torrent {
	t := s.torrents[ih]
	if t == nil {
		t = &torrent{peers: core.NewRoster[netip.AddrPort, *peerEntry]()}
		s.torrents[ih] = t
	}
	return t
}

// SetTTL overrides how long a registered peer stays listed without
// re-announcing. Crashed or partitioned clients never send "stopped", so
// the TTL is the only mechanism that ages them out of peer lists.
// Non-positive durations are ignored.
func (s *Server) SetTTL(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.ttl = d
	s.mu.Unlock()
}

// SetMetrics attaches an obs registry: every announce then updates a
// global tracker_announces_total counter plus per-infohash
// tracker_announces_total / tracker_peers / tracker_announce_rate series
// (the label is the info-hash's leading 8 hex digits), and /stats
// reports the live rate per torrent. Call before serving traffic.
func (s *Server) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.mAnnounces = reg.Counter("tracker_announces_total")
	s.ihm = map[[20]byte]*ihMetrics{}
}

// noteAnnounceLocked updates the obs series for one announce. Callers
// must hold mu (the per-infohash window state is mu-guarded).
func (s *Server) noteAnnounceLocked(ih [20]byte) {
	if s.reg == nil {
		return
	}
	m := s.ihm[ih]
	if m == nil {
		label := fmt.Sprintf("%x", ih[:4])
		m = &ihMetrics{
			announces: s.reg.Counter(obs.SeriesName("tracker_announces_total", "info_hash", label)),
			peers:     s.reg.Gauge(obs.SeriesName("tracker_peers", "info_hash", label)),
			rate:      s.reg.Gauge(obs.SeriesName("tracker_announce_rate", "info_hash", label)),
			winStart:  s.now(),
		}
		s.ihm[ih] = m
	}
	s.mAnnounces.Inc()
	m.announces.Inc()
	m.winCount++
	el := s.now().Sub(m.winStart)
	if el < time.Second {
		el = time.Second // young window: assume at least a second so the rate is bounded
	}
	m.rate.Set(float64(m.winCount) / el.Seconds())
	if el >= rateWindow {
		m.winStart = s.now()
		m.winCount = 0
	}
	m.peers.Set(float64(s.torrents[ih].peers.Len()))
}

// Handler returns the tracker's HTTP handler (routes: /announce, /stats).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", s.handleAnnounce)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// failure writes a bencoded tracker failure, as real trackers do.
func failure(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "text/plain")
	w.Write(bencode.MustEncode(map[string]any{"failure reason": msg}))
}

func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	// Drain gate: the draining check and the in-flight registration are
	// one atomic step under mu, so Close's Wait covers every announce
	// that got past the gate.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		failure(w, "tracker shutting down")
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	q := r.URL.Query()

	rawHash := q.Get("info_hash")
	if len(rawHash) != 20 {
		failure(w, "invalid info_hash")
		return
	}
	var ih [20]byte
	copy(ih[:], rawHash)

	rawID := q.Get("peer_id")
	if len(rawID) != 20 {
		failure(w, "invalid peer_id")
		return
	}
	var pid [20]byte
	copy(pid[:], rawID)

	port, err := strconv.Atoi(q.Get("port"))
	if err != nil || port <= 0 || port > 65535 {
		failure(w, "invalid port")
		return
	}
	left, _ := strconv.ParseInt(q.Get("left"), 10, 64)

	// Peer address: explicit ip param or the connection's source address.
	ipStr := q.Get("ip")
	if ipStr == "" {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			failure(w, "cannot determine peer address")
			return
		}
		ipStr = host
	}
	ip, ok := parseIP(ipStr)
	if !ok {
		failure(w, "invalid ip")
		return
	}
	// An explicit ip param is attacker-controlled: a peer registering an
	// unspecified, multicast or broadcast address poisons every peer list
	// handed out afterwards (undialable at best, a reflection vector at
	// worst). The connection's own source address never hits these cases.
	if q.Get("ip") != "" && !routableIP(ip) {
		failure(w, "unroutable ip")
		return
	}
	addr := netip.AddrPortFrom(ip, uint16(port))

	numWant := DefaultNumWant
	if nw := q.Get("numwant"); nw != "" {
		if n, err := strconv.Atoi(nw); err == nil && n >= 0 {
			numWant = n
		}
	}
	if numWant > MaxNumWant {
		numWant = MaxNumWant
	}

	event := q.Get("event")

	s.mu.Lock()
	t := s.torrentLocked(ih)
	now := s.now()
	if event == "stopped" {
		t.remove(addr)
	} else {
		t.put(&peerEntry{peerID: pid, addr: addr, left: left, lastSeen: now})
	}
	t.expire(now, s.ttl)
	s.noteAnnounceLocked(ih)
	// §II-B: the peer list is drawn uniformly at random from the peers
	// currently in the torrent, at O(numWant) per announce.
	sample := t.peers.Sample(s.rng, numWant, addr)
	complete, incomplete := t.count()
	s.mu.Unlock()

	resp := map[string]any{
		"interval":   s.interval,
		"complete":   complete,
		"incomplete": incomplete,
	}
	if q.Get("compact") == "1" {
		buf := make([]byte, 0, 6*len(sample))
		for _, p := range sample {
			if ip := p.addr.Addr(); ip.Is4() { // compact format is IPv4 only
				ip4 := ip.As4()
				buf = binary.BigEndian.AppendUint16(append(buf, ip4[:]...), p.addr.Port())
			}
		}
		resp["peers"] = buf
	} else {
		list := make([]any, 0, len(sample))
		for _, p := range sample {
			list = append(list, map[string]any{
				"peer id": string(p.peerID[:]),
				"ip":      p.addr.Addr().String(),
				"port":    int(p.addr.Port()),
			})
		}
		resp["peers"] = list
	}
	w.Header().Set("Content-Type", "text/plain")
	w.Write(bencode.MustEncode(resp))
}

// parseIP parses a textual IPv4 or IPv6 address, without a zone, into its
// unmapped form, so an IPv4-mapped IPv6 address and the plain IPv4 one
// name the same peer.
func parseIP(s string) (netip.Addr, bool) {
	ip, err := netip.ParseAddr(s)
	if err != nil || ip.Zone() != "" {
		return netip.Addr{}, false
	}
	return ip.Unmap(), true
}

// routableIP reports whether an announced address could plausibly be
// dialed by other peers: not unspecified (0.0.0.0 / ::), not multicast,
// and not the IPv4 limited-broadcast address. ip must be unmapped.
func routableIP(ip netip.Addr) bool {
	return !ip.IsUnspecified() && !ip.IsMulticast() && ip != netip.AddrFrom4([4]byte{255, 255, 255, 255})
}

// Close drains the tracker for a graceful restart: new announces are
// refused with a bencoded failure, and Close blocks until every announce
// already in flight has finished registering. After Close returns,
// Snapshot sees a settled peer table. Close does not stop an http.Server
// wrapped around Handler — callers own that lifecycle.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// PeerSnapshot is one registered peer in a tracker snapshot, exported in
// a form that survives serialization (IPs as strings, times explicit).
type PeerSnapshot struct {
	InfoHash [20]byte
	PeerID   [20]byte
	IP       string
	Port     int
	Left     int64
	LastSeen time.Time
}

// Snapshot returns every registered peer, sorted by info hash then peer
// address, for persisting across a tracker restart.
func (s *Server) Snapshot() []PeerSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []PeerSnapshot
	for ih, t := range s.torrents {
		for i := 0; i < t.peers.Len(); i++ {
			_, p := t.peers.At(i)
			out = append(out, PeerSnapshot{
				InfoHash: ih,
				PeerID:   p.peerID,
				IP:       p.addr.Addr().String(),
				Port:     int(p.addr.Port()),
				Left:     p.left,
				LastSeen: p.lastSeen,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InfoHash != out[j].InfoHash {
			return string(out[i].InfoHash[:]) < string(out[j].InfoHash[:])
		}
		if out[i].IP != out[j].IP {
			return out[i].IP < out[j].IP
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// Restore rehydrates the peer table from a snapshot, so a bounced
// tracker serves useful peer lists immediately instead of wedging the
// swarm behind re-announce intervals. Entries whose LastSeen already
// fell outside the TTL are skipped — a stale snapshot degrades to a
// partial (or empty) restore, never to handing out dead peers. Invalid
// addresses are skipped too. Returns the number of entries restored.
func (s *Server) Restore(snap []PeerSnapshot) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-s.ttl)
	restored := 0
	for _, e := range snap {
		if e.LastSeen.Before(cutoff) {
			continue
		}
		ip, ok := parseIP(e.IP)
		if !ok || e.Port <= 0 || e.Port > 65535 {
			continue
		}
		s.torrentLocked(e.InfoHash).put(&peerEntry{
			peerID: e.PeerID, addr: netip.AddrPortFrom(ip, uint16(e.Port)), left: e.Left, lastSeen: e.LastSeen,
		})
		restored++
	}
	return restored
}

// Count returns (seeds, leechers) currently registered for the torrent.
func (s *Server) Count(ih [20]byte) (complete, incomplete int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.torrents[ih]; t != nil {
		return t.count()
	}
	return 0, 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "torrents: %d\n", len(s.torrents))
	for ih, t := range s.torrents {
		c, i := t.count()
		fmt.Fprintf(w, "%x: %d peers (%d seeds, %d leechers)", ih[:4], t.peers.Len(), c, i)
		if m := s.ihm[ih]; m != nil {
			fmt.Fprintf(w, ", %.2f announces/s, %d announces total",
				m.rate.Value(), m.announces.Value())
		}
		fmt.Fprintln(w)
	}
}
