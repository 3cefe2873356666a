package tracker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rarestfirst/internal/bencode"
)

// AnnounceRequest is the client side of a tracker announce.
type AnnounceRequest struct {
	URL                        string // tracker announce URL
	InfoHash                   [20]byte
	PeerID                     [20]byte
	Port                       int
	Uploaded, Downloaded, Left int64
	Event                      string // "", "started", "stopped", "completed"
	NumWant                    int    // 0 = tracker default
	Compact                    bool
}

// AnnouncedPeer is one peer returned by the tracker.
type AnnouncedPeer struct {
	IP   net.IP
	Port int
}

// Addr returns the peer's dialable host:port.
func (p AnnouncedPeer) Addr() string {
	return net.JoinHostPort(p.IP.String(), strconv.Itoa(p.Port))
}

// AnnounceResponse is the parsed tracker reply.
type AnnounceResponse struct {
	Interval   int
	Complete   int
	Incomplete int
	Peers      []AnnouncedPeer
}

// Announce performs a blocking HTTP announce with a 10-second timeout.
func Announce(req AnnounceRequest) (*AnnounceResponse, error) {
	u, err := url.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("tracker: bad announce URL: %w", err)
	}
	q := u.Query()
	q.Set("info_hash", string(req.InfoHash[:]))
	q.Set("peer_id", string(req.PeerID[:]))
	q.Set("port", strconv.Itoa(req.Port))
	q.Set("uploaded", strconv.FormatInt(req.Uploaded, 10))
	q.Set("downloaded", strconv.FormatInt(req.Downloaded, 10))
	q.Set("left", strconv.FormatInt(req.Left, 10))
	if req.Event != "" {
		q.Set("event", req.Event)
	}
	if req.NumWant > 0 {
		q.Set("numwant", strconv.Itoa(req.NumWant))
	}
	if req.Compact {
		q.Set("compact", "1")
	}
	u.RawQuery = q.Encode()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u.String())
	if err != nil {
		return nil, fmt.Errorf("tracker: announce: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("tracker: reading response: %w", err)
	}
	return ParseAnnounceResponse(body)
}

// ParseAnnounceResponse decodes a bencoded announce reply (dict or compact
// peer formats).
func ParseAnnounceResponse(body []byte) (*AnnounceResponse, error) {
	v, err := bencode.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("tracker: bad bencode in response: %w", err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return nil, errors.New("tracker: response is not a dict")
	}
	if f := d.Str("failure reason"); f != "" {
		return nil, fmt.Errorf("tracker: failure: %s", f)
	}
	out := &AnnounceResponse{
		Interval:   int(d.Int("interval")),
		Complete:   int(d.Int("complete")),
		Incomplete: int(d.Int("incomplete")),
	}
	switch peers := d["peers"].(type) {
	case string: // compact: 6 bytes per peer
		if len(peers)%6 != 0 {
			return nil, errors.New("tracker: compact peers not a multiple of 6 bytes")
		}
		// Every IP is a 16-byte IPv4-in-IPv6 slice, as net.IPv4 returns,
		// cut from one backing array.
		n := len(peers) / 6
		ips := make([]byte, n*net.IPv6len)
		out.Peers = make([]AnnouncedPeer, n)
		for k := range out.Peers {
			ip := ips[k*net.IPv6len : (k+1)*net.IPv6len : (k+1)*net.IPv6len]
			ip[10], ip[11] = 0xff, 0xff
			e := peers[6*k : 6*k+6]
			copy(ip[12:], e[:4])
			out.Peers[k] = AnnouncedPeer{IP: ip, Port: int(e[4])<<8 | int(e[5])}
		}
	case []any:
		out.Peers = make([]AnnouncedPeer, 0, len(peers))
		for _, e := range peers {
			pd, ok := bencode.AsDict(e)
			if !ok {
				return nil, errors.New("tracker: peer entry is not a dict")
			}
			ip := net.ParseIP(pd.Str("ip"))
			if ip == nil {
				return nil, fmt.Errorf("tracker: bad peer ip %q", pd.Str("ip"))
			}
			out.Peers = append(out.Peers, AnnouncedPeer{IP: ip, Port: int(pd.Int("port"))})
		}
	case nil:
		// No peers yet; fine.
	default:
		return nil, errors.New("tracker: unrecognized peers format")
	}
	return out, nil
}
