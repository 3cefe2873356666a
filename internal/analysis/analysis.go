// Package analysis computes the statistics the paper plots: percentile
// summaries of the entropy ratios (Fig 1), interarrival CDFs (Figs 7–8),
// fairness contribution sets (Figs 9 and 11), and the unchoke/interest
// correlation (Fig 10).
package analysis

import (
	"math"
	"sort"

	"rarestfirst/internal/trace"
)

// percentileSorted returns the p-quantile (0 <= p <= 1) of the sorted,
// non-empty s using linear interpolation between order statistics.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary is the three-point percentile summary used by Fig 1's vertical
// bars: 20th percentile, median, 80th percentile.
type Summary struct {
	N             int
	P20, P50, P80 float64
}

// Summarize computes the Fig 1 summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:   len(s),
		P20: percentileSorted(s, 0.20),
		P50: percentileSorted(s, 0.50),
		P80: percentileSorted(s, 0.80),
	}
}

// EntropyRatios extracts the two Fig 1 ratio populations from peer records:
// aOverB[i] = (time local interested in remote i) / (time remote i in peer
// set, both leechers), and cOverD likewise for the remote's interest in the
// local peer. Records with an empty denominator (peers that were seeds for
// their whole residency, or resident only while the local peer seeded) are
// skipped: "only the case of leechers is relevant for the entropy
// characterization" (paper footnote 4).
func EntropyRatios(recs []*trace.PeerRecord) (aOverB, cOverD []float64) {
	for _, r := range recs {
		if r.ResidencyLSLocal <= 0 {
			continue
		}
		aOverB = append(aOverB, clamp01(r.LocalInterestedTime/r.ResidencyLSLocal))
		cOverD = append(cOverD, clamp01(r.RemoteInterestedTime/r.ResidencyLSLocal))
	}
	return aOverB, cOverD
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CDF is an empirical distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied and sorted).
func NewCDF(samples []float64) CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// At returns P[X <= x].
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile of the samples.
func (c CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(c.sorted, p)
}

// Interarrivals converts a nondecreasing series of event times into the
// gaps between consecutive events (the paper's piece/block interarrival
// times). The first event contributes no gap.
func Interarrivals(times []float64) []float64 {
	if len(times) < 2 {
		return nil
	}
	out := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		d := times[i] - times[i-1]
		if d < 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}

// HeadTail splits interarrival gaps of an arrival series the way Figs 7–8
// do: gaps among the first n arrivals, and gaps among the last n arrivals.
func HeadTail(times []float64, n int) (first, last []float64) {
	gaps := Interarrivals(times)
	if len(gaps) == 0 {
		return nil, nil
	}
	k := n - 1 // n arrivals span n-1 gaps
	if k > len(gaps) {
		k = len(gaps)
	}
	first = append([]float64(nil), gaps[:k]...)
	last = append([]float64(nil), gaps[len(gaps)-k:]...)
	return first, last
}

// Pearson returns the Pearson correlation coefficient of (x[i], y[i]).
// It returns NaN when undefined (fewer than 2 points or zero variance).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// fairnessSets reproduces the construction of Figs 9 and 11: peers are
// ranked by rankBy (descending) and grouped into numSets sets of setSize;
// the return value is each set's share of the TOTAL of shareOf, in rank
// order (set 0 = the 5 peers with the highest rankBy). Both slices are
// indexed by peer and must have equal length.
func fairnessSets(rankBy, shareOf []float64, setSize, numSets int) []float64 {
	if len(rankBy) != len(shareOf) || setSize <= 0 || numSets <= 0 {
		return nil
	}
	idx := make([]int, len(rankBy))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rankBy[idx[a]] > rankBy[idx[b]] })
	var total float64
	for _, v := range shareOf {
		total += v
	}
	out := make([]float64, numSets)
	if total == 0 {
		return out
	}
	for rank, i := range idx {
		set := rank / setSize
		if set >= numSets {
			break
		}
		out[set] += shareOf[i] / total
	}
	return out
}

// UploadFairness applies the Fig 9/11 construction to peer records: peers
// are ranked by bytes uploaded from the local peer (leecher or seed state
// per ss), and each 5-peer set's share of total uploads is returned.
func UploadFairness(recs []*trace.PeerRecord, ss bool, numSets int) []float64 {
	up := make([]float64, len(recs))
	for i, r := range recs {
		if ss {
			up[i] = float64(r.UploadedSS)
		} else {
			up[i] = float64(r.UploadedLS)
		}
	}
	return fairnessSets(up, up, 5, numSets)
}

// ReciprocationFairness is Fig 9's bottom graph: the same 5-peer sets,
// ranked by bytes uploaded TO them in leecher state, and each set's share
// of bytes downloaded FROM them (seeds excluded: reciprocation to a seed is
// impossible).
func ReciprocationFairness(recs []*trace.PeerRecord, numSets int) []float64 {
	var rank, share []float64
	for _, r := range recs {
		if r.RemoteWasSeed {
			continue
		}
		rank = append(rank, float64(r.UploadedLS))
		share = append(share, float64(r.DownloadedLS))
	}
	return fairnessSets(rank, share, 5, numSets)
}

// UnchokePoints extracts the Fig 10 scatter: for each remote peer, the time
// it was interested in the local peer and the number of times the local
// peer unchoked it, split by the local peer's state.
func UnchokePoints(recs []*trace.PeerRecord, ss bool) (interested, unchokes []float64) {
	for _, r := range recs {
		if ss {
			interested = append(interested, r.InterestedInLocalSS)
			unchokes = append(unchokes, float64(r.UnchokesSS))
		} else {
			interested = append(interested, r.InterestedInLocalLS)
			unchokes = append(unchokes, float64(r.UnchokesLS))
		}
	}
	return interested, unchokes
}
