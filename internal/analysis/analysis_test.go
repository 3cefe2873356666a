package analysis

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rarestfirst/internal/trace"
)

// sortedCopy returns xs sorted, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func TestPercentile(t *testing.T) {
	s := sortedCopy([]float64{4, 1, 3, 2, 5})
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.9, 4.6},
	}
	for _, c := range cases {
		if got := percentileSorted(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentileSorted(%.2f) = %f, want %f", c.p, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) / 100
	}
	s := Summarize(xs)
	if s.N != 101 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.P20-0.2) > 1e-9 || math.Abs(s.P50-0.5) > 1e-9 || math.Abs(s.P80-0.8) > 1e-9 {
		t.Fatalf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}

func TestEntropyRatios(t *testing.T) {
	recs := []*trace.PeerRecord{
		{ID: 1, ResidencyLSLocal: 100, LocalInterestedTime: 90, RemoteInterestedTime: 100},
		{ID: 2, ResidencyLSLocal: 50, LocalInterestedTime: 10, RemoteInterestedTime: 0},
		// Pure seed: the collector never accrues a leecher-state
		// denominator, so it is skipped.
		{ID: 3, ResidencyLSLocal: 0, RemoteWasSeed: true},
		// Leecher that seeded later: its leecher phase still counts.
		{ID: 4, RemoteWasSeed: true, ResidencyLSLocal: 80, LocalInterestedTime: 40, RemoteInterestedTime: 80},
	}
	a, c := EntropyRatios(recs)
	if len(a) != 3 || len(c) != 3 {
		t.Fatalf("got %d/%d ratios", len(a), len(c))
	}
	if math.Abs(a[0]-0.9) > 1e-9 || math.Abs(a[1]-0.2) > 1e-9 || math.Abs(a[2]-0.5) > 1e-9 {
		t.Fatalf("a/b = %v", a)
	}
	if math.Abs(c[0]-1.0) > 1e-9 || c[1] != 0 || math.Abs(c[2]-1.0) > 1e-9 {
		t.Fatalf("c/d = %v", c)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%f) = %f, want %f", tc.x, got, tc.want)
		}
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("median = %f", got)
	}
	if !math.IsNaN(NewCDF(nil).At(1)) {
		t.Error("empty CDF not NaN")
	}
}

func TestInterarrivals(t *testing.T) {
	got := Interarrivals([]float64{1, 2, 4, 8})
	want := []float64{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("gaps = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", got, want)
		}
	}
	if Interarrivals([]float64{5}) != nil {
		t.Error("single event has no gaps")
	}
}

func TestHeadTail(t *testing.T) {
	times := []float64{0, 1, 3, 6, 10, 15, 21}
	first, last := HeadTail(times, 3)
	// First 3 arrivals span gaps {1,2}; last 3 span gaps {5,6}.
	if len(first) != 2 || first[0] != 1 || first[1] != 2 {
		t.Fatalf("first = %v", first)
	}
	if len(last) != 2 || last[0] != 5 || last[1] != 6 {
		t.Fatalf("last = %v", last)
	}
	// n larger than the series: both become the whole gap set.
	f2, l2 := HeadTail(times, 100)
	if len(f2) != 6 || len(l2) != 6 {
		t.Fatalf("oversized n: %d/%d", len(f2), len(l2))
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yPos); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect positive = %f", got)
	}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("perfect negative = %f", got)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1, 1})) {
		t.Error("zero variance not NaN")
	}
	if !math.IsNaN(Pearson(x[:1], yPos[:1])) {
		t.Error("single point not NaN")
	}
	if !math.IsNaN(Pearson(x, yPos[:3])) {
		t.Error("length mismatch not NaN")
	}
}

func TestFairnessSets(t *testing.T) {
	// 10 peers, uploads 10,9,...,1 (total 55). Sets of 5: top set gets
	// (10+9+8+7+6)/55, second (5+4+3+2+1)/55.
	up := []float64{3, 10, 7, 1, 9, 5, 2, 8, 4, 6}
	shares := FairnessSets(up, up, 5, 2)
	if math.Abs(shares[0]-40.0/55) > 1e-9 || math.Abs(shares[1]-15.0/55) > 1e-9 {
		t.Fatalf("shares = %v", shares)
	}
	// Sets always sum to <= 1 and here exactly 1.
	if math.Abs(shares[0]+shares[1]-1) > 1e-9 {
		t.Fatalf("shares don't sum to 1: %v", shares)
	}
	if FairnessSets(up, up[:3], 5, 2) != nil {
		t.Error("length mismatch accepted")
	}
	zero := FairnessSets([]float64{0, 0}, []float64{0, 0}, 5, 2)
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero totals: %v", zero)
	}
}

func TestUploadAndReciprocationFairness(t *testing.T) {
	recs := []*trace.PeerRecord{
		{ID: 1, UploadedLS: 1000, DownloadedLS: 900, UploadedSS: 10},
		{ID: 2, UploadedLS: 500, DownloadedLS: 400, UploadedSS: 10},
		{ID: 3, UploadedLS: 10, DownloadedLS: 5, UploadedSS: 10},
		{ID: 4, UploadedLS: 800, DownloadedLS: 850, UploadedSS: 10, RemoteWasSeed: true},
	}
	ls := UploadFairness(recs, false, 1)
	if math.Abs(ls[0]-1.0) > 1e-9 { // 4 peers all fit in one set of 5
		t.Fatalf("LS fairness = %v", ls)
	}
	ss := UploadFairness(recs, true, 1)
	if math.Abs(ss[0]-1.0) > 1e-9 {
		t.Fatalf("SS fairness = %v", ss)
	}
	// Reciprocation excludes the seed (ID 4).
	rec := ReciprocationFairness(recs, 1)
	if math.Abs(rec[0]-1.0) > 1e-9 {
		t.Fatalf("reciprocation = %v", rec)
	}
}

func TestUnchokePoints(t *testing.T) {
	recs := []*trace.PeerRecord{
		{ID: 1, InterestedInLocalLS: 100, UnchokesLS: 5, InterestedInLocalSS: 50, UnchokesSS: 2},
		{ID: 2, InterestedInLocalLS: 10, UnchokesLS: 1},
	}
	x, y := UnchokePoints(recs, false)
	if len(x) != 2 || x[0] != 100 || y[0] != 5 {
		t.Fatalf("LS points: %v %v", x, y)
	}
	x, y = UnchokePoints(recs, true)
	if x[0] != 50 || y[0] != 2 || x[1] != 0 {
		t.Fatalf("SS points: %v %v", x, y)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 1)
		p2 = math.Mod(math.Abs(p2), 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		s := sortedCopy(xs)
		lo, hi := percentileSorted(s, p1), percentileSorted(s, p2)
		return lo <= hi+1e-12 && lo >= s[0]-1e-12 && hi <= s[len(s)-1]+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is a nondecreasing step function reaching 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := 0.0
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, x := range s {
			v := c.At(x)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return math.Abs(c.At(s[len(s)-1])-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
