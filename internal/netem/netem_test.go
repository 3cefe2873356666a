package netem

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestPlanRegistry(t *testing.T) {
	if _, ok := Plans["no-such-plan"]; ok {
		t.Fatal("unknown plan resolved")
	}
	for name, p := range Plans {
		if p.Name != name {
			t.Fatalf("plan %q: stored name %q", name, p.Name)
		}
		if !p.Enabled() {
			t.Fatalf("registered plan %q is a no-op", name)
		}
	}
	// The acceptance plan must carry all three chaos ingredients: a
	// tracker blackout, 10% connection resets, and a failing seed.
	chaos := Plans["chaos"]
	if !chaos.Blackout() || chaos.ConnResetRate != 0.10 || chaos.SeedFailFrac <= 0 {
		t.Fatalf("chaos plan lost an acceptance ingredient: %+v", chaos)
	}
	if (Plan{}).Enabled() {
		t.Fatal("zero plan claims to be enabled")
	}
}

// TestInjectorDeterministic: the fault schedule is a pure function of
// (plan, seed) — same seed, same dial-fault decisions.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plans["flaky"]
	draw := func(seed int64) []bool {
		in := NewInjector(plan, seed, time.Minute)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.DialFault() != nil
		}
		return out
	}
	a, b := draw(42), draw(42)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across same-seed injectors", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("flaky plan injected no dial failures in 64 draws")
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical fault schedules")
	}
}

// observer collects injector fault callbacks and lets tests wait for one.
type observer struct {
	mu    sync.Mutex
	kinds []string
	ch    chan string
}

func newObserver() *observer { return &observer{ch: make(chan string, 16)} }

func (o *observer) hook(kind string) {
	o.mu.Lock()
	o.kinds = append(o.kinds, kind)
	o.mu.Unlock()
	o.ch <- kind
}

func (o *observer) wait(t *testing.T, kind string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case k := <-o.ch:
			if k == kind {
				return
			}
		case <-deadline:
			t.Fatalf("no %q fault within 5s", kind)
		}
	}
}

func TestWrapConnDelay(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	in := NewInjector(Plan{Name: "t", DelayMs: 30}, 1, time.Minute)
	wrapped := in.WrapConn(a)
	defer wrapped.Close()

	go b.Write([]byte("hello"))
	buf := make([]byte, 16)
	start := time.Now()
	n, err := wrapped.Read(buf)
	if err != nil || n != 5 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delayed read returned in %v, want >= ~30ms", el)
	}
}

func TestWrapConnStallThenClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	obs := newObserver()
	// ConnStallRate 1 guarantees the stall; a tiny window pulls the
	// exponential fault delay down to its 10ms floor quickly.
	in := NewInjector(Plan{Name: "t", ConnStallRate: 1, FaultDelayFrac: 0.01}, 1, 100*time.Millisecond)
	in.Observe = obs.hook
	wrapped := in.WrapConn(a)

	obs.wait(t, "injected_conn_stall")

	errCh := make(chan error, 1)
	go func() {
		_, err := wrapped.Write([]byte("x"))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("write on stalled conn returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	wrapped.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("stalled write succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled write not released by close")
	}
}

func TestWrapConnScheduledReset(t *testing.T) {
	a, b := net.Pipe()
	obs := newObserver()
	in := NewInjector(Plan{Name: "t", ConnResetRate: 1, FaultDelayFrac: 0.01}, 1, 100*time.Millisecond)
	in.Observe = obs.hook
	wrapped := in.WrapConn(a)
	defer wrapped.Close()

	// The peer blocks in Read until the scheduled reset closes the pipe.
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		errCh <- err
	}()
	obs.wait(t, "injected_conn_reset")
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("peer read survived the reset")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reset did not sever the peer's read")
	}
	// Close after reset must be an idempotent no-op.
	if err := wrapped.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestBlackoutHandler(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	start := time.Now()
	h := BlackoutHandler(inner, start, 0, time.Hour)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/announce", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("inside blackout window: got %d, want 503", rec.Code)
	}

	h = BlackoutHandler(inner, start.Add(-2*time.Hour), 0, time.Hour)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/announce", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("outside blackout window: got %d, want 200", rec.Code)
	}

	// An empty window is a pass-through, not a permanent blackout.
	if BlackoutHandler(inner, start, 0, 0).(http.HandlerFunc) == nil {
		t.Fatal("degenerate window did not return the inner handler")
	}
}
