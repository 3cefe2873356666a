package leakcheck

import (
	"os"
	"os/signal"
	"testing"
	"time"
)

// fakeParent returns a getppid that reports start for the first n calls
// and 1 (re-parented to init) afterwards, and a counter of its calls.
func fakeParent(start, n int) (func() int, *int) {
	calls := 0
	return func() int {
		calls++
		if calls > n {
			return 1
		}
		return start
	}, &calls
}

func TestWaitOrphanedFiresWhenParentChanges(t *testing.T) {
	getppid, calls := fakeParent(4242, 3)
	tick := make(chan time.Time, 10)
	for i := 0; i < 10; i++ {
		tick <- time.Time{}
	}
	if !waitOrphaned(4242, getppid, tick) {
		t.Fatal("waitOrphaned missed the parent change")
	}
	if *calls != 4 {
		t.Fatalf("getppid called %d times, want 4: one per tick until the change", *calls)
	}
}

func TestWaitOrphanedWaitsWhileParentLives(t *testing.T) {
	getppid, calls := fakeParent(4242, 1<<30)
	tick := make(chan time.Time, 5)
	for i := 0; i < 5; i++ {
		tick <- time.Time{}
	}
	close(tick)
	if waitOrphaned(4242, getppid, tick) {
		t.Fatal("waitOrphaned fired with the parent still there")
	}
	if *calls != 5 {
		t.Fatalf("getppid called %d times, want 5", *calls)
	}
}

// TestGoroutinesSkipsSignalLoop checks the count Main compares: the
// os/signal loop that signal.Notify starts (as the fuzz engine does) is
// left out, and a goroutine really left behind is still counted.
func TestGoroutinesSkipsSignalLoop(t *testing.T) {
	before := goroutines()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	defer signal.Stop(ch)
	if n := goroutines(); n != before {
		t.Fatalf("%d goroutines after signal.Notify, %d before: the signal loop was counted\n%s", n, before, stacks())
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-release
		close(done)
	}()
	if n := goroutines(); n != before+1 {
		t.Fatalf("%d goroutines with one left behind, want %d", n, before+1)
	}
	close(release)
	<-done
}
