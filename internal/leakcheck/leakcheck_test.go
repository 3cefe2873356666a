package leakcheck

import (
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
