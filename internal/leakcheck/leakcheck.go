// Package leakcheck guards test binaries. A package opts in with
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
//
// which fails the run on leaked goroutines, or with Watchdog in place of
// Main where only the orphan watchdog fits. Both entry points make a test
// binary whose parent process is gone (a killed go command) dump every
// goroutine stack to stderr and exit 2 instead of running on until its
// own -timeout.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// orphanPoll is how often the watchdog checks the parent process.
const orphanPoll = time.Second

// Main arms the orphan watchdog, runs the tests, then polls goroutines
// for up to 5 s until the count is back at its pre-run value. On a leak
// it dumps every goroutine's stack to stderr and returns a failing exit
// code. A run whose tests already failed returns their code unchecked.
func Main(m *testing.M) int {
	watchParent()
	before := goroutines()
	if code := m.Run(); code != 0 {
		return code
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := goroutines(); n > before; n = goroutines() {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before:\n%s\n", n, before, stacks())
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0
}

// goroutines counts the live goroutines, leaving out the os/signal loop:
// signal.Notify starts it once and it runs for the life of the process,
// as it does under the fuzz engine (go test -fuzz), so it is no leak.
func goroutines() int {
	n := 0
	for _, g := range bytes.Split(stacks(), []byte("\n\n")) {
		if len(bytes.TrimSpace(g)) > 0 && !bytes.Contains(g, []byte("\nos/signal.")) {
			n++
		}
	}
	return n
}

// Watchdog arms the orphan watchdog and runs the tests, with no goroutine
// check afterwards.
func Watchdog(m *testing.M) int {
	watchParent()
	return m.Run()
}

// watchParent starts the goroutine that ends an orphaned test binary. It
// runs for the life of the process, as does its ticker.
func watchParent() {
	start := os.Getppid()
	tick := time.NewTicker(orphanPoll)
	go func() {
		if waitOrphaned(start, os.Getppid, tick.C) {
			fmt.Fprintf(os.Stderr, "leakcheck: parent process %d is gone; exiting. Goroutines:\n%s\n", start, stacks())
			os.Exit(2)
		}
	}()
}

// waitOrphaned checks getppid once per tick and reports true as soon as
// it differs from start: the parent exited and the process was
// re-parented. It reports false if tick is closed first.
func waitOrphaned(start int, getppid func() int, tick <-chan time.Time) bool {
	for range tick {
		if getppid() != start {
			return true
		}
	}
	return false
}

// stacks returns every goroutine's stack, one blank-line-separated block
// per goroutine.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
