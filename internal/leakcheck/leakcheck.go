// Package leakcheck is a goroutine-leak guard for test binaries: a package
// opts in with
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the tests, then polls runtime.NumGoroutine for up to 5 s until
// it is back at its pre-run value. On a leak it dumps every goroutine's
// stack to stderr and returns a failing exit code. A run whose tests
// already failed returns their code unchecked.
func Main(m *testing.M) int {
	before := runtime.NumGoroutine()
	if code := m.Run(); code != 0 {
		return code
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before:\n%s\n", runtime.NumGoroutine(), before, buf)
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0
}
