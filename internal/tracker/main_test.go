package tracker

import (
	"os"
	"testing"

	"rarestfirst/internal/leakcheck"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Watchdog(m)) }
