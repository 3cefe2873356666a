#!/usr/bin/env bash
# strays.sh lists processes a build, test or benchmark run left behind:
# test binaries (*.test), the bench binary and its taskset wrapper, the
# bttracker/btclient binaries and the go tool itself. It matches on the
# process name only (ps comm), never the command line, so the shell that
# runs this script cannot match itself. Prints every match and exits 1 if
# there is one, 0 on a clean box.
#
#   bash scripts/strays.sh
set -u
ps -eo pid=,comm= | awk '
	{ name = $2 }
	# comm is cut to 15 characters, so a long test binary name can end
	# in a prefix of ".test".
	name ~ /\.test$/ || (length(name) == 15 && name ~ /\.(t|te|tes)$/) ||
	name ~ /^(bench|bttracker|btclient|taskset|go)$/ { print; n++ }
	END { exit n > 0 }
'
