#!/bin/sh
# Print the slowest top-level tests from `go test -v` output on stdin,
# slowest first, one "seconds package test" line each (default 20), so
# the tier-1 suite's cost is a tracked number:
#
#   go test -v ./... | tee tier1.log
#   scripts/slowest_tests.sh 20 < tier1.log
#
# Multi-package runs print each package's test lines before its
# ok/FAIL summary line, which names the package.
awk '
/^--- (PASS|FAIL): / { d = $4; gsub(/[()s]/, "", d); secs[n] = d; names[n] = $3; n++; next }
/^(ok|FAIL)[ \t]/ && NF >= 2 {
	for (i = 0; i < n; i++) printf "%9.2fs  %s  %s\n", secs[i], $2, names[i]
	n = 0
}
' | sort -rn | head -n "${1:-20}"
