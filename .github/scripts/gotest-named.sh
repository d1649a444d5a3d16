#!/usr/bin/env bash
# gotest-named.sh -run|-fuzz PATTERN [go test flags] PKG...
#
# Runs `go test -run PATTERN ...` (or -fuzz) after checking that every
# |-separated alternative of PATTERN names at least one Test,
# Benchmark, Fuzz or Example function in the listed packages.
# `go test -run NoSuch` prints "[no tests to run]" and exits 0, so
# without the check a renamed test would quietly empty the named CI
# gate that runs it.
set -euo pipefail
flag=$1
pattern=$2
shift 2
pkgs=()
for arg in "$@"; do
	[[ $arg == ./* ]] && pkgs+=("$arg")
done
listed=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<<"$listed"; then
		echo "FAIL: $flag alternative '$alt' matches nothing in ${pkgs[*]}" >&2
		exit 1
	fi
done
exec go test "$flag=$pattern" "$@"
