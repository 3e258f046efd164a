#!/usr/bin/env bash
# run_selected.sh <go test arguments> — go test for CI steps that pick tests
# with a -run or -fuzz filter. go test exits 0 when the filter matches nothing,
# so a renamed test would turn such a step green and empty; this wrapper fails
# the step when any listed package ran no test, or when -fuzz was given and
# no fuzz target started (go test prints no warning for that at all).
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
go test "$@" 2>&1 | tee "${out}"
if grep -q 'no tests to run' "${out}"; then
    echo "run_selected: the -run filter selected no test in a package above" >&2
    exit 1
fi
case " $* " in
*" -fuzz"*)
    if ! grep -q '^fuzz: elapsed' "${out}"; then
        echo "run_selected: the -fuzz filter selected no fuzz target" >&2
        exit 1
    fi
    ;;
esac
