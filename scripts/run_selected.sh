#!/usr/bin/env bash
# run_selected.sh <go test arguments> — go test for CI steps that pick tests
# with a -run or -fuzz filter. go test exits 0 when the filter matches nothing,
# so a renamed test would turn such a step green and empty; this wrapper fails
# the step when any listed package ran no test, when -fuzz was given and no
# fuzz target started (go test prints no warning for that at all), or when
# an alternative of the -run filter that is a plain name started no test in
# any package — so renaming one test of a step that names several fails the
# step too. A plain name that begins with Test or Fuzz is a whole test name:
# it must start that very test (or a subtest of it), not merely some test
# whose name contains it, so a test renamed away cannot hide behind a longer
# one. Any other plain name (Rebalanc) is a fragment and matches as one.
set -euo pipefail
cd "$(dirname "$0")/.."

run=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    -run | --run) run="${args[i + 1]:-}" ;;
    -run=* | --run=*) run="${args[i]#*=}" ;;
    esac
done
names=()
if [[ -n "${run}" ]]; then
    IFS='|' read -r -a alts <<<"${run}"
    for alt in "${alts[@]}"; do
        if [[ "${alt}" =~ ^\^?[A-Za-z0-9_]+\$?$ ]]; then
            names+=("${alt}")
        fi
    done
fi
verbose=()
if ((${#names[@]} > 0)); then
    verbose=(-v)
fi

out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
go test "${verbose[@]}" "$@" 2>&1 | tee "${out}"
if grep -q 'no tests to run' "${out}"; then
    echo "run_selected: the -run filter selected no test in a package above" >&2
    exit 1
fi
for alt in "${names[@]}"; do
    name="${alt#^}"
    name="${name%\$}"
    if [[ "${alt}" == ^*\$ ]]; then
        pattern="^=== RUN +${name}\$"
    elif [[ "${name}" =~ ^(Test|Fuzz) ]]; then
        pattern="^=== RUN +${name}(/|\$)"
    else
        pattern="^=== RUN +[^ ]*${name}"
    fi
    if ! grep -Eq "${pattern}" "${out}"; then
        echo "run_selected: '${alt}' of the -run filter started no test" >&2
        exit 1
    fi
done
case " $* " in
*" -fuzz"*)
    if ! grep -q '^fuzz: elapsed' "${out}"; then
        echo "run_selected: the -fuzz filter selected no fuzz target" >&2
        exit 1
    fi
    ;;
esac
