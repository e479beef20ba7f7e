#!/usr/bin/env bash
# Bad input fails loudly. Usage:
#   bad_input_test.sh <wasp_sim> <wasp_sweep> <fig08_delay_dynamics> \
#       <fig09_processing_ratio>
# Every run below must end with the expected exit code -- 2 for a bad flag,
# key or topology/query/fault-schedule combination, 1 for an unreadable
# file -- and a one-line message on stderr, never by a signal. A sweep cell
# that cannot be built must come back as an ok=0 cell (the sweep exits 1)
# instead of killing the sweep.
set -u

SIM="$1"
SWEEP="$2"
FIG08="$3"
FIG09="$4"

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
FAILURES=0

printf '10 partition from=99 to=0 duration=5\n' > "${WORK}/partition99.fsched"
printf '10 crash site=99\n20 restore site=99\n' > "${WORK}/crash99.fsched"

# expect <code> <command...>: the exit code matches and stderr is one line.
expect() {
  local want="$1"
  shift
  "$@" > "${WORK}/out" 2> "${WORK}/err"
  local got=$?
  local lines
  lines=$(grep -c . "${WORK}/err")
  if [ "${got}" -ne "${want}" ] || [ "${lines}" -ne 1 ]; then
    echo "FAIL: exit ${got} (want ${want}), ${lines} stderr lines: $*" >&2
    cat "${WORK}/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: exit ${got}: $* -- $(cat "${WORK}/err")"
  fi
}

# expect_failed_cell <sweep args...>: the sweep finishes (exit 1, no signal)
# and its only cell reports ok=0 with an error.
expect_failed_cell() {
  "${SWEEP}" --jobs=1 --quiet --out="${WORK}/sweep.jsonl" "$@" \
    > /dev/null 2> "${WORK}/err"
  local got=$?
  if [ "${got}" -ne 1 ] || ! grep -q '"ok":0' "${WORK}/sweep.jsonl" ||
     ! grep -q '"error":' "${WORK}/sweep.jsonl"; then
    echo "FAIL: exit ${got} (want 1 with an ok=0 cell): wasp_sweep $*" >&2
    cat "${WORK}/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: ok=0 cell: wasp_sweep $*"
  fi
}

# Topology x query combinations with too few sites.
expect 2 "${SIM}" --topology=uniform:sites=1 --duration=10
expect 2 "${SIM}" --topology=uniform:sites=2 --duration=10
expect 2 "${SIM}" --topology=uniform:sites=3 --query=join --duration=10
expect 2 "${SIM}" --topology=edge:sites=4,regions=1,core=1,regional=0 \
  --query=join --duration=10
expect_failed_cell --grid topology=uniform:sites=1 --duration=10

# Fault-schedule ids outside the 16-site testbed.
expect 2 "${SIM}" --fault-schedule="${WORK}/partition99.fsched" --duration=30
expect 2 "${SIM}" --fault-schedule="${WORK}/crash99.fsched" --duration=30
expect_failed_cell --grid fault="${WORK}/partition99.fsched" --duration=30

# Flags, keys and values.
expect 2 "${SIM}" --sites=2
expect 2 "${SIM}" --query=ysbb
expect 2 "${SIM}" --mode=warp
expect 2 "${SIM}" --duration=10x
expect 2 "${SIM}" --threads=abc
expect 2 "${SWEEP}" --seed=abc --grid seeds=1
expect 2 "${SWEEP}" --jobs=abc --grid seeds=1
expect 2 "${SWEEP}" --grid seeds=1 --query=nope
expect 2 "${SWEEP}" --grid seeds=1 duration=10x
expect 2 "${FIG09}" --threads=abc

# Unreadable files.
expect 1 "${SIM}" --trace="${WORK}/missing.csv"
expect 1 "${SIM}" --fault-schedule="${WORK}/missing.fsched"

# A uniform topology has no edge sites: the bench testbed falls back to the
# hub layout instead of aborting.
"${FIG08}" --topology=uniform:sites=8 > /dev/null
got=$?
if [ "${got}" -ne 0 ]; then
  echo "FAIL: fig08_delay_dynamics --topology=uniform:sites=8 exit ${got}" >&2
  FAILURES=$((FAILURES + 1))
fi

if [ "${FAILURES}" -ne 0 ]; then
  echo "${FAILURES} bad-input check(s) failed" >&2
  exit 1
fi
echo "all bad-input checks passed"
