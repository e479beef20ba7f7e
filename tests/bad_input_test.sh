#!/usr/bin/env bash
# Bad input fails loudly. Usage:
#   bad_input_test.sh <wasp_sim> <wasp_sweep> <fig08_delay_dynamics> \
#       <fig09_processing_ratio>
# Every run below must end with the expected exit code -- 2 for a bad flag,
# key or topology/query/fault-schedule combination, 1 for an unreadable
# file or an output file that cannot be written (wasp_sim's trace and
# --metrics, wasp_sweep's --out to a file or to a full stdout with --out=-,
# a driver's --metrics and its per-label trace files at --jobs>1) -- and a
# one-line message on stderr, never by a signal. A sweep cell that cannot be
# built or traced must come back as an ok=0 cell (the sweep exits 1) instead
# of killing the sweep. Without --quiet, wasp_sweep --out=- writes the same
# bytes to stdout as --out=FILE writes to FILE: the summary table and the
# progress lines go to stderr.
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
expect 2 "${SIM}" --live-workload --workload-step=60:2 --duration=10
expect_failed_cell --grid workload-step=60:2 --workload-trace=live \
  --duration=10
expect 2 "${SWEEP}" --seed=abc --grid seeds=1
expect 2 "${SWEEP}" --jobs=abc --grid seeds=1
expect 2 "${SWEEP}" --threads=abc --grid seeds=1
expect 2 "${SWEEP}" --grid seeds=1 --query=nope
expect 2 "${SWEEP}" --grid seeds=1 duration=10x
expect 2 "${FIG09}" --threads=abc
expect 2 "${FIG09}" --profile-every=0

# Unreadable files, and output files that cannot be written.
expect 1 "${SIM}" --trace="${WORK}/missing.csv"
expect 1 "${SIM}" --fault-schedule="${WORK}/missing.fsched"
expect 1 "${SIM}" --duration=10 --trace-out=/dev/full
expect 1 "${SIM}" --duration=10 --metrics=/dev/full
expect 1 "${SWEEP}" --quiet --grid seeds=1 --duration=10 --out=/dev/full
expect 1 bash -c '"$0" --quiet --grid seeds=1 --duration=10 --out=- > /dev/full' \
  "${SWEEP}"
expect 1 "${FIG09}" --metrics=/dev/full

# --out=- puts the merged JSONL alone on stdout, byte for byte the --out=FILE
# output, summary table or not.
"${SWEEP}" --jobs=2 --grid seeds=1..8 --duration=10 \
  --out="${WORK}/sweep8.jsonl" > /dev/null 2>&1
"${SWEEP}" --jobs=2 --grid seeds=1..8 --duration=10 --out=- \
  > "${WORK}/sweep8.stdout" 2> /dev/null
if ! cmp -s "${WORK}/sweep8.jsonl" "${WORK}/sweep8.stdout"; then
  echo "FAIL: wasp_sweep --out=- stdout ($(wc -l < "${WORK}/sweep8.stdout")" \
       "lines) differs from --out=FILE ($(wc -l < "${WORK}/sweep8.jsonl")" \
       "lines)" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: wasp_sweep --out=- stdout equals --out=FILE"
fi

mkdir "${WORK}/full"
ln -s /dev/full "${WORK}/full/run_0.jsonl"
expect_failed_cell --grid seeds=1 --duration=10 --trace-dir="${WORK}/full"
# At --jobs>1 each traced run writes FILE with its label inserted.
for label in YSB-Advertising-Campaign Top-K-Popular-Topics \
             Events-of-Interest; do
  ln -s /dev/full "${WORK}/full/t.${label}.jsonl"
done
expect 1 "${FIG08}" --jobs=2 --trace-out="${WORK}/full/t.jsonl"

# A uniform topology has no edge sites: the bench drivers fall back to the
# hub layout instead of aborting, and check no paper claim off the paper
# testbed.
"${FIG08}" --topology=uniform:sites=8 > "${WORK}/out"
got=$?
if [ "${got}" -ne 0 ] ||
   ! grep -q '^\[claims\] not checked: not the paper testbed$' "${WORK}/out"; then
  echo "FAIL: fig08_delay_dynamics --topology=uniform:sites=8 exit ${got}" >&2
  FAILURES=$((FAILURES + 1))
fi

if [ "${FAILURES}" -ne 0 ]; then
  echo "${FAILURES} bad-input check(s) failed" >&2
  exit 1
fi
echo "all bad-input checks passed"
