#!/usr/bin/env bash
# Golden tick-trace byte-identity check. Usage:
#   golden_trace_test.sh <wasp_sim> <wasp_trace> <repo_root> <scenario> [threads]
# Runs one evaluation scenario and compares the produced JSONL trace
# byte-for-byte against the checked-in golden (tests/golden/<scenario>.jsonl.gz)
# after dropping the one wall-clock field ("wall_us" on span_end events),
# which measures real host time and is legitimately nondeterministic. Every
# simulated quantity must match to the byte.
#
# The optional [threads] argument (default 1) passes --threads=N through to
# wasp_sim: the goldens were recorded single-threaded, so running the same
# scenario against them at N threads enforces the intra-run parallelism
# contract (DESIGN.md §11) -- the worker count must not move a single byte.
#
# Regenerate mode (only when a semantic change is intended):
#   golden_trace_test.sh --regenerate <wasp_sim> <wasp_trace> <repo_root> \
#       [scenario...] [--ignore=k1,k2 ...]
# reruns each named scenario (all of them when none is named) single-
# threaded, writes the stripped, gzipped trace over its golden, and prints
# `wasp_trace diff <old> <new>` for it. Arguments starting with "--" are
# passed to that diff.
set -u

SCENARIOS="fig09 fig11 chaos_smoke domain_down_standby planet_region_down"

REGENERATE=0
if [ "${1:-}" = "--regenerate" ]; then
  REGENERATE=1
  shift
fi

SIM="$1"
TRACE_TOOL="$2"
ROOT="$3"
shift 3

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# run_scenario <scenario> <threads> <out>: one wasp_sim run writing its
# trace to <out>.
run_scenario() {
  local scenario="$1" threads="$2" out="$3"
  case "${scenario}" in
    fig09)
      "${SIM}" --query=topk --mode=wasp --duration=120 --live-bandwidth \
        --seed=7 --threads="${threads}" --trace-out="${out}" >/dev/null
      ;;
    fig11)
      "${SIM}" --query=topk --mode=wasp --duration=150 --live-bandwidth \
        --live-workload --bandwidth-step=100:0.5 \
        --seed=11 --threads="${threads}" --trace-out="${out}" >/dev/null
      ;;
    chaos_smoke)
      "${SIM}" --fault-schedule="${ROOT}/examples/chaos_smoke.fsched" \
        --duration=560 --seed=7 --threads="${threads}" --trace-out="${out}" \
        >/dev/null
      ;;
    domain_down_standby)
      "${SIM}" --fault-schedule="${ROOT}/examples/domain_down.fsched" \
        --duration=600 --seed=7 --standby-replicas=1 --threads="${threads}" \
        --trace-out="${out}" >/dev/null
      ;;
    planet_region_down)
      "${SIM}" --topology=edge:sites=36,regions=4 \
        --fault-schedule="${ROOT}/examples/planet_region_down.fsched" \
        --rate=500 --duration=65 --seed=7 --threads="${threads}" \
        --trace-out="${out}" >/dev/null
      ;;
    *)
      echo "unknown scenario: ${scenario}" >&2
      return 2
      ;;
  esac
}

strip_wall() {
  sed -E 's/,"wall_us":[-+0-9.eE]+//g' "$1"
}

if [ "${REGENERATE}" = 1 ]; then
  names=()
  diff_args=()
  for arg in "$@"; do
    case "${arg}" in
      --*) diff_args+=("${arg}") ;;
      *) names+=("${arg}") ;;
    esac
  done
  [ "${#names[@]}" -gt 0 ] || read -r -a names <<< "${SCENARIOS}"
  for scenario in "${names[@]}"; do
    golden_gz="${ROOT}/tests/golden/${scenario}.jsonl.gz"
    old="${WORK}/${scenario}.old.jsonl"
    new="${WORK}/${scenario}.new.jsonl"
    run_scenario "${scenario}" 1 "${WORK}/${scenario}.jsonl" || exit 1
    strip_wall "${WORK}/${scenario}.jsonl" > "${new}" || exit 1
    if [ -f "${golden_gz}" ]; then
      gzip -dc "${golden_gz}" > "${old}" || exit 1
    else
      : > "${old}"
    fi
    gzip -9n < "${new}" > "${golden_gz}" || exit 1
    echo "== ${scenario}: wasp_trace diff old new ${diff_args[*]:-}"
    "${TRACE_TOOL}" diff "${old}" "${new}" ${diff_args[@]+"${diff_args[@]}"}
  done
  exit 0
fi

SCENARIO="$1"
THREADS="${2:-1}"
GOLDEN_GZ="${ROOT}/tests/golden/${SCENARIO}.jsonl.gz"
OUT="${WORK}/${SCENARIO}.jsonl"
REF="${WORK}/${SCENARIO}.golden.jsonl"

run_scenario "${SCENARIO}" "${THREADS}" "${OUT}" || exit $?

gzip -dc "${GOLDEN_GZ}" > "${REF}" || exit 1
STRIPPED="${WORK}/${SCENARIO}.stripped.jsonl"
strip_wall "${OUT}" > "${STRIPPED}"

if cmp -s "${REF}" "${STRIPPED}"; then
  echo "golden ${SCENARIO} (threads=${THREADS}): byte-identical ($(wc -c < "${STRIPPED}") bytes)"
  exit 0
fi

echo "golden ${SCENARIO} (threads=${THREADS}): trace DIVERGED from checked-in golden" >&2
cmp "${REF}" "${STRIPPED}" >&2
"${TRACE_TOOL}" diff "${REF}" "${OUT}" >&2
exit 1
