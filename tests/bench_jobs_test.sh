#!/usr/bin/env bash
# The parallel drivers' --jobs contract (DESIGN.md §9). Usage:
#   bench_jobs_test.sh <driver>...
# Runs each driver at --jobs=1 and at --jobs=4 with --metrics=FILE and
# requires the same exit code, the same stdout and the same metrics file,
# byte for byte.
set -u

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
FAILURES=0

for driver in "$@"; do
  name="$(basename "${driver}")"
  for jobs in 1 4; do
    run="${WORK}/${name}.j${jobs}"
    "${driver}" --jobs="${jobs}" --metrics="${run}.metrics" > "${run}.out"
    echo "$?" > "${run}.code"
  done
  ok=1
  for part in code out metrics; do
    if ! cmp -s "${WORK}/${name}.j1.${part}" "${WORK}/${name}.j4.${part}"; then
      echo "FAIL: ${name}: --jobs=1 and --jobs=4 differ in ${part}" >&2
      diff "${WORK}/${name}.j1.${part}" "${WORK}/${name}.j4.${part}" | head >&2
      ok=0
    fi
  done
  if [ ! -s "${WORK}/${name}.j1.metrics" ]; then
    echo "FAIL: ${name}: empty --metrics file" >&2
    ok=0
  fi
  if [ "${ok}" = 1 ]; then
    echo "ok: ${name}: same stdout ($(wc -l < "${WORK}/${name}.j1.out") lines)" \
         "and metrics ($(wc -l < "${WORK}/${name}.j1.metrics") runs) at" \
         "--jobs=1 and 4"
  else
    FAILURES=$((FAILURES + 1))
  fi
done

if [ "${FAILURES}" -ne 0 ]; then
  echo "${FAILURES} driver(s) broke the --jobs contract" >&2
  exit 1
fi
