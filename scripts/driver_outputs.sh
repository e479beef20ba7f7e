#!/usr/bin/env bash
# Records what every figure, table and ablation driver of one build prints,
# for a bit-identity check between two builds. Usage:
#   scripts/driver_outputs.sh BUILD OUT
# Runs each executable in BUILD/bench with no arguments, except
# micro_solvers (it prints wall times), and writes its stdout, stderr and
# exit code to OUT/<driver>.out, OUT/<driver>.err and OUT/<driver>.code.
# Two builds print the same thing when `diff -r` finds their OUT
# directories identical:
#   scripts/driver_outputs.sh ../base/build /tmp/drivers.base
#   scripts/driver_outputs.sh build /tmp/drivers.head
#   diff -r /tmp/drivers.base /tmp/drivers.head
# Exits 2 on bad arguments; a driver's own exit code is recorded, not
# propagated.
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD OUT" >&2
  exit 2
fi
BUILD="$1"
OUT="$2"
if [ ! -d "${BUILD}/bench" ]; then
  echo "no bench directory in '${BUILD}'" >&2
  exit 2
fi
mkdir -p "${OUT}" || exit 1

count=0
for bin in "${BUILD}"/bench/*; do
  [ -f "${bin}" ] && [ -x "${bin}" ] || continue
  name="$(basename "${bin}")"
  [ "${name}" = micro_solvers ] && continue
  "${bin}" > "${OUT}/${name}.out" 2> "${OUT}/${name}.err"
  echo "$?" > "${OUT}/${name}.code"
  count=$((count + 1))
done
echo "${count} drivers recorded in ${OUT}"
