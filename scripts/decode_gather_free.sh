#!/usr/bin/env bash
# Disassembly check behind the ctest `analysis.decode-gather-free`:
#
#   decode_gather_free.sh OBJDUMP AVX2 OBJECT...
#
# OBJECT... are szx_core's object files; the one built from
# kernels_avx2.cpp is disassembled with OBJDUMP and must hold no vpgather*
# instruction, so the AVX2 Solution-C decode (and every other kernel in that
# file) stays on its table-driven pshufb path instead of falling back to
# gathers.  AVX2 is ON when the build compiles that file with -mavx2.
# Exit codes: 0 pass, 1 a gather (or no AVX2 code) was found, 77 skip
# (objdump missing or AVX2 off).
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 OBJDUMP AVX2(ON|OFF) OBJECT..." >&2
  exit 2
fi
objdump=$1
avx2=$2
shift 2

if [[ "$avx2" != "ON" ]]; then
  echo "SKIP: szx_core is built without AVX2; kernels_avx2.cpp holds no vector code"
  exit 77
fi
if [[ -z "$objdump" ]] || ! command -v "$objdump" > /dev/null; then
  echo "SKIP: objdump not found; cannot disassemble kernels_avx2.cpp"
  exit 77
fi

obj=""
for o in "$@"; do
  case "$o" in
    */kernels_avx2.cpp.o | */kernels_avx2.cpp.obj) obj=$o ;;
  esac
done
if [[ -z "$obj" ]]; then
  echo "FAIL: no kernels_avx2.cpp object among the given szx_core objects" >&2
  exit 1
fi

dis=$("$objdump" -d -C --no-show-raw-insn "$obj")
# A check that sees no AVX2 instruction at all would pass vacuously.
if ! grep -q 'vpshufb' <<< "$dis"; then
  echo "FAIL: $obj holds no vpshufb; is it the AVX2 build of kernels_avx2.cpp?" >&2
  exit 1
fi
# Print each gather with the function it sits in.
gathers=$(awk '/^[0-9a-f]+ <.*>:$/ { fn = $0 }
               /vpgather/ { print fn; print "    " $0 }' <<< "$dis")
if [[ -n "$gathers" ]]; then
  echo "FAIL: vpgather in $obj:" >&2
  echo "$gathers" >&2
  exit 1
fi
echo "PASS: no vpgather in $obj"
