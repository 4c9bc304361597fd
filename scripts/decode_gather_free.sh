#!/usr/bin/env bash
# Disassembly checks behind two `analysis` ctests:
#
#   decode_gather_free.sh OBJDUMP AVX2 OBJECT...
#       `analysis.decode-gather-free`.  OBJECT... are szx_core's object
#       files; the one built from kernels_avx2.cpp must hold no vpgather*
#       instruction, so the AVX2 Solution-C decode (and every other kernel
#       in that file) stays on its table-driven pshufb path instead of
#       falling back to gathers.
#
#   decode_gather_free.sh --isa OBJDUMP AVX2 CONFIG OBJECT... -- BINARY...
#       `analysis.avx2-confined`.  Runtime dispatch is the only ISA
#       selector, so VEX-encoded code may live only in the two AVX2 kernel
#       objects (kernels_avx2.cpp, baseline_avx2.cpp).  OBJECT... are the
#       objects of every src/ library, BINARY... linked executables.  It
#       requires:
#         (a) no VEX instruction in any OBJECT but the two AVX2 objects;
#         (b) none in a global or weak function those two objects define,
#             since the linker may pick that copy for a baseline-ISA caller;
#         (c) in each BINARY, none in a function other than the local
#             (internal-linkage) functions of the two AVX2 objects.  Local
#             names of other src/ objects are covered by (a).
#       CONFIG is the build type.  An unoptimized (Debug) build emits
#       libstdc++ inline functions the AVX2 objects use as out-of-line weak
#       copies compiled with -mavx2; when those are the only findings of
#       (b) and (c) there, the check skips with that reason.
#
# AVX2 is ON when the build compiles the AVX2 kernel files with -mavx2.
# Exit codes: 0 pass, 1 a finding (or no AVX2 code where some must be),
# 77 skip (objdump missing, AVX2 off, or the unoptimized-build case above).
set -euo pipefail

isa=0
if [[ "${1:-}" == "--isa" ]]; then
  isa=1
  shift
fi
if [[ $# -lt $((3 + isa)) ]]; then
  echo "usage: $0 OBJDUMP AVX2(ON|OFF) OBJECT..." >&2
  echo "       $0 --isa OBJDUMP AVX2(ON|OFF) CONFIG OBJECT... -- BINARY..." >&2
  exit 2
fi
objdump=$1
avx2=$2
shift 2

if [[ "$avx2" != "ON" ]]; then
  echo "SKIP: the build has no -mavx2 kernel TUs; there is no AVX2 code to check"
  exit 77
fi
if [[ -z "$objdump" ]] || ! command -v "$objdump" > /dev/null; then
  echo "SKIP: objdump not found; cannot disassemble the kernel objects"
  exit 77
fi

is_avx2_object() {
  case "$1" in
    */kernels_avx2.cpp.o | */kernels_avx2.cpp.obj | \
    */baseline_avx2.cpp.o | */baseline_avx2.cpp.obj) return 0 ;;
  esac
  return 1
}

if [[ "$isa" == "0" ]]; then
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
  exit 0
fi

config=$1
shift
objects=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
  objects+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift
binaries=("$@")
if [[ ${#binaries[@]} -eq 0 ]]; then
  echo "usage: $0 --isa OBJDUMP AVX2 CONFIG OBJECT... -- BINARY..." >&2
  exit 2
fi

# FILE -> one "mangled-name<TAB>first VEX instruction" line per function of
# FILE that holds a VEX- or EVEX-encoded instruction.  In 64-bit code every
# such mnemonic starts with `v`; the VMX instructions are the only others.
vex_functions() {
  "$objdump" -d --no-show-raw-insn "$1" | awk -F'\t' '
    /^[0-9a-f]+ <.*>:$/ {
      fn = substr($0, index($0, "<") + 1)
      fn = substr(fn, 1, length(fn) - 2)
      next
    }
    NF >= 2 && $1 ~ /^ *[0-9a-f]+:$/ {
      n = split($2, w, " ")
      m = w[1]
      if (m ~ /^\{/ && n > 1) m = w[2]
      if (m ~ /^v/ &&
          m !~ /^(verr|verw|vmcall|vmlaunch|vmresume|vmxoff|vmxon|vmread|vmwrite|vmptrld|vmptrst|vmclear|vmfunc|vmload|vmsave|vmrun|vmmcall|vmgexit)$/ &&
          !(fn in seen)) {
        seen[fn] = 1
        print fn "\t" $2
      }
    }'
}

# FILE -> the names of FILE's defined functions, one per line; with
# `exported`, only the global, unique and weak ones, else only the locals.
defined_functions() {
  "$objdump" -t "$1" | awk -v want="$2" '
    match($0, /^[0-9a-f]+ /) {
      flags = substr($0, RLENGTH + 1, 7)
      if (substr(flags, 7, 1) != "F" || index($0, "*UND*") > 0) next
      exported = (substr(flags, 1, 1) ~ /[gu]/ || substr(flags, 2, 1) == "w")
      if ((want == "exported") == exported) print $NF
    }'
}

# True for a mangled name libstdc++ owns (std::, __gnu_cxx::).
is_libstdcxx() {
  [[ "$1" =~ ^_Z(N[VKRO]*)?(S[tabsiod]|9__gnu_cxx) ]]
}

cxxfilt=c++filt
command -v "$cxxfilt" > /dev/null || cxxfilt=cat
findings=()
libstdcxx_only=1
note() {  # CHECK FILE NAME INSTRUCTION
  findings+=("  ($1) $2: $("$cxxfilt" <<< "$3")  [$4]")
  # (a) is never a COMDAT copy: that object was not built with -mavx2.
  [[ "$1" != a ]] && is_libstdcxx "$3" || libstdcxx_only=0
}

avx2_objects=()
allowed=""
for o in "${objects[@]}"; do
  vex=$(vex_functions "$o")
  if is_avx2_object "$o"; then
    avx2_objects+=("$o")
    if [[ -z "$vex" ]]; then
      echo "FAIL: $o holds no VEX instruction; is it built with -mavx2?" >&2
      exit 1
    fi
    exported=$(defined_functions "$o" exported)
    allowed+=$(defined_functions "$o" local)$'\n'
    while IFS=$'\t' read -r fn insn; do
      if grep -qxF -- "$fn" <<< "$exported"; then
        note b "$o" "$fn" "$insn"
      fi
    done <<< "$vex"
  elif [[ -n "$vex" ]]; then
    while IFS=$'\t' read -r fn insn; do
      note a "$o" "$fn" "$insn"
    done <<< "$vex"
  fi
done
if [[ ${#avx2_objects[@]} -ne 2 ]]; then
  echo "FAIL: expected the kernels_avx2 and baseline_avx2 objects among the" \
       "given objects, found ${#avx2_objects[@]}" >&2
  exit 1
fi

for b in "${binaries[@]}"; do
  vex=$(vex_functions "$b")
  # A binary without the AVX2 kernels would pass vacuously.
  if [[ -z "$vex" ]]; then
    echo "FAIL: $b holds no VEX instruction; are the AVX2 kernels linked in?" >&2
    exit 1
  fi
  while IFS=$'\t' read -r fn insn; do
    if ! grep -qxF -- "$fn" <<< "$allowed"; then
      note c "$b" "$fn" "$insn"
    fi
  done <<< "$vex"
done

if [[ ${#findings[@]} -eq 0 ]]; then
  echo "PASS: VEX code only in ${avx2_objects[*]##*/}, and only in their" \
       "local functions (${#objects[@]} objects, ${#binaries[@]} binaries)"
  exit 0
fi
if [[ "$libstdcxx_only" == "1" && "$config" == "Debug" ]]; then
  echo "SKIP: unoptimized build; the only VEX code outside the AVX2 kernels'"
  echo "local functions is libstdc++ inline functions the AVX2 objects emit"
  echo "as out-of-line weak (COMDAT) copies:"
  printf '%s\n' "${findings[@]}"
  exit 77
fi
echo "FAIL: VEX-encoded code outside the AVX2 kernel TUs' local functions:" >&2
printf '%s\n' "${findings[@]}" >&2
exit 1
