#!/usr/bin/env bash
# Checks that the cache's line runs still issue their set-block
# prefetches in the compiled library: CacheSystem::dmaWriteRun,
# CacheSystem::dmaReadRun and one inlined coreRun caller (the memcached
# actor) must each contain a prefetcht0. GCC deletes a prefetch helper
# it finds pure, so a source-level prefetch can silently compile to
# nothing; this looks at the machine code instead.
#
# Usage: scripts/check_prefetch.sh <liba4.a> [objdump] [nm]
#
# Meaningful for optimised builds only: at -O0 the prefetch stays in
# its own out-of-line helper.
set -euo pipefail

lib="$1"
objdump="${2:-objdump}"
nm="${3:-nm}"
failed=0

count_in_symbol() { # <symbol pattern>
  local sym
  sym="$("$nm" "$lib" | awk -v p="$1" '$2 == "T" && $3 ~ p {print $3; exit}')"
  if [[ -z "$sym" ]]; then
    echo "no symbol matching $1 in $lib" >&2
    echo 0
    return
  fi
  "$objdump" -d --disassemble="$sym" "$lib" | grep -c prefetcht0 || true
}

count_in_member() { # <archive member>
  "$objdump" -d "$lib" |
    awk -v m="$1:" '/file format/ {in_m = ($1 == m)}
                    in_m && /prefetcht0/ {n++} END {print n + 0}'
}

check() { # <label> <count>
  if [[ "$2" -gt 0 ]]; then
    echo "ok   $1: $2 prefetcht0"
  else
    echo "FAIL $1: no prefetcht0" >&2
    failed=1
  fi
}

check "CacheSystem::dmaWriteRun" "$(count_in_symbol 'CacheSystem11dmaWriteRun')"
check "CacheSystem::dmaReadRun" "$(count_in_symbol 'CacheSystem10dmaReadRun')"
check "memcached.cc.o (coreRun)" "$(count_in_member memcached.cc.o)"
exit "$failed"
