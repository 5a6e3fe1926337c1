#!/usr/bin/env bash
# Prints the code placement of the step engine's hot loops in a binary: the
# start address mod 64 (the offset inside a cache line) of every
# soa_run<…>::run_soa and run_base<…>::phase_two_hoisted instantiation that
# the linker kept out of line. Cold-split clones are skipped.
#
# Some workloads move with code placement alone (det_full moved by about
# 20 % when run_soa shifted by 32 bytes), so a performance change reports
# these offsets next to its numbers.
#
# Usage: scripts/hot_loop_offsets.sh BINARY
#   e.g. scripts/hot_loop_offsets.sh .bench_build/perfbench
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BINARY" >&2
  exit 2
fi
binary=$1
if [ ! -f "$binary" ]; then
  echo "$0: no such file: $binary" >&2
  exit 2
fi

found=0
while read -r addr _ name; do
  case "$name" in
    *"[clone "*) continue ;;
    *"::run_soa()"* | *"::phase_two_hoisted("*) ;;
    *) continue ;;
  esac
  printf '%2d  %s\n' "$((16#$addr % 64))" "$name"
  found=1
done < <(nm -C "$binary")

if [ "$found" -eq 0 ]; then
  echo "$0: no run_soa or phase_two_hoisted symbol in $binary" >&2
  exit 1
fi
