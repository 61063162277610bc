#!/usr/bin/env bash
# Heap-at-peak attribution for one perfbench workload.
#
#   scripts/heap_peak.sh <workload> [seconds] [top] [depth]
#   scripts/heap_peak.sh rw4k-file 5 25
#   scripts/heap_peak.sh rr4k-16n 3 20 2
#
# Builds scripts/heap_peak.c into an LD_PRELOAD shim with the system C
# compiler, builds perfbench with debug info (RelWithDebInfo, so addr2line
# finds source lines), and runs one workload (seed 1, untraced) under the
# shim. Every forked repetition
# re-arms the shim and writes its own heap-at-peak snapshot; the script
# reports the repetition with the largest peak: its live heap at that peak,
# then the `top` call sites by live bytes, each as its allocating frames
# resolved through addr2line (innermost first). With `depth` (1 to the
# shim's 6 frames), sites whose innermost `depth` frames match are summed
# into one entry with their total bytes and allocation count, and only
# those frames print: thousands of identical allocations reached through
# different callers then read as one line.
#
# The shim's 16-byte header and its unwinding slow the run several-fold and
# raise its RSS, so read only the attribution from it, never wall time or
# peak_rss_mb. Outputs go to .heap_peak/ at the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
WORKLOAD=${1:?usage: scripts/heap_peak.sh <workload> [seconds] [top]}
SECONDS_ARG=${2:-5}
TOP=${3:-25}
DEPTH=${4:-0}
OUT=.heap_peak
BENCH=$OUT/build

mkdir -p "$OUT"
rm -f "$OUT"/snapshot.*
cc -O2 -shared -fPIC -Wall -Wextra -o "$OUT/heap_peak.so" scripts/heap_peak.c
cmake -S perfbench -B "$BENCH" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$BENCH" -j "$(nproc)" --target afc_perfbench > /dev/null

HEAP_PEAK_OUT="$PWD/$OUT/snapshot" LD_PRELOAD="$PWD/$OUT/heap_peak.so" \
  "$BENCH/afc_perfbench" --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_ARG" --trace 0 \
  > "$OUT/run.out"

# The repetition whose heap peaked highest.
best=$(grep -H '^peak ' "$OUT"/snapshot.* | sort -t' ' -k2,2n | tail -n 1 | cut -d: -f1)
[ -n "$best" ] || { echo "heap_peak: no snapshot written" >&2; exit 1; }

awk -v top="$TOP" -v depth="$DEPTH" '
  # A site (or, with depth, the group of sites sharing their innermost
  # frames) is keyed by its frames; bytes and counts add up per key.
  function flush() {
    if (!open) return
    if (!(key in slot)) { n++; slot[key] = n; frames[n] = key }
    bytes[slot[key]] += b; count[slot[key]] += c
    open = 0
  }
  $1 == "peak" { printf "live heap at peak: %.1f MiB\n", $2 / 1048576; next }
  $1 == "site" { flush(); open = 1; b = $2; c = $3; nf = 0; key = ""; next }
  $1 == "frame" { if (depth == 0 || nf < depth) key = key $2 " " $3 "\n"; nf++; next }
  END {
    flush()
    for (i = 1; i <= n; i++) order[i] = i;
    for (i = 1; i <= n && i <= top; i++)  # selection sort of the top entries
      for (j = i + 1; j <= n; j++)
        if (bytes[order[j]] > bytes[order[i]]) { t = order[i]; order[i] = order[j]; order[j] = t; }
    for (i = 1; i <= n && i <= top; i++) {
      s = order[i];
      printf "@site %.2f MiB %d allocations\n%s", bytes[s] / 1048576, count[s], frames[s];
    }
  }' "$best" |
while read -r first rest; do
  case "$first" in
    live) echo "$first $rest" ;;
    @site) echo; echo "$rest" ;;
    *)
      # "<module> <offset>": the function and source line of one frame.
      read -r offset <<< "$rest"
      addr2line -f -C -p -e "$first" "$offset" 2> /dev/null | head -n 1 |
        sed -e 's/^/    /' -e "s|$PWD/||"
      ;;
  esac
done
