#!/usr/bin/env bash
# Heap-at-peak attribution for one perfbench workload.
#
#   scripts/heap_peak.sh <workload> [seconds] [top]
#   scripts/heap_peak.sh rw4k-file 5 25
#
# Builds scripts/heap_peak.c into an LD_PRELOAD shim with the system C
# compiler, builds perfbench with debug info (RelWithDebInfo, so addr2line
# finds source lines), and runs one workload (seed 1, untraced) under the
# shim. Every forked repetition
# re-arms the shim and writes its own heap-at-peak snapshot; the script
# reports the repetition with the largest peak: its live heap at that peak,
# then the `top` call sites by live bytes, each as its allocating frames
# resolved through addr2line (innermost first).
#
# The shim's 16-byte header and its unwinding slow the run several-fold and
# raise its RSS, so read only the attribution from it, never wall time or
# peak_rss_mb. Outputs go to .heap_peak/ at the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
WORKLOAD=${1:?usage: scripts/heap_peak.sh <workload> [seconds] [top]}
SECONDS_ARG=${2:-5}
TOP=${3:-25}
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

awk -v top="$TOP" '
  $1 == "peak" { printf "live heap at peak: %.1f MiB\n", $2 / 1048576; next }
  $1 == "site" { n++; bytes[n] = $2; count[n] = $3; frames[n] = ""; next }
  $1 == "frame" { frames[n] = frames[n] $2 " " $3 "\n"; next }
  END {
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
