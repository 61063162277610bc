#!/usr/bin/env bash
# Same-machine A/B of the working tree against a base commit.
#
# Builds <base-ref> in a git worktree under build/perf_ab and the working
# tree beside it (both Release), then runs the identity set on each side:
# the benches fig01, fig03, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
# fig16, fig17 and chaos (the whole mode matrix), and the examples
# failure_recovery and cluster_expansion, with all AFC_* variables cleared.
# fig13 is the only figure that drives sharded receive, batching and the
# bypass transport at 16 OSDs. Each program runs `runs` times per side
# (default 1), alternating which side goes first so that a drift in host
# load falls on both; every run's stdout is compared with cmp against the
# base side's first run. Printed per program: each side's median wall
# seconds, its largest peak RSS (MiB, the process's ru_maxrss read through
# python3's resource module) and the stdout verdict. One run per side cannot
# resolve a wall change of less than about 10%. Exits non-zero when any
# stdout differs or any program fails.
#
# Usage: scripts/perf_ab.sh <base-ref> [runs]   e.g. scripts/perf_ab.sh HEAD~ 5
set -euo pipefail

base_ref="${1:?usage: scripts/perf_ab.sh <base-ref> [runs]}"
runs="${2:-1}"
[[ "$runs" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: runs must be a positive integer" >&2; exit 2; }
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/build/perf_ab"
# Paths under a build tree; each file name is also its CMake target.
programs=(bench/fig01_baseline bench/fig03_latency_breakdown bench/fig09_ladder
          bench/fig10_vm_sweep bench/fig11_solidfire bench/fig12_scaleout
          bench/fig13_transport bench/fig14_qos bench/fig15_ec
          bench/fig16_store bench/fig17_membership bench/chaos
          examples/failure_recovery examples/cluster_expansion)
targets=("${programs[@]##*/}")

base_sha="$(git rev-parse --verify "${base_ref}^{commit}")"
worktree="$out/base-src"
cleanup() { git worktree remove --force "$worktree" 2> /dev/null || true; }
trap cleanup EXIT
cleanup
rm -rf "$worktree"
mkdir -p "$out"
git worktree add --quiet --detach "$worktree" "$base_sha"

build() {  # <source dir> <build dir>; the log is shown only if the build fails
  if ! { cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "$(nproc)" --target "${targets[@]}"; } > "$2.log" 2>&1; then
    cat "$2.log" >&2
    echo "FAIL: building $1" >&2
    exit 1
  fi
}
echo "building base ${base_ref} (${base_sha:0:12}) and the working tree..."
build "$worktree" "$out/base"
build "$root" "$out/head"

for v in $(compgen -e); do
  case "$v" in AFC_*) unset "$v" ;; esac
done

run() {  # <side> <program path> <stdout file>; prints "wall_s peak_rss_mib", returns its status
  python3 - "$out/$1/$2" "$3" << 'EOF'
import resource, subprocess, sys, time
t0 = time.monotonic()
with open(sys.argv[2], "wb") as out:
    rc = subprocess.call([sys.argv[1]], stdout=out)
wall_s = time.monotonic() - t0
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # ru_maxrss is KiB
print(f"{wall_s:.1f} {rss_mib:.0f}")
sys.exit(rc)
EOF
}

median() {  # the median of the arguments
  printf '%s\n' "$@" | sort -n |
    awk '{ v[NR] = $1 } END { printf "%.1f", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

largest() {  # the largest of the arguments
  printf '%s\n' "$@" | sort -n | tail -n 1
}

status=0
printf '%-26s %9s %9s %9s %9s  %s\n' program base_s head_s base_MiB head_MiB stdout
for p in "${programs[@]}"; do
  b="${p##*/}"
  reference="$out/base/$b.out"  # the base side's first run, which runs first of all
  base_s=() head_s=() base_mib=() head_mib=()
  verdict=identical
  failed=0
  for ((r = 0; r < runs; r++)); do
    sides=(base head)
    ((r % 2 == 0)) || sides=(head base)
    for side in "${sides[@]}"; do
      file="$out/$side/$b.out"
      ((r == 0)) || file="$out/$side/$b.out.$r"
      if ! result=$(run "$side" "$p" "$file"); then
        echo "FAIL: $side $b exited non-zero (run $((r + 1)))" >&2
        failed=1
        break 2
      fi
      read -r wall_s rss_mib <<< "$result"
      if [[ "$side" == base ]]; then
        base_s+=("$wall_s") base_mib+=("$rss_mib")
      else
        head_s+=("$wall_s") head_mib+=("$rss_mib")
      fi
      cmp -s "$reference" "$file" || verdict=DIFFERS
    done
  done
  if ((failed)); then
    status=1
    continue
  fi
  [[ "$verdict" == identical ]] || status=1
  printf '%-26s %9s %9s %9s %9s  %s\n' "$b" "$(median "${base_s[@]}")" \
    "$(median "${head_s[@]}")" "$(largest "${base_mib[@]}")" "$(largest "${head_mib[@]}")" "$verdict"
done
exit "$status"
