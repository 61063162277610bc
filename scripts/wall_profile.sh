#!/usr/bin/env bash
# Sampled CPU-time profile of one perfbench workload, per function.
#
#   scripts/wall_profile.sh <workload> [seconds] [top] [match]
#   scripts/wall_profile.sh rr4k-16n
#   scripts/wall_profile.sh rw4k-file 10 30 '_Hashtable'
#
# Builds scripts/wall_profile.c into an LD_PRELOAD shim with the system C
# compiler, builds perfbench with debug info and frame pointers
# (RelWithDebInfo, -fno-omit-frame-pointer), and runs one workload (seed 1,
# untraced) under the shim, which samples every forked repetition once per
# millisecond of CPU time. The simulator runs on one thread, so CPU time is
# its wall time apart from waits.
#
# Each sampled address is resolved with `addr2line -f -i`; a sample is
# charged to the outermost function of the inline chain, the one that was
# not inlined (where addr2line knows nothing, to the shim's dynamic
# symbol). Self time is the innermost frame's function; inclusive time
# counts a function once per sample it appears in anywhere on the stack.
# Prints the samples taken, then the `top` functions (default 20) by self
# share and by inclusive share, template arguments shown as <>. With
# `match` (a Python regular expression), also prints the share of samples
# taken in a matching function, inlined or not, with the functions they
# were charged to, and the share of samples with a matching function
# anywhere on the stack.
#
# The shim costs little (a frame-pointer walk per sample), but frame
# pointers and the RelWithDebInfo flags differ from the Release build of
# record: read shares from it, never wall_us_per_op. Outputs go to
# .wall_profile/ at the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
WORKLOAD=${1:?usage: scripts/wall_profile.sh <workload> [seconds] [top] [match]}
SECONDS_ARG=${2:-10}
TOP=${3:-20}
MATCH=${4:-}
OUT=.wall_profile
BENCH=$OUT/build

mkdir -p "$OUT"
rm -f "$OUT"/samples.*
cc -O2 -shared -fPIC -Wall -Wextra -o "$OUT/wall_profile.so" scripts/wall_profile.c
cmake -S perfbench -B "$BENCH" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer > /dev/null
cmake --build "$BENCH" -j "$(nproc)" --target afc_perfbench > /dev/null

WALL_PROFILE_OUT="$PWD/$OUT/samples" LD_PRELOAD="$PWD/$OUT/wall_profile.so" \
  "$BENCH/afc_perfbench" --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_ARG" --trace 0 \
  > "$OUT/run.out"

python3 - "$OUT" "$TOP" "$MATCH" << 'EOF'
import collections, glob, os, re, subprocess, sys

out, top, match = sys.argv[1], int(sys.argv[2]), sys.argv[3]

# Every process's stacks: (count, [(module, offset, symbol), ...]).
stacks, samples, dropped, procs = [], 0, 0, 0
for path in sorted(glob.glob(os.path.join(out, "samples.*"))):
    procs += 1
    with open(path) as f:
        for line in f:
            kind, *rest = line.split()
            if kind == "samples":
                samples += int(rest[0])
                dropped += int(rest[1])
            elif kind == "stack":
                stacks.append((int(rest[0]), []))
            elif kind == "frame":
                stacks[-1][1].append((rest[0], int(rest[1], 16), rest[2]))
if samples == 0:
    sys.exit("wall_profile: no samples written")

# One addr2line run per module; -a marks where each address's inline
# chain starts, and the chain's last function is the one not inlined.
by_module = collections.defaultdict(set)
for _, frames in stacks:
    for module, offset, _ in frames:
        by_module[module].add(offset)
chain_of = {}  # (module, offset) -> inline chain, innermost function first
for module, offsets in by_module.items():
    offsets = sorted(offsets)
    text = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                          input="".join(f"{o:#x}\n" for o in offsets),
                          capture_output=True, text=True).stdout.splitlines()
    chains, i = [], 0
    while i < len(text):
        if re.fullmatch(r"0x[0-9a-f]+", text[i]):
            chains.append([])
        elif chains:
            chains[-1].append(text[i])  # function, then its file:line
            i += 1
        i += 1
    for offset, chain in zip(offsets, chains):
        chain_of[(module, offset)] = [f for f in chain if f != "??"]

def chain(frame):
    """The frame's inline chain; without debug info, the nearest dynamic
    symbol at or below the address, which in a stripped library may name
    a neighbour of the function that ran."""
    module, offset, symbol = frame
    names = chain_of.get((module, offset))
    if names:
        return names
    where = os.path.basename(module)
    return [f"{where}: near {symbol}" if symbol != "-" else f"{where}: ??"]

self_n, incl_n = collections.Counter(), collections.Counter()
match_self, match_incl, match_in = 0, 0, collections.Counter()
for count, frames in stacks:
    chains = [chain(f) for f in frames]
    if not chains:
        continue
    names = [c[-1] for c in chains]  # the function that was not inlined
    self_n[names[0]] += count
    for name in set(names):
        incl_n[name] += count
    if match:
        if any(re.search(match, f) for f in chains[0]):
            match_self += count
            match_in[names[0]] += count
        if any(re.search(match, f) for c in chains for f in c):
            match_incl += count

def short(name):
    """`name` with every template argument list shown as <>."""
    if "operator<" in name:
        return name
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
            if depth == 1:
                out.append("<>")
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)

pct = lambda n: 100.0 * n / samples
print(f"{samples} samples from {procs} processes ({dropped} dropped: stack table full)")
if match:
    print(f"/{match}/: self {pct(match_self):.1f}%, on the stack {pct(match_incl):.1f}%")
    for name, n in match_in.most_common(top):
        print(f"{pct(n):7.1f}  in {short(name)}")
for title, counter in (("self", self_n), ("inclusive", incl_n)):
    print(f"\ntop {top} by {title}\n{'self%':>7} {'incl%':>7}  function")
    for name, _ in counter.most_common(top):
        print(f"{pct(self_n[name]):7.1f} {pct(incl_n[name]):7.1f}  {short(name)}")
EOF
