#!/usr/bin/env bash
# Line counts of the source trees, as ROADMAP.md records them: src/ (every
# .cc and .h), its two libraries afceph (src/ without src/rt/) and afceph_rt
# (src/rt/), and bench/ and tests/ (every .cc, .h and .cpp).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {  # <dir> <find name/prune arguments...>: total lines of the matches
  local dir=$1
  shift
  find "$dir" "$@" -print0 | xargs -0 cat | wc -l
}

printf '%-10s %7s\n' \
  src/ "$(count src \( -name '*.cc' -o -name '*.h' \) -type f)" \
  afceph "$(count src -path src/rt -prune -o \( -name '*.cc' -o -name '*.h' \) -type f)" \
  afceph_rt "$(count src/rt \( -name '*.cc' -o -name '*.h' \) -type f)" \
  bench/ "$(count bench \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -type f)" \
  tests/ "$(count tests \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -type f)"
