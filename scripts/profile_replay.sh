#!/usr/bin/env bash
# Profiles the replay hot path over a generated trace, so hot-path PRs
# start from a measured profile instead of a guess (see docs/PROFILING.md
# for how to read the output and what the current profile looks like).
#
# Usage: scripts/profile_replay.sh [SCALE] [POLICY] [EXTRA_SIM_ARGS...]
#   SCALE   trace scale relative to the paper's full trace (default 0.05)
#   POLICY  policy to replay (default LRU)
# Extra arguments are passed through to `webcache simulate`, e.g.
# --cache-fraction=0.08, --stream --chunk=4096.
#
# Profiler selection: `perf record` with DWARF call graphs when perf is
# installed, otherwise gprof via a -pg instrumented build. Either way the
# binary comes from a dedicated build-profile/ tree compiled with
# RelWithDebInfo-style flags (-O2 -g -fno-omit-frame-pointer) so inlining
# resembles the Release hot path while stack frames stay walkable.
# Artifacts (trace, perf.data / gmon.out, rendered report) land in
# profile-out/.
set -euo pipefail

SCALE="${1:-0.05}"
POLICY="${2:-LRU}"
shift $(( $# > 2 ? 2 : $# ))

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-profile"
OUT="$ROOT/profile-out"
mkdir -p "$OUT"

if command -v perf >/dev/null 2>&1; then
  MODE=perf
  FLAGS="-O2 -g -fno-omit-frame-pointer"
  LDFLAGS=""
elif command -v gprof >/dev/null 2>&1; then
  MODE=gprof
  FLAGS="-O2 -g -pg -fno-omit-frame-pointer"
  LDFLAGS="-pg"
else
  echo "error: neither perf nor gprof found on PATH" >&2
  exit 1
fi
echo "profiler: $MODE"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target webcache_cli >/dev/null
CLI="$BUILD/tools/webcache"

TRACE="$OUT/profile-dfn-$SCALE.wct"
if [ ! -f "$TRACE" ]; then
  "$CLI" generate --profile=DFN --scale="$SCALE" --out="$TRACE"
fi

# Default cache point: the paper's 4% unless the caller picked a size.
SIM_ARGS=(simulate "$TRACE" "--policy=$POLICY")
case " $* " in
  *" --cache-"*|*"--cache-mb"*|*"--cache-fraction"*) ;;
  *) SIM_ARGS+=(--cache-fraction=0.04) ;;
esac
SIM_ARGS+=("$@")

cd "$OUT"
if [ "$MODE" = perf ]; then
  perf record -g --call-graph=dwarf -o perf.data -- "$CLI" "${SIM_ARGS[@]}"
  perf report --stdio -i perf.data --percent-limit=0.5 > report.txt
else
  rm -f gmon.out
  "$CLI" "${SIM_ARGS[@]}"
  gprof --brief "$CLI" gmon.out > report.txt
fi

echo
echo "=== top of $OUT/report.txt ==="
head -n 40 report.txt
echo "full report: $OUT/report.txt"
