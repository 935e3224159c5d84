#!/usr/bin/env sh
# Runs one bench/ext_* bench and emits its BENCH_<NAME>.json.
#
#   tools/run_bench.sh NAME [build_dir] [output.json]
#
# NAME: multicluster | transport | simshards | learner | capture | net |
# faults (the bench each one runs, and its default tick count, are in the
# table below; each bench's header comment says what it measures).
#
# Tunables via environment:
#   CAPES_BENCH_TICKS    training ticks per measured point
#   CAPES_BENCH_THREADS  worker threads, for the benches that take them
#                        (default: the bench's own pick)
set -eu

usage() {
  echo "usage: tools/run_bench.sh multicluster|transport|simshards|learner|capture|net|faults [build_dir] [output.json]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
NAME="$1"
BUILD_DIR="${2:-build}"
OUT="${3:-BENCH_$NAME.json}"
THREADED=no
case "$NAME" in
  multicluster) BIN=ext_multi_cluster; TICKS=150; THREADED=yes ;;
  transport)    BIN=ext_transport;     TICKS=400; THREADED=yes ;;
  simshards)    BIN=ext_sim_shards;    TICKS=150; THREADED=yes ;;
  learner)      BIN=ext_learner;       TICKS=200 ;;
  capture)      BIN=ext_capture;       TICKS=200 ;;
  net)          BIN=ext_net;           TICKS=400 ;;
  faults)       BIN=ext_faults;        TICKS=150; THREADED=yes ;;
  *) usage ;;
esac
BENCH="$BUILD_DIR/bench/$BIN"

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built (cmake --build $BUILD_DIR --target $BIN)" >&2
  exit 1
fi

set -- --ticks="${CAPES_BENCH_TICKS:-$TICKS}" --json="$OUT"
if [ "$NAME" = capture ]; then
  set -- "$@" --capture-file="$BUILD_DIR/bench_capture.cap"
fi
if [ "$THREADED" = yes ] && [ -n "${CAPES_BENCH_THREADS:-}" ]; then
  set -- "$@" --threads="$CAPES_BENCH_THREADS"
fi
"$BENCH" "$@"
