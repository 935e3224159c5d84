#!/usr/bin/env bash
# End-to-end smoke of the distributed control plane, run from CTest and
# every CI leg (including TSan):
#
#   check_distributed.sh <capes_daemond> <capes_run> <workdir>
#
# 1. Equivalence: launch capes_daemond on an ephemeral loopback port,
#    drive a short train/baseline/tuned workflow through
#    `capes_run --transport=tcp:host=127.0.0.1,port=PORT` (the agent
#    side), and require the training fingerprint AND the per-phase CSVs to be
#    byte-identical to an in-process `capes_run --transport=sync` run at
#    the same seed (the tcp: wire must be a transparent brain extension).
#    Run once on one cluster and once on three (three daemon shards, so
#    the service's action routing is compared too).
# 2. Robustness: kill -9 the agent mid-run and require the daemon to
#    exit on its own (link death must never hang it).
set -euo pipefail

# Absolute paths: the script cds into the scratch dir before launching.
DAEMOND="$(readlink -f "$1")"
CAPES_RUN="$(readlink -f "$2")"
WORK="$3"

TICK_ARGS="--train-ticks=40 --eval-ticks=30 --seed=1"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

wait_for_port() {
  # The daemon prints "listening on HOST:PORT" (flushed) before accept.
  local log="$1" i
  for i in $(seq 1 100); do
    if grep -q "listening on" "$log" 2>/dev/null; then
      sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log" | head -n1
      return 0
    fi
    sleep 0.1
  done
  echo "daemon never printed its port" >&2
  cat "$log" >&2
  return 1
}

# equivalence TAG WORKLOAD_ARGS: one loopback tcp run vs one sync run.
equivalence() {
  local tag="$1" run_args="$2 $TICK_ARGS"
  echo "== equivalence ($tag): loopback tcp vs in-process sync =="
  "$DAEMOND" --port=0 > "daemon_$tag.log" 2>&1 &
  DAEMON_PID=$!
  PORT=$(wait_for_port "daemon_$tag.log")

  # shellcheck disable=SC2086
  "$CAPES_RUN" --transport=tcp:host=127.0.0.1,port="$PORT" $run_args \
    --csv="tcp_$tag" | tee "agent_$tag.log"
  wait "$DAEMON_PID"
  cat "daemon_$tag.log"

  # shellcheck disable=SC2086
  "$CAPES_RUN" --transport=sync $run_args --csv="sync_$tag" | tee "sync_$tag.log"

  TCP_FP=$(grep "training fingerprint" "agent_$tag.log")
  SYNC_FP=$(grep "training fingerprint" "sync_$tag.log")
  DAEMON_FP=$(grep "training fingerprint" "daemon_$tag.log")
  echo "agent : $TCP_FP"
  echo "daemon: $DAEMON_FP"
  echo "sync  : $SYNC_FP"
  if [ "$TCP_FP" != "$SYNC_FP" ] || [ "$DAEMON_FP" != "$SYNC_FP" ]; then
    echo "FAIL ($tag): tcp loopback fingerprint differs from in-process sync" >&2
    exit 1
  fi
  for phase in training baseline tuned; do
    cmp "tcp_${tag}_${phase}.csv" "sync_${tag}_${phase}.csv" || {
      echo "FAIL ($tag): ${phase} CSV differs between tcp and sync" >&2
      exit 1
    }
  done
  if ! grep -q "control network (tcp): 0 messages dropped, link alive" "agent_$tag.log"; then
    echo "FAIL ($tag): loopback run reported message loss" >&2
    exit 1
  fi
}

equivalence one "--workload=random:0.2"
equivalence three "--workload=random:0.2 --workload=seqwrite --workload=fileserver"

echo "== robustness: kill -9 the agent mid-run, daemon must exit =="
"$DAEMOND" --port=0 --idle-timeout-ms=5000 > daemon_kill.log 2>&1 &
DAEMON_PID=$!
PORT=$(wait_for_port daemon_kill.log)
"$CAPES_RUN" --transport=tcp:host=127.0.0.1,port="$PORT" --workload=random:0.2 \
  --train-ticks=100000 --eval-ticks=10 --seed=1 > agent_kill.log 2>&1 &
AGENT_PID=$!
# Let the session get well into the training phase before the kill.
sleep 2
kill -9 "$AGENT_PID" 2>/dev/null || true
wait "$AGENT_PID" 2>/dev/null || true

# The daemon must notice the dead link (EOF) and exit by itself.
for i in $(seq 1 150); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "FAIL: daemon still running 15s after its agent was killed" >&2
  kill -9 "$DAEMON_PID"
  exit 1
fi
wait "$DAEMON_PID" 2>/dev/null || true
if ! grep -q "link death" daemon_kill.log; then
  echo "FAIL: daemon did not report link death" >&2
  cat daemon_kill.log >&2
  exit 1
fi
cat daemon_kill.log

echo "distributed smoke OK"
