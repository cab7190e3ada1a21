#!/usr/bin/env bash
# Socket-transport smoke: reject a malformed flag with exit 2, then drive
# `prlaunch` with 4 worker processes through short CON, DYN, and AR runs,
# asserting final loss matches the in-proc engine within 1e-3 (prlaunch
# exits non-zero on a parity violation), then a kill-one-worker chaos
# variant that must survive the loss of a worker and still land within
# tolerance.
#
# The clean runs use lr=0.01/momentum=0 and the kill run lr=1e-4: partial
# reduce group formation is timing-dependent, so parity across engines is
# only meaningful on the shallow stretch of the loss surface these settings
# reach (same reasoning as kFailoverLr in tests/chaos_test.cc). The kill
# run needs the smallest lr because the surviving processes exclude the
# dead worker's replica from the final average while the in-proc baseline
# keeps all four; that gap scales with lr.
#
# Usage: socket_smoke.sh <path-to-prlaunch-binary>
set -euo pipefail

# shellcheck source=smoke_lib.sh
. "$(dirname "$0")/smoke_lib.sh"

PRLAUNCH=${1:?usage: socket_smoke.sh <prlaunch binary>}
smoke_tmpdir WORK

COMMON=(-n 4 --iters 400 --batch 16 --lr 0.01 --momentum 0.0 --seed 7
        --loss-tol 1e-3 --compare-inproc)

# A flag value that does not parse in full is a usage error (exit 2), never
# a silently truncated run: `--iters 10x` must not run 10 iterations.
set +e
"$PRLAUNCH" --iters 10x --workdir "$WORK/bad-flag" > "$WORK/bad-flag.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || smoke_fail "prlaunch --iters 10x exited $rc, want 2"
smoke_expect_grep "usage:" "$WORK/bad-flag.log" "usage on a malformed flag"

for strategy in CON DYN AR; do
  log="$WORK/$strategy.log"
  smoke_run "$log" "$PRLAUNCH" --strategy "$strategy" \
    --workdir "$WORK/$strategy" "${COMMON[@]}"
  # CON/DYN spawn 4 workers + a controller process; AR is controller-free.
  procs=5
  [ "$strategy" = AR ] && procs=4
  smoke_expect_grep "PRLAUNCH_OK strategy=$strategy processes=$procs" "$log"
  smoke_expect_grep "PRLAUNCH_PARITY" "$log" "cross-engine loss check ran"
  echo "$strategy: $(smoke_extract 'delta=[0-9.e+-]+' "$log")"
done

# AR is bit-deterministic, so the zero-copy assertion rides on it: socket
# and in-proc runs must report identical transport.payload_copies.
smoke_expect_grep "PRLAUNCH_COPIES" "$WORK/AR.log" "zero-copy accounting"

# Kill-one-worker chaos variant: worker 2 dies 0.15 s in; the remaining
# three must finish the full budget and still match the in-proc engine.
log="$WORK/kill.log"
smoke_run "$log" "$PRLAUNCH" --strategy CON --workdir "$WORK/kill" \
  -n 4 --iters 400 --batch 16 --lr 0.0001 --momentum 0.0 --seed 7 \
  --kill-worker 2 --kill-after 0.15 --loss-tol 1e-3 --compare-inproc
smoke_expect_grep "PRLAUNCH_OK strategy=CON" "$log"
smoke_expect_grep "PRLAUNCH_PARITY" "$log" "post-kill loss parity"
echo "kill-one-worker: $(smoke_extract 'delta=[0-9.e+-]+' "$log")"

echo "socket smoke OK"
