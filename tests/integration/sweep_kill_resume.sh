#!/bin/sh
# Kill/resume stress for checkpointed sweeps, run against the real driver
# binary.  Every leg ends in `cmp` against the uninterrupted `--jobs 1`
# sweep:
#
#   kill  SIGKILLs one `--checkpoint-every 1` sweep three times, early,
#         mid-grid and late; each relaunch resumes the log the previous kill
#         left.  After each kill a copy of the log is resumed to completion
#         and compared.  Then a SIGTERM must flush a final checkpoint and
#         exit 1, and resuming that checkpoint must complete.
#   torn  SIGKILLs a sweep, appends the first half of the log's last record
#         (what a crash mid-append leaves) and resumes; the torn record is
#         dropped.
#
# Signals are sent when the log's last record reaches a folded-task count,
# so they land at the same fold frontiers on fast and slow machines.
#
# usage: sweep_kill_resume.sh <tfmcc_sim> [workdir] [kill|torn|all]
set -eu

USAGE="usage: sweep_kill_resume.sh <tfmcc_sim> [workdir] [kill|torn|all]"
SIM=$(readlink -f -- "${1:?$USAGE}")
WORK=${2:-$(mktemp -d)}
LEG=${3:-all}
case $LEG in kill|torn|all) ;; *) echo "$USAGE" >&2; exit 2 ;; esac
mkdir -p "$WORK"
cd "$WORK"

# 12 grid points x 3 replicates = 36 tasks.
SWEEP="sweep fig07_scaling --sweep n_receivers=2:2000:log12 --set trials=100
       --replicate 3"

"$SIM" $SWEEP --jobs 1 --output ref.csv

# Folded-task count of the last record in log $1; 0 while it has none.
folded() {
  n=$(grep -a '^heartbeat ' "$1" 2>/dev/null | tail -n 1 | cut -d' ' -f4)
  echo "${n:-0}"
}

# run_until SIGNAL TARGET LOG [ARGS...]: runs the checkpointed sweep in the
# background, sends SIGNAL once LOG records TARGET folded tasks, and leaves
# the sweep's exit status in $rc and its stderr in run.err.
run_until() {
  sig=$1 target=$2 log=$3
  shift 3
  "$SIM" $SWEEP --jobs 2 --checkpoint "$log" --checkpoint-every 1 "$@" \
    --output /dev/null 2> run.err &
  pid=$!
  polls=0
  while [ "$(folded "$log")" -lt "$target" ] && [ $polls -lt 6000 ] &&
        kill -0 $pid 2>/dev/null; do
    sleep 0.01
    polls=$((polls + 1))
  done
  kill -s "$sig" $pid 2>/dev/null || true
  rc=0
  wait $pid || rc=$?
}

# resume_and_cmp LOG CSV: resumes LOG to completion and compares.
resume_and_cmp() {
  "$SIM" $SWEEP --jobs 2 --checkpoint "$1" --resume "$1" --output "$2"
  cmp ref.csv "$2"
}

if [ "$LEG" != torn ]; then
  rm -f ck.log ck_*.log
  landed=0
  for target in 4 16 28; do
    resume=""
    if [ -f ck.log ]; then resume="--resume ck.log"; fi
    run_until KILL $target ck.log $resume
    case $rc in
      137) landed=$((landed + 1)) ;;
      0) echo "note: the sweep finished before the kill at $target folds" ;;
      *) cat run.err; echo "sweep exited $rc, not by SIGKILL"; exit 1 ;;
    esac
    echo "SIGKILL at $target folds: log holds $(folded ck.log) folds"
    cp ck.log ck_$target.log
    resume_and_cmp ck_$target.log resumed_$target.csv
  done
  if [ $landed -eq 0 ]; then
    echo "no SIGKILL landed before the sweep finished"
    exit 1
  fi

  rm -f term.log
  run_until TERM 8 term.log
  case $rc in
    1) grep -q "checkpoint flushed to 'term.log'" run.err ||
         { cat run.err; exit 1; } ;;
    0) echo "note: the sweep finished before the SIGTERM" ;;
    *) cat run.err; echo "sweep exited $rc after SIGTERM"; exit 1 ;;
  esac
  resume_and_cmp term.log term.csv
fi

if [ "$LEG" != kill ]; then
  rm -f torn.log
  run_until KILL 12 torn.log
  case $rc in
    137|0) ;;
    *) cat run.err; echo "sweep exited $rc, not by SIGKILL"; exit 1 ;;
  esac
  at=$(grep -a -b '^record ' torn.log | tail -n 1 | cut -d: -f1)
  tail -c +$((at + 1)) torn.log > last.rec
  head -c $(( $(wc -c < last.rec) / 2 )) last.rec >> torn.log
  resume_and_cmp torn.log torn.csv
fi

echo "sweep kill/resume ($LEG): every resumed CSV byte-identical to the" \
     "uninterrupted sweep"
