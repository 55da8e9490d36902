#!/bin/sh
# Command-line smoke test: every tool and bench reads its flags through the
# one flag table (src/common/flags.h), so --help exits 0, an unknown flag
# exits 2, and a malformed value exits 2 instead of running silently.
#
# usage: cli_smoke.sh TOOLS_DIR BENCH_DIR
tools_dir=$1
bench_dir=$2
failures=0

expect() {  # expect STATUS BINARY ARGS...
  want=$1
  shift
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $* exited $got, expected $want"
    failures=$((failures + 1))
  fi
}

for t in dqme_sim dqme_check dqme_explore dqme_critpath dqme_trace; do
  expect 0 "$tools_dir/$t" --help
  expect 2 "$tools_dir/$t" --no-such-flag
done
for b in e1_table1 e2_message_complexity e3_sync_delay e4_throughput \
         e5_waiting_time e6_quorum_size e7_fault_tolerance e8_case_analysis \
         e9_ablation x1_replica_control x2_scaling x3_lock_service rt_core \
         micro_core; do
  expect 0 "$bench_dir/$b" --help
  expect 2 "$bench_dir/$b" --no-such-flag
done
expect 2 "$tools_dir/dqme_sim" --n 9x
expect 2 "$tools_dir/dqme_explore" --workers abc
expect 2 "$bench_dir/e1_table1" --jobs=abc

if [ "$failures" -ne 0 ]; then
  echo "$failures command-line check(s) failed"
  exit 1
fi
echo "all command-line checks passed"
