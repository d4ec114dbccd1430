#!/usr/bin/env bash
# Build the benchmark harness from source, then run it with the given
# arguments (see ucpbench.ml or README.md):
#
#   bash ucpbench/run.sh --workload lru-small --seed 1 --seconds 20 --trace 0
#
# Runs from the repository root; the build goes to _build/ there and
# the dune cache is off, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./ucpbench/ucpbench.exe 1>&2
exe=./_build/default/ucpbench/ucpbench.exe
# Everything, serve-mix's daemons and the host-speed probe included, runs
# on one CPU: the probe must time the CPU the work runs on (the two vCPUs
# of the VM the benchmark was calibrated on slow down independently), and
# client and daemon then hand off on one core instead of waking each other
# across cores, which halved the run-to-run spread of serve-mix's
# throughput there.  The CPU is the first one this process may use; where
# that cannot be pinned to, the run goes unpinned.
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status 2>/dev/null || true)
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
