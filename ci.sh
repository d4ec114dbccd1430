#!/bin/sh
# Tier-1 verification: build everything, then run the full test suite.
# Usage: ./ci.sh   (from the repository root; requires the opam switch
# described in README.md to be active)
set -eu

dune build
dune runtest

# Lint: no lazy values under lib/.  Metric instruments are registered
# where they are used (registration is mutex-guarded and idempotent);
# a lazy value that two domains force at once raises
# CamlinternalLazy.Undefined in one of them.
if grep -rnwE 'lazy|Lazy' lib --include='*.ml' --include='*.mli'; then
  echo "ci: lint: lazy value under lib/; register metrics where they are used" >&2
  exit 1
fi
echo "ci: no-lazy lint passed"

# Lint: one clock.  Every duration and deadline under lib/ and bin/
# reads Ucp_util.Clock (monotonic); Unix.gettimeofday can step when the
# system time is set, and Sys.time is CPU time.  The only exception is
# the access log's "ts" field, which is a timestamp, not a duration.
if grep -rnE 'Unix\.gettimeofday|Sys\.time\b' lib bin \
  --include='*.ml' --include='*.mli' \
  | grep -v '^lib/util/clock\.mli\?:' \
  | grep -v '^lib/serve/server\.ml:[0-9]*: *("ts", Ucp_util\.Json\.Num (Unix\.gettimeofday ()));$'
then
  echo "ci: lint: duration read off a non-monotonic clock; use Ucp_util.Clock.now_s" >&2
  exit 1
fi
echo "ci: one-clock lint passed"

# Lint: failwith / assert false ratchet.  No input may reach a bare
# failwith or assert false.  The allowance lists, per file, the sites
# that remain: three assert falses whose comments prove them
# unreachable.  A new site fails the lint, and so does a removed one
# until its allowance is lowered: the count only falls.
failure_allowance='lib/core/parallel.ml 1
lib/lp/simplex.ml 1
lib/policy/ucp_policy.ml 1'
failure_sites=$(grep -rnwE 'failwith|assert false' lib bin --include='*.ml' \
  | cut -d: -f1 | LC_ALL=C sort | uniq -c | awk '{ print $2, $1 }')
if [ "$failure_sites" != "$failure_allowance" ]; then
  echo "ci: lint: failwith/assert false sites per file differ from the allowance" >&2
  echo "found:" >&2
  echo "$failure_sites" >&2
  echo "allowed:" >&2
  echo "$failure_allowance" >&2
  echo "ci: raise a typed exception instead; lower the allowance when a site goes" >&2
  exit 1
fi
echo "ci: failwith ratchet lint passed"

# Robustness smoke: run a tiny sweep (2 programs x 12 quick configs x
# 2 techs = 48 use cases) with two injected faults -- one case raises,
# one stalls past the 1s per-case deadline -- and check the engine
# degrades exactly those two cases to structured outcomes instead of
# aborting the sweep or hanging.
smoke_err=$(mktemp)
trap 'rm -f "$smoke_err"' EXIT

status=0
UCP_FAULT='fft1:k2:45nm:lru=raise,crc:k2:32nm:lru=stall:30' \
  dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --timeout 1 --jobs 2 \
  >/dev/null 2>"$smoke_err" || status=$?

if [ "$status" -ne 3 ]; then
  echo "ci: fault smoke: expected exit status 3 (failed cases), got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
for pat in \
  'cases: 46 ok, 1 failed, 1 timed out, 0 invariant violations' \
  'fft1:k2:45nm:lru: failed:.*Injected' \
  'crc:k2:32nm:lru: timed out'
do
  if ! grep -q "$pat" "$smoke_err"; then
    echo "ci: fault smoke: expected output matching '$pat'" >&2
    cat "$smoke_err" >&2
    exit 1
  fi
done
# A figure that does not exist is refused before any case runs: exit
# 124, as for every other invalid flag, and nothing on stdout.
status=0
figure_out=$(dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1 --configs k2 --techs 45nm --figure 6 2>"$smoke_err") \
  || status=$?
if [ "$status" -ne 124 ] || [ -n "$figure_out" ]; then
  echo "ci: fault smoke: --figure 6 must exit 124 with no stdout, got $status" >&2
  printf '%s\n' "$figure_out" >&2
  cat "$smoke_err" >&2
  exit 1
fi
echo "ci: fault-injection smoke passed"

# Multi-policy smoke: 2 programs x 2 configs x 1 tech x 3 policies =
# 12 use cases with a fault injected on the FIFO slice only.  Checks
# the policy axis end to end: the grid triples, the per-policy outcome
# lines appear on stderr, and the fault hits exactly the FIFO case.
status=0
UCP_FAULT='fft1:k2:45nm:fifo=raise' \
  dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --policies lru,fifo,plru --jobs 2 \
  >/dev/null 2>"$smoke_err" || status=$?

if [ "$status" -ne 3 ]; then
  echo "ci: policy smoke: expected exit status 3 (failed case), got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
for pat in \
  'cases: 11 ok, 1 failed, 0 timed out, 0 invariant violations' \
  'fft1:k2:45nm:fifo: failed:.*Injected' \
  'policy lru *4 ok, 0 failed' \
  'policy fifo *3 ok, 1 failed' \
  'policy plru *4 ok, 0 failed'
do
  if ! grep -q "$pat" "$smoke_err"; then
    echo "ci: policy smoke: expected output matching '$pat'" >&2
    cat "$smoke_err" >&2
    exit 1
  fi
done
echo "ci: multi-policy smoke passed"

# Certification smoke: the same tiny grid under --audit full must
# certify every case (exit 0, zero invariant violations, an audited
# count covering the whole grid at 7 checks per case: the 5 base
# obligations plus the two refine obligations of the default
# --refine nc).
status=0
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --audit full --jobs 2 \
  >/dev/null 2>"$smoke_err" || status=$?

if [ "$status" -ne 0 ]; then
  echo "ci: audit smoke: expected exit status 0 (clean audited sweep), got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
for pat in \
  'cases: 4 ok, 0 failed, 0 timed out, 0 invariant violations' \
  'audited: 4 cases certified (28 checks'
do
  if ! grep -q "$pat" "$smoke_err"; then
    echo "ci: audit smoke: expected output matching '$pat'" >&2
    cat "$smoke_err" >&2
    exit 1
  fi
done
echo "ci: certification audit smoke passed"

# FIFO/PLRU optimizer audit smoke: the certification smoke above audits
# LRU only.  At 256 B the optimizer inserts prefetches into all four
# programs below under FIFO and PLRU (4 programs x 2 configs x 1 tech x
# 2 policies = 16 use cases): every case, its optimizer trail
# included, must be certified, and both a FIFO and a PLRU record must
# carry prefetches.
policy_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$policy_dir"' EXIT
status=0
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,janne_complex,ludcmp,qurt --configs k5,k6 --techs 45nm \
  --policies fifo,plru --audit full --jobs 2 \
  --sweep-out "$policy_dir/sweep.jsonl" \
  >/dev/null 2>"$smoke_err" || status=$?

if [ "$status" -ne 0 ]; then
  echo "ci: fifo/plru audit smoke: expected exit status 0 (clean audited sweep), got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
for pat in \
  'cases: 16 ok, 0 failed, 0 timed out, 0 invariant violations' \
  'audited: 16 cases certified (112 checks'
do
  if ! grep -q "$pat" "$smoke_err"; then
    echo "ci: fifo/plru audit smoke: expected output matching '$pat'" >&2
    cat "$smoke_err" >&2
    exit 1
  fi
done
for policy in fifo plru; do
  if ! grep "\"policy\":\"$policy\"" "$policy_dir/sweep.jsonl" \
    | grep -q '"prefetches":[1-9]'; then
    echo "ci: fifo/plru audit smoke: no $policy record carries a prefetch" >&2
    exit 1
  fi
done
rm -rf "$policy_dir"
echo "ci: FIFO/PLRU optimizer audit smoke passed"

# Negative certification smoke: corrupt one case's certified claim and
# require the audit to catch it -- the case must be demoted to an
# invariant violation naming the failed obligation, and the sweep must
# exit 3.
status=0
UCP_FAULT='fft1:k2:45nm:lru=corrupt-cert' \
  dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --audit full --jobs 2 \
  >/dev/null 2>"$smoke_err" || status=$?

if [ "$status" -ne 3 ]; then
  echo "ci: corrupt-cert smoke: expected exit status 3 (audit rejection), got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
for pat in \
  'cases: 3 ok, 0 failed, 0 timed out, 1 invariant violations' \
  'fft1:k2:45nm:lru: invariant violation: audit: optimizer-tau-after'
do
  if ! grep -q "$pat" "$smoke_err"; then
    echo "ci: corrupt-cert smoke: expected output matching '$pat'" >&2
    cat "$smoke_err" >&2
    exit 1
  fi
done
echo "ci: corrupt-cert audit smoke passed"

# Negative refinement smoke on a case the optimizer leaves unchanged:
# fft1 at k35 under FIFO gets no prefetch, so the run measures and
# certifies the program once for both sides.  An armed corrupt-refine
# fault on that shared path must still be caught: exit 3 with the
# refine digest mismatch named.
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1 --configs k35 --techs 45nm \
  --policies fifo --refine nc --audit full \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: corrupt-refine smoke: the clean run failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
if ! grep -q 'audited: 1 cases certified (7 checks' "$smoke_err"; then
  echo "ci: corrupt-refine smoke: expected 1 case certified with 7 checks" >&2
  cat "$smoke_err" >&2
  exit 1
fi
status=0
UCP_FAULT='fft1:k35:45nm:fifo=corrupt-refine' \
  dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1 --configs k35 --techs 45nm \
  --policies fifo --refine nc --audit full \
  >/dev/null 2>"$smoke_err" || status=$?
if [ "$status" -ne 3 ] \
  || ! grep -q 'fft1:k35:45nm:fifo: invariant violation: audit: refine-original: digest mismatch' "$smoke_err"
then
  echo "ci: corrupt-refine smoke: expected exit 3 naming 'refine-original: digest mismatch', got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
echo "ci: corrupt-refine audit smoke passed"

# Observability smoke: trace a tiny audited sweep (2 programs x 1
# config x 1 tech = 2 cases per binary stage) and check the trace is
# well-formed JSON carrying spans from every pipeline stage, that
# `ucp trace` can read it back, that the fixpoint-pass span count in
# the trace matches the fixpoint_iterations_total counter on the JSONL
# summary line, that only the metered summary line carries per-stage
# seconds, and that instrumentation never changes the per-record
# output: a traced sweep's record lines must be byte-identical to an
# untraced run's.
obs_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir"' EXIT

dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --audit full --jobs 2 \
  --trace "$obs_dir/trace.json" --sweep-out "$obs_dir/traced.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: obs smoke: traced sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
# byte-equality pair: audit off, because an audited record carries its
# own audit wall-clock (audit_s), which differs between any two runs
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm --jobs 2 \
  --trace "$obs_dir/trace2.json" --sweep-out "$obs_dir/traced2.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: obs smoke: traced unaudited sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm --jobs 2 \
  --sweep-out "$obs_dir/plain.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: obs smoke: untraced sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}

# spans from all instrumented layers must be present
for span in case analysis optimize simulate audit \
  optimizer-round fixpoint-pass audit-obligation
do
  if ! grep -q "\"name\":\"$span\"" "$obs_dir/trace.json"; then
    echo "ci: obs smoke: trace has no '$span' span" >&2
    exit 1
  fi
done

# the audit fast path certifies without a solver: a clean audited sweep
# must record no simplex span at all
if grep -q '"name":"simplex"' "$obs_dir/trace.json"; then
  echo "ci: obs smoke: audited sweep ran the simplex (fast path regressed)" >&2
  exit 1
fi

# `ucp trace` strictly parses the file (well-formedness check) and
# summarizes it
if ! dune exec --no-build bin/ucp.exe -- trace "$obs_dir/trace.json" \
  >"$obs_dir/trace.txt" 2>&1; then
  echo "ci: obs smoke: 'ucp trace' failed on the recorded trace" >&2
  cat "$obs_dir/trace.txt" >&2
  exit 1
fi

# the fixpoint-pass span count must equal the metrics counter embedded
# in the JSONL summary line (one span per pass, one counted pass each)
fp_trace=$(grep -o '"name":"fixpoint-pass"' "$obs_dir/trace.json" | wc -l)
fp_metric=$(sed -n 's/.*"fixpoint_iterations_total":\([0-9][0-9]*\).*/\1/p' "$obs_dir/traced.jsonl")
if [ -z "$fp_metric" ] || [ "$fp_trace" -eq 0 ] || [ "$fp_trace" != "$fp_metric" ]; then
  echo "ci: obs smoke: fixpoint passes disagree: trace='$fp_trace' metric='$fp_metric'" >&2
  exit 1
fi

# stage time lives in the metrics registry: the traced sweep's summary
# line (--trace implies metrics) carries every stage's fcounter, and
# the untraced summary line carries no seconds but its wall_s, so a
# second stage accumulator cannot come back unnoticed
for stage in analysis refine optimize simulate audit; do
  if ! grep '"summary"' "$obs_dir/traced.jsonl" \
    | grep -q "\"${stage}_seconds_total\":"; then
    echo "ci: obs smoke: traced summary line has no ${stage}_seconds_total" >&2
    exit 1
  fi
done
stage_keys=$(grep '"summary"' "$obs_dir/plain.jsonl" \
  | grep -o '"[a-z_]*_s":' | grep -v '^"wall_s":$' || true)
if [ -n "$stage_keys" ]; then
  echo "ci: obs smoke: untraced summary line carries stage seconds:" $stage_keys >&2
  exit 1
fi

# record lines must be byte-identical traced vs untraced (only the
# summary line may differ, by its "metrics" object)
grep -v '"summary"' "$obs_dir/traced2.jsonl" >"$obs_dir/traced.records"
grep -v '"summary"' "$obs_dir/plain.jsonl" >"$obs_dir/plain.records"
if ! cmp -s "$obs_dir/traced.records" "$obs_dir/plain.records"; then
  echo "ci: obs smoke: tracing changed the per-record JSONL output" >&2
  diff "$obs_dir/traced.records" "$obs_dir/plain.records" >&2 || true
  exit 1
fi
echo "ci: observability smoke passed"

# Audit-speed smoke: full certification must ride along nearly free.
# The certificate checks are linear passes (no re-solve), so on a
# 24-case grid the audited wall stays within 3x of the unaudited one
# (plus a small absolute slack against timer noise on fast machines).
# That grid takes a fraction of a second, too short for the wall to
# show an audit several times as costly, so the audit's work is checked
# too, from both runs' metrics: it re-derives each case's refinement
# once (exactly twice the unaudited refinement steps), runs no fixpoint
# of its own, checks 7 obligations per case and certifies every IPET
# bound on the fast path.  Two jobs: the analysis memo is
# single-flight, so the fixpoint counters do not depend on how the
# workers interleave.  Auditing must not perturb the measurements: the
# audited records, with the audit verdict fields stripped, are
# byte-identical to the unaudited run's.
speed_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir"' EXIT

dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc,st,fdct --configs k2,k5,k17 --jobs 2 --metrics \
  --sweep-out "$speed_dir/plain.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: audit-speed smoke: unaudited sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc,st,fdct --configs k2,k5,k17 --jobs 2 --metrics \
  --audit full --sweep-out "$speed_dir/audited.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: audit-speed smoke: audited sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}

wall_plain=$(sed -n 's/.*"wall_s":\([0-9.]*\).*/\1/p' "$speed_dir/plain.jsonl")
wall_audited=$(sed -n 's/.*"wall_s":\([0-9.]*\).*/\1/p' "$speed_dir/audited.jsonl")
if ! awk -v a="$wall_audited" -v p="$wall_plain" \
  'BEGIN { exit !(a <= 3 * p + 0.25) }'; then
  echo "ci: audit-speed smoke: audited wall ${wall_audited}s exceeds 3x unaudited ${wall_plain}s" >&2
  exit 1
fi

# summary-line field [$1] of sweep [$2] ("plain" or "audited")
summary_field() {
  grep '"summary"' "$speed_dir/$2.jsonl" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"
}
steps_plain=$(summary_field refine_transfer_steps_total plain)
steps_audited=$(summary_field refine_transfer_steps_total audited)
fp_plain=$(summary_field fixpoint_node_transfers_total plain)
fp_audited=$(summary_field fixpoint_node_transfers_total audited)
obligations=$(summary_field audit_obligations_total audited)
cases=$(summary_field cases audited)
if [ -z "$steps_plain" ] || [ "$steps_plain" -eq 0 ] \
  || [ "$steps_audited" != $((2 * steps_plain)) ]; then
  echo "ci: audit-speed smoke: refinement steps '$steps_audited' audited, want twice the unaudited '$steps_plain'" >&2
  exit 1
fi
if [ -z "$fp_plain" ] || [ "$fp_audited" != "$fp_plain" ]; then
  echo "ci: audit-speed smoke: fixpoint node transfers '$fp_audited' audited, want the unaudited '$fp_plain'" >&2
  exit 1
fi
if [ -z "$cases" ] || [ "$obligations" != $((7 * cases)) ]; then
  echo "ci: audit-speed smoke: '$obligations' audit obligations, want 7 x $cases cases" >&2
  exit 1
fi
if grep '"summary"' "$speed_dir/audited.jsonl" | grep -q '"audit_ipet_slowpath_total"'; then
  echo "ci: audit-speed smoke: an IPET certificate left the fast path" >&2
  exit 1
fi

grep -v '"summary"' "$speed_dir/audited.jsonl" \
  | sed 's/,"audit_checks":[0-9]*,"audit_s":[0-9.]*//' \
  >"$speed_dir/audited.records"
grep -v '"summary"' "$speed_dir/plain.jsonl" >"$speed_dir/plain.records"
if ! cmp -s "$speed_dir/audited.records" "$speed_dir/plain.records"; then
  echo "ci: audit-speed smoke: auditing changed the per-record JSONL output" >&2
  diff "$speed_dir/audited.records" "$speed_dir/plain.records" >&2 || true
  exit 1
fi
echo "ci: audit-speed smoke passed (audited ${wall_audited}s vs unaudited ${wall_plain}s;" \
  "refinement steps $steps_audited vs $steps_plain, $obligations obligations)"

# Audited grid slice: four programs over all 36 configurations, both
# technologies and the three policies (864 cases, 347 of them with
# prefetches), certified in full on two jobs.  It covers the 16 B lines
# and the 256 B to 4 KiB caches where no benchmark workload replays a
# witness.  Stdout and the record lines, with each record's audit
# wall-clock (audit_s) stripped, must hash to the pinned digests.
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc,st,fdct --full --policies lru,fifo,plru --audit full --jobs 2 \
  --sweep-out "$speed_dir/slice.jsonl" \
  >"$speed_dir/slice.out" 2>"$smoke_err" || {
  echo "ci: audited slice: sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
slice_out_md5=$(md5sum <"$speed_dir/slice.out" | cut -d' ' -f1)
slice_records_md5=$(grep -v '"summary"' "$speed_dir/slice.jsonl" \
  | sed 's/,"audit_s":[0-9.e-]*//' | md5sum | cut -d' ' -f1)
if [ "$slice_out_md5" != "a6642ed5b1c2dfc1e68e82a2a1f7407e" ] \
  || [ "$slice_records_md5" != "bc6d0e4efa81b5b7ccd7cc8c90e4360b" ]; then
  echo "ci: audited slice: stdout $slice_out_md5 or records $slice_records_md5 differ from the pinned digests" >&2
  exit 1
fi
echo "ci: audited slice passed"

# Refinement smoke: the exact-refinement axis end to end.  A small
# audited sweep under --refine nc must certify every case (the two
# refine obligations ride along), reclaim at least one NC slot, and
# stay record-comparable with --refine off: the refined record lines,
# with the additive refine_* fields (and the audit verdict fields)
# stripped, are byte-identical to an unrefined sweep's -- the base
# fields always carry the unrefined figures.
refine_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir" "$refine_dir"' EXIT

status=0
dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --refine nc --audit full --jobs 2 \
  --sweep-out "$refine_dir/nc.jsonl" \
  >/dev/null 2>"$smoke_err" || status=$?
if [ "$status" -ne 0 ]; then
  echo "ci: refine smoke: expected exit 0 from the refined audited sweep, got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi

# refinement must actually reclaim NC slots somewhere on the grid
if ! grep -q '"refine_ah_gained":[1-9]' "$refine_dir/nc.jsonl" \
  && ! grep -q '"refine_am_gained":[1-9]' "$refine_dir/nc.jsonl"; then
  echo "ci: refine smoke: no case reclaimed a single NC slot" >&2
  exit 1
fi

dune exec --no-build bin/ucp.exe -- experiment \
  --programs fft1,crc --configs k2,k5 --techs 45nm \
  --refine off --jobs 2 --sweep-out "$refine_dir/off.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: refine smoke: unrefined sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
grep -v '"summary"' "$refine_dir/nc.jsonl" \
  | sed -E 's/,"refine_[a-z_]*":("[^"]*"|[0-9-]+|true|false|null)//g' \
  | sed 's/,"audit_checks":[0-9]*,"audit_s":[0-9.]*//' \
  >"$refine_dir/nc.records"
grep -v '"summary"' "$refine_dir/off.jsonl" >"$refine_dir/off.records"
if ! cmp -s "$refine_dir/nc.records" "$refine_dir/off.records"; then
  echo "ci: refine smoke: refinement changed the base record fields" >&2
  diff "$refine_dir/nc.records" "$refine_dir/off.records" >&2 || true
  exit 1
fi
echo "ci: refinement smoke passed"

# Large-program refinement smoke: the two programs of 2000 slots or
# more at the two 8 KiB associative configurations under every policy,
# refined in full mode.  Full mode explores every reference and raises
# Explore.Unsound when an abstract always-hit/always-miss is not an
# exploration all-hit/all-miss, so this checks the set-at-a-time
# exploration against the abstraction on the programs no other step
# refines under FIFO or PLRU.  The record lines are pinned too: a
# verdict change that raises nothing still moves their refine fields.
# So is the exploration's work, which the records cannot see: the
# explored states, the transfer steps and the cases whose budget ran
# out, from the summary line's metrics.
large_records_md5_expected=d691bfa858509fbf9ace8b6b2b435374
# value of counter [$2] in the summary line of sweep file [$1]; 0 when
# the counter never moved
refine_counter() {
  grep '"summary"' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | grep . || echo 0
}
# [$1] names the smoke; [$2] is its sweep file, then the expected
# states, transfer steps and budget-exhausted counts
check_refine_work() {
  got="$(refine_counter "$2" refine_states_total) $(refine_counter "$2" refine_transfer_steps_total) $(refine_counter "$2" refine_budget_exhausted_total)"
  if [ "$got" != "$3 $4 $5" ]; then
    echo "ci: $1: refine states/steps/budget-exhausted $got, expected $3 $4 $5" >&2
    exit 1
  fi
}
status=0
dune exec --no-build bin/ucp.exe -- experiment \
  --programs statemate,nsichneu --configs k35,k36 --techs 45nm \
  --policies lru,fifo,plru --refine full --jobs 2 --metrics \
  --sweep-out "$refine_dir/large.jsonl" \
  >/dev/null 2>"$smoke_err" || status=$?
if [ "$status" -ne 0 ] \
  || ! grep -q 'cases: 12 ok, 0 failed, 0 timed out, 0 invariant violations' "$smoke_err"; then
  echo "ci: large refine smoke: expected exit 0 with 12 cases ok, got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
large_records_md5=$(grep -v '"summary"' "$refine_dir/large.jsonl" | md5sum | cut -d' ' -f1)
if [ "$large_records_md5" != "$large_records_md5_expected" ]; then
  echo "ci: large refine smoke: record MD5 $large_records_md5, expected $large_records_md5_expected" >&2
  exit 1
fi
check_refine_work "large refine smoke" "$refine_dir/large.jsonl" 10067133 1855403 8
echo "ci: large-program refinement smoke passed"

# The same two programs at the 256 B 4-way cache (4 sets), where the
# per-set abstract states are longest -- FIFO and PLRU may sets grow
# without eviction -- and no other step runs them below 8 KiB: full
# refinement must find no abstract verdict the exploration contradicts,
# and the record lines and the exploration's work are pinned as above.
small_records_md5_expected=77aa58315c4008262bb83b84adc4b59e
status=0
dune exec --no-build bin/ucp.exe -- experiment \
  --programs statemate,nsichneu --configs k3 --techs 45nm \
  --policies lru,fifo,plru --refine full --jobs 2 --metrics \
  --sweep-out "$refine_dir/large-k3.jsonl" \
  >/dev/null 2>"$smoke_err" || status=$?
if [ "$status" -ne 0 ] \
  || ! grep -q 'cases: 6 ok, 0 failed, 0 timed out, 0 invariant violations' "$smoke_err"; then
  echo "ci: small-cache refine smoke: expected exit 0 with 6 cases ok, got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
small_records_md5=$(grep -v '"summary"' "$refine_dir/large-k3.jsonl" | md5sum | cut -d' ' -f1)
if [ "$small_records_md5" != "$small_records_md5_expected" ]; then
  echo "ci: small-cache refine smoke: record MD5 $small_records_md5, expected $small_records_md5_expected" >&2
  exit 1
fi
check_refine_work "small-cache refine smoke" "$refine_dir/large-k3.jsonl" 379599 1347616 0
echo "ci: small-cache large-program refinement smoke passed"

# Baselines smoke: `ucp baselines` is the one end-to-end path through
# BB-start software prefetches, locked caches, pinned ways (the hybrid
# scheme) and every hardware prefetcher.  Five use cases must each exit
# 0, and their concatenated tables must hash to the pinned digest: a
# change to how a prefetch fill acts on the cache moves it.
baselines_out="$refine_dir/baselines.txt"
: >"$baselines_out"
for use_case in "fft1 k2 32nm" "crc k6 45nm" "adpcm k14 45nm" "statemate k35 32nm" \
  "qurt k5 45nm"; do
  set -- $use_case
  dune exec --no-build bin/ucp.exe -- baselines -p "$1" -k "$2" -t "$3" \
    >>"$baselines_out" 2>"$smoke_err" || {
    echo "ci: baselines smoke: $1 $2 $3 failed" >&2
    cat "$smoke_err" >&2
    exit 1
  }
done
baselines_md5=$(md5sum <"$baselines_out" | cut -d' ' -f1)
if [ "$baselines_md5" != "369f77f60ec92a53d47e656802bb1e92" ]; then
  echo "ci: baselines smoke: output digest $baselines_md5 differs from the pinned one" >&2
  cat "$baselines_out" >&2
  exit 1
fi
echo "ci: baselines smoke passed"

# Tables smoke: `ucp tables` prints Tables 1-2, the insertion-discipline
# x overhead-budget ablation and the baseline comparison (~0.3 s).  Its
# 119 lines must hash to the pinned digest.
tables_out="$refine_dir/tables.txt"
dune exec --no-build bin/ucp.exe -- tables >"$tables_out" 2>"$smoke_err" || {
  echo "ci: tables smoke: ucp tables failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
tables_md5=$(md5sum <"$tables_out" | cut -d' ' -f1)
if [ "$tables_md5" != "17263fa042f9192ca0d3ca859364c579" ]; then
  echo "ci: tables smoke: output digest $tables_md5 differs from the pinned one" >&2
  cat "$tables_out" >&2
  exit 1
fi
echo "ci: tables smoke passed"

# Serve smoke: the analysis daemon end to end.  Start `ucp serve` with
# two faults armed -- the worker domain evaluating fft1:k2:45nm:lru is
# killed mid-request (one-shot), and crc:k5:45nm:lru's store entry is
# scribbled after persisting (one-shot) -- then drive it with `ucp
# query` and require: the killed request is retried to success on a
# respawned worker; the repeated query is a memory-cache hit with the
# identical bytes; the warm answer is byte-identical to the batch
# sweep's JSONL record for the same case; the corrupt store entry is
# quarantined and transparently recomputed; --health reports >=1
# worker restart and >=1 quarantined entry; kill -9 plus restart
# recovers every computed case from the store alone; and a graceful
# shutdown exits 0.
serve_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir" "$refine_dir" "$serve_dir"' EXIT
UCP="./_build/default/bin/ucp.exe"
SOCK="$serve_dir/ucp.sock"
STORE="$serve_dir/store"

# batch reference for the byte-identity check (single-case sweep)
"$UCP" experiment --programs fft1 --configs k2 --techs 45nm --jobs 1 \
  --sweep-out "$serve_dir/batch.jsonl" >/dev/null 2>"$smoke_err" || {
  echo "ci: serve smoke: batch reference sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
grep -v '"summary"' "$serve_dir/batch.jsonl" >"$serve_dir/batch.record"

UCP_FAULT='fft1:k2:45nm:lru=kill-worker,crc:k5:45nm:lru=corrupt-store' \
  "$UCP" serve --socket "$SOCK" --store "$STORE" -j 2 --cache 1 \
  2>"$serve_dir/serve1.err" &
serve_pid=$!

# cold query: the worker dies under it; the client's backoff retry
# must get a real answer from the respawned worker
"$UCP" query --socket "$SOCK" fft1:k2:45nm:lru \
  >"$serve_dir/cold.json" 2>"$serve_dir/q1.err" || {
  echo "ci: serve smoke: cold query failed (kill-worker not survived)" >&2
  cat "$serve_dir/q1.err" "$serve_dir/serve1.err" >&2
  exit 1
}
grep -q 'answered from computed' "$serve_dir/q1.err" || {
  echo "ci: serve smoke: cold query was not computed" >&2
  cat "$serve_dir/q1.err" >&2
  exit 1
}

# repeated query: memory-cache hit, identical bytes
"$UCP" query --socket "$SOCK" fft1:k2:45nm:lru \
  >"$serve_dir/warm.json" 2>"$serve_dir/q2.err"
grep -q 'answered from memory' "$serve_dir/q2.err" || {
  echo "ci: serve smoke: repeated query missed the memory cache" >&2
  cat "$serve_dir/q2.err" >&2
  exit 1
}
cmp -s "$serve_dir/cold.json" "$serve_dir/warm.json" || {
  echo "ci: serve smoke: warm answer differs from cold answer" >&2
  exit 1
}

# the daemon's answer must be byte-identical to the batch JSONL record
cmp -s "$serve_dir/warm.json" "$serve_dir/batch.record" || {
  echo "ci: serve smoke: served record differs from batch sweep record" >&2
  diff "$serve_dir/warm.json" "$serve_dir/batch.record" >&2 || true
  exit 1
}

# corrupt-store case: computed, persisted, then scribbled on disk.
# Evict it from the 1-entry memory cache, re-query: the store read
# must detect the bad checksum, quarantine the entry and recompute.
"$UCP" query --socket "$SOCK" crc:k5:45nm:lru \
  >"$serve_dir/crc1.json" 2>/dev/null
"$UCP" query --socket "$SOCK" fft1:k2:45nm:lru >/dev/null 2>&1  # evict crc
"$UCP" query --socket "$SOCK" crc:k5:45nm:lru \
  >"$serve_dir/crc2.json" 2>"$serve_dir/q3.err"
grep -q 'answered from computed' "$serve_dir/q3.err" || {
  echo "ci: serve smoke: corrupt store entry was not recomputed" >&2
  cat "$serve_dir/q3.err" >&2
  exit 1
}
cmp -s "$serve_dir/crc1.json" "$serve_dir/crc2.json" || {
  echo "ci: serve smoke: recomputed answer differs after quarantine" >&2
  exit 1
}
ls "$STORE"/*.quarantine >/dev/null 2>&1 || {
  echo "ci: serve smoke: no quarantined entry on disk" >&2
  exit 1
}

# health must carry the robustness counters
"$UCP" query --socket "$SOCK" --health >"$serve_dir/health.txt" 2>/dev/null
for counter in worker_restarts store_quarantined; do
  n=$(sed -n "s/^$counter=\([0-9][0-9]*\)$/\1/p" "$serve_dir/health.txt")
  if [ -z "$n" ] || [ "$n" -lt 1 ]; then
    echo "ci: serve smoke: health $counter='$n', expected >= 1" >&2
    cat "$serve_dir/health.txt" >&2
    exit 1
  fi
done

# crash-only recovery: kill -9, restart on the same store, and the
# previously computed case answers from disk with the same bytes
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$UCP" serve --socket "$SOCK" --store "$STORE" -j 2 --cache 4 \
  2>"$serve_dir/serve2.err" &
serve_pid=$!
"$UCP" query --socket "$SOCK" fft1:k2:45nm:lru \
  >"$serve_dir/restart.json" 2>"$serve_dir/q4.err" || {
  echo "ci: serve smoke: query after kill -9 restart failed" >&2
  cat "$serve_dir/q4.err" "$serve_dir/serve2.err" >&2
  exit 1
}
grep -q 'answered from store' "$serve_dir/q4.err" || {
  echo "ci: serve smoke: restarted daemon did not answer from the store" >&2
  cat "$serve_dir/q4.err" >&2
  exit 1
}
cmp -s "$serve_dir/restart.json" "$serve_dir/batch.record" || {
  echo "ci: serve smoke: post-restart answer differs from batch record" >&2
  exit 1
}

# graceful shutdown: drain and exit 0
"$UCP" query --socket "$SOCK" --shutdown >/dev/null 2>&1
status=0
wait "$serve_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "ci: serve smoke: graceful shutdown exited $status, expected 0" >&2
  cat "$serve_dir/serve2.err" >&2
  exit 1
fi
echo "ci: serve smoke passed"

# Telemetry smoke: the daemon's service-grade telemetry end to end.
# One daemon run with full telemetry armed and a one-shot
# stall-request fault: the Prometheus exposition must carry the
# per-tier latency histograms; the stalled request must land in the
# slow-query log under the *client's* trace id, as its only line, and
# in the cold tier's histogram as its only sample above 1 s; and the
# exported Chrome trace must carry that id too.  Then two identically
# seeded runs against fresh stores, with no stall armed, must leave
# their slow logs empty and produce byte-identical access logs once the
# two timing fields (ts, latency_s) are stripped.
tel_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir" "$refine_dir" "$serve_dir" "$tel_dir"' EXIT
TSOCK="$tel_dir/ucp.sock"

UCP_FAULT='crc:k2:45nm:lru=stall-request:1.5' \
  "$UCP" serve --socket "$TSOCK" --store "$tel_dir/store1" -j 1 --cache 1 \
  --access-log "$tel_dir/access1.jsonl" --slow-log "$tel_dir/slow.jsonl" \
  --slow-threshold 1.0 --trace "$tel_dir/trace.json" \
  2>"$tel_dir/serve1.err" &
tel_pid=$!
"$UCP" query --socket "$TSOCK" --seed 5 \
  crc:k2:45nm:lru fft1:k2:45nm:lru crc:k2:45nm:lru \
  >/dev/null 2>"$tel_dir/q1.err" || {
  echo "ci: telemetry smoke: seeded query mix failed" >&2
  cat "$tel_dir/q1.err" "$tel_dir/serve1.err" >&2
  exit 1
}
"$UCP" query --socket "$TSOCK" --metrics >"$tel_dir/metrics.txt" 2>/dev/null || {
  echo "ci: telemetry smoke: metrics query failed" >&2
  exit 1
}
grep -q '# TYPE serve_latency_s histogram' "$tel_dir/metrics.txt" || {
  echo "ci: telemetry smoke: exposition lacks the latency histogram family" >&2
  cat "$tel_dir/metrics.txt" >&2
  exit 1
}
for tier in cache store cold shed; do
  grep -q "serve_latency_s_bucket{tier=\"$tier\",le=\"+Inf\"}" "$tel_dir/metrics.txt" || {
    echo "ci: telemetry smoke: no $tier tier in the exposition" >&2
    exit 1
  }
done
# the 1.5 s stall must show as exactly one of the two cold computes
# above 1 s (an unstalled cold compute takes milliseconds)
for sample in 'le="1"} 1' 'le="+Inf"} 2'; do
  grep -qxF "serve_latency_s_bucket{tier=\"cold\",$sample" "$tel_dir/metrics.txt" || {
    echo "ci: telemetry smoke: cold-tier histogram lacks the stall: expected '$sample'" >&2
    grep 'serve_latency_s_bucket{tier="cold"' "$tel_dir/metrics.txt" >&2
    exit 1
  }
done
"$UCP" query --socket "$TSOCK" --shutdown >/dev/null 2>&1
wait "$tel_pid" || {
  echo "ci: telemetry smoke: daemon exited non-zero" >&2
  cat "$tel_dir/serve1.err" >&2
  exit 1
}

# the stalled request must be in the slow log under the id the CLIENT
# assigned (echoed on the query's stderr as trace=...)
stalled_tid=$(sed -n 's/.*crc:k2:45nm:lru answered from computed trace=\([0-9a-f]*\)$/\1/p' \
  "$tel_dir/q1.err" | head -n 1)
if [ -z "$stalled_tid" ]; then
  echo "ci: telemetry smoke: no echoed trace id on the query stderr" >&2
  cat "$tel_dir/q1.err" >&2
  exit 1
fi
grep -q "\"trace_id\":\"$stalled_tid\"" "$tel_dir/slow.jsonl" || {
  echo "ci: telemetry smoke: stalled request not in the slow log under $stalled_tid" >&2
  cat "$tel_dir/slow.jsonl" >&2
  exit 1
}
slow_lines=$(wc -l <"$tel_dir/slow.jsonl")
if [ "$slow_lines" -ne 1 ]; then
  echo "ci: telemetry smoke: slow log holds $slow_lines lines, expected the stalled request alone" >&2
  cat "$tel_dir/slow.jsonl" >&2
  exit 1
fi
grep -q "\"trace_id\":\"$stalled_tid\"" "$tel_dir/trace.json" || {
  echo "ci: telemetry smoke: client trace id missing from the Chrome trace" >&2
  exit 1
}

# determinism: two identically seeded runs, fresh store each, must
# write byte-identical access logs modulo the timing fields, and with
# no stall armed no request may reach the slow log
for n in 2 3; do
  "$UCP" serve --socket "$TSOCK" --store "$tel_dir/store$n" -j 1 --cache 1 \
    --access-log "$tel_dir/access$n.jsonl" \
    --slow-log "$tel_dir/slow$n.jsonl" --slow-threshold 1.0 \
    2>"$tel_dir/serve$n.err" &
  tel_pid=$!
  "$UCP" query --socket "$TSOCK" --seed 5 \
    crc:k2:45nm:lru fft1:k2:45nm:lru crc:k2:45nm:lru \
    >/dev/null 2>&1 || {
    echo "ci: telemetry smoke: run $n query mix failed" >&2
    cat "$tel_dir/serve$n.err" >&2
    exit 1
  }
  "$UCP" query --socket "$TSOCK" --shutdown >/dev/null 2>&1
  wait "$tel_pid" || true
  if [ ! -f "$tel_dir/slow$n.jsonl" ] || [ -s "$tel_dir/slow$n.jsonl" ]; then
    echo "ci: telemetry smoke: run $n slow log is missing or not empty" >&2
    cat "$tel_dir/slow$n.jsonl" >&2 || true
    exit 1
  fi
  sed -E 's/"ts":[^,]+,//; s/"latency_s":[^,]+,//' "$tel_dir/access$n.jsonl" \
    >"$tel_dir/access$n.stripped"
done
cmp -s "$tel_dir/access2.stripped" "$tel_dir/access3.stripped" || {
  echo "ci: telemetry smoke: identically seeded runs wrote different access logs" >&2
  diff "$tel_dir/access2.stripped" "$tel_dir/access3.stripped" >&2 || true
  exit 1
}

echo "ci: telemetry smoke passed"

# Fuzzing smoke: a fixed-seed differential campaign must come back
# clean and record-for-record deterministic; the checked-in reproducer
# corpus must replay green; and injected corruptions must be caught,
# shrunk and deposited as replayable reproducers -- with a tampered
# entry proving the replay comparison actually bites.
fuzz_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir" "$refine_dir" "$serve_dir" "$tel_dir" "$fuzz_dir"' EXIT

# fixed seed, zero findings (exit 0), and a rerun is byte-identical
# modulo the summary line (the only line carrying wall-clock)
"$UCP" fuzz --seed 1 --count 60 --timeout 30 -j 2 \
  --out "$fuzz_dir/a.jsonl" 2>"$fuzz_dir/a.err" || {
  echo "ci: fuzz smoke: fixed-seed campaign exited non-zero" >&2
  cat "$fuzz_dir/a.err" >&2
  exit 1
}
"$UCP" fuzz --seed 1 --count 60 --timeout 30 -j 2 \
  --out "$fuzz_dir/b.jsonl" 2>/dev/null || {
  echo "ci: fuzz smoke: same-seed rerun exited non-zero" >&2
  exit 1
}
grep -v '"fuzz_summary"' "$fuzz_dir/a.jsonl" >"$fuzz_dir/a.records"
grep -v '"fuzz_summary"' "$fuzz_dir/b.jsonl" >"$fuzz_dir/b.records"
cmp -s "$fuzz_dir/a.records" "$fuzz_dir/b.records" || {
  echo "ci: fuzz smoke: same-seed reruns differ record for record" >&2
  exit 1
}

# the checked-in reproducers pin past escapes: every fault entry must
# still be caught with the same normalized signature
"$UCP" fuzz --replay corpus >/dev/null 2>"$fuzz_dir/replay.err" || {
  echo "ci: fuzz smoke: checked-in corpus replay failed" >&2
  cat "$fuzz_dir/replay.err" >&2
  exit 1
}

# negative smoke: chaos legs inject corrupt-cert / corrupt-refine and
# the audit must catch (or prove no-op) every one; each catch is
# shrunk, deposited, and replays green from the fresh corpus
"$UCP" fuzz --seed 3 --count 10 --chaos 8 --corpus "$fuzz_dir/corpus" \
  --out "$fuzz_dir/c.jsonl" 2>"$fuzz_dir/c.err" || {
  echo "ci: fuzz smoke: chaos campaign exited non-zero" >&2
  cat "$fuzz_dir/c.err" >&2
  exit 1
}
grep -q '"verdict":"caught:' "$fuzz_dir/c.jsonl" || {
  echo "ci: fuzz smoke: no chaos leg reported a caught injection" >&2
  cat "$fuzz_dir/c.jsonl" >&2
  exit 1
}
if grep -q '"verdict":"escaped:' "$fuzz_dir/c.jsonl"; then
  echo "ci: fuzz smoke: an injected corruption escaped the audit" >&2
  exit 1
fi
ls "$fuzz_dir/corpus"/*.json >/dev/null 2>&1 || {
  echo "ci: fuzz smoke: chaos catch deposited no reproducer" >&2
  exit 1
}
"$UCP" fuzz --replay "$fuzz_dir/corpus" >/dev/null 2>"$fuzz_dir/replay2.err" || {
  echo "ci: fuzz smoke: fresh reproducers do not replay" >&2
  cat "$fuzz_dir/replay2.err" >&2
  exit 1
}

# tamper with a stored signature: replay must notice and exit 1,
# proving the pin actually compares rather than rubber-stamping
mkdir "$fuzz_dir/tampered"
first=$(ls "$fuzz_dir/corpus"/*.json | head -n 1)
sed 's/"signature":"audit:/"signature":"audit:TAMPERED /' "$first" \
  >"$fuzz_dir/tampered/entry.json"
status=0
"$UCP" fuzz --replay "$fuzz_dir/tampered" \
  >/dev/null 2>"$fuzz_dir/tamper.err" || status=$?
if [ "$status" -ne 1 ]; then
  echo "ci: fuzz smoke: tampered replay exited $status, expected 1" >&2
  cat "$fuzz_dir/tamper.err" >&2
  exit 1
fi
grep -q 'signature mismatch' "$fuzz_dir/tamper.err" || {
  echo "ci: fuzz smoke: tampered replay did not report the mismatch" >&2
  cat "$fuzz_dir/tamper.err" >&2
  exit 1
}
echo "ci: fuzz smoke passed"

# Resume smoke: a checkpointed sweep whose journal loses its last 40
# bytes, as a crash mid-append leaves it, must resume by replaying the
# three complete cases, dropping the torn line and recomputing that
# case, and end with record lines byte-identical to the uninterrupted
# run.  A journal whose second line is garbage must be refused: exit 2
# with the corrupt line named on stderr.
resume_dir=$(mktemp -d)
trap 'rm -f "$smoke_err"; rm -rf "$obs_dir" "$speed_dir" "$refine_dir" "$serve_dir" "$tel_dir" "$fuzz_dir" "$resume_dir"' EXIT

"$UCP" experiment --programs fft1,crc --configs k2,k5 --techs 45nm --jobs 2 \
  --checkpoint "$resume_dir/journal.jsonl" --sweep-out "$resume_dir/full.jsonl" \
  >/dev/null 2>"$smoke_err" || {
  echo "ci: resume smoke: checkpointed sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
journal_bytes=$(wc -c <"$resume_dir/journal.jsonl")
head -c $((journal_bytes - 40)) "$resume_dir/journal.jsonl" >"$resume_dir/torn.jsonl"
mv "$resume_dir/torn.jsonl" "$resume_dir/journal.jsonl"
"$UCP" experiment --programs fft1,crc --configs k2,k5 --techs 45nm --jobs 2 \
  --checkpoint "$resume_dir/journal.jsonl" --resume \
  --sweep-out "$resume_dir/resumed.jsonl" >/dev/null 2>"$smoke_err" || {
  echo "ci: resume smoke: resumed sweep failed" >&2
  cat "$smoke_err" >&2
  exit 1
}
grep -q '\[sweep\] 3 cases replayed' "$smoke_err" || {
  echo "ci: resume smoke: expected '[sweep] 3 cases replayed'" >&2
  cat "$smoke_err" >&2
  exit 1
}
grep -v '"summary"' "$resume_dir/full.jsonl" >"$resume_dir/full.records"
grep -v '"summary"' "$resume_dir/resumed.jsonl" >"$resume_dir/resumed.records"
if ! cmp -s "$resume_dir/full.records" "$resume_dir/resumed.records"; then
  echo "ci: resume smoke: resumed records differ from the uninterrupted run" >&2
  diff "$resume_dir/full.records" "$resume_dir/resumed.records" >&2 || true
  exit 1
fi
{ head -n 1 "$resume_dir/journal.jsonl"; echo garbage; tail -n +3 "$resume_dir/journal.jsonl"; } \
  >"$resume_dir/corrupt.jsonl"
status=0
"$UCP" experiment --programs fft1,crc --configs k2,k5 --techs 45nm --jobs 2 \
  --checkpoint "$resume_dir/corrupt.jsonl" --resume \
  --sweep-out "$resume_dir/refused.jsonl" >/dev/null 2>"$smoke_err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q 'corrupt journal line 2$' "$smoke_err"; then
  echo "ci: resume smoke: corrupt journal: expected exit 2 and 'corrupt journal line 2', got $status" >&2
  cat "$smoke_err" >&2
  exit 1
fi
# the refused run stopped before writing anything: its --sweep-out
# path must not exist, not even empty
if [ -e "$resume_dir/refused.jsonl" ]; then
  echo "ci: resume smoke: the refused resume left its --sweep-out file behind" >&2
  exit 1
fi
echo "ci: resume smoke passed"

# Behaviour preservation: a short run of each benchmark workload.
# Every batch run checks each record against check_invariants and the
# whole record stream against the digest pinned in
# ucpbench/baseline.json; the serve-mix run computes its cases in the
# daemon's cold tier (Experiments.run_case) and byte-compares each
# answer across the cold, store and memory tiers.  Any mismatch exits
# non-zero.
for workload in lru-small lru-large policies-audit serve-mix; do
  bash ucpbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 \
    >"$smoke_err" 2>&1 || {
    echo "ci: benchmark check: $workload failed" >&2
    cat "$smoke_err" >&2
    exit 1
  }
done
echo "ci: benchmark record-digest check passed"
