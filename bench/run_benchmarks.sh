#!/usr/bin/env bash
# Runs the hot-path performance suites and collects one JSON report at the
# repo root (BENCH_PR10.json). Usage:
#
#   bench/run_benchmarks.sh [--build DIR] [--seed-bin PATH] [--out FILE]
#                           [--baseline FILE]
#
#   --build DIR      build tree holding the bench binaries (default: build)
#   --seed-bin PATH  a bench_scalability binary compiled from the baseline
#                    tree; when given, the report includes the baseline
#                    throughput and the speedup ratio, and the same-machine
#                    regression guards (cache-off within 3% of the baseline
#                    path, serial and tracing-on throughput — the latter two
#                    also bound the profiler-off cost, which is one untaken
#                    branch per epoch) are enforced
#   --out FILE       output report (default: <repo>/BENCH_PR10.json)
#   --baseline FILE  earlier report (default: <repo>/BENCH_PR9.json when it
#                    exists); its figures are folded into the report as
#                    informational ratios — stored reports come from other
#                    machines, so hard guards only use numbers measured in
#                    this run (in-process A/B ratios, or --seed-bin)
#
# The google-benchmark suites are captured with --benchmark_out (their
# stdout also carries human-readable tables); the end-to-end throughput
# phase of bench_scalability writes its own small JSON with tracing-off
# and tracing-on figures, the sharded phase checks engine determinism, and
# the flowcache phase A/Bs the flow fastpath cache on the forwarding-heavy
# scenario (delivered counts and SLA tables must be byte-identical, and
# the cached path must beat the PR4-equivalent slow path by >= 1.4x). The
# flow phase A/Bs the per-flow accounting plane on the generated topology
# (flow-on must replay byte-identical delivered/SLA outputs; the serial
# accounting overhead is bounded; flow-weighted partitioning must spread
# the topology-generator hot spot across shards). The megaflow phase
# sweeps the SoA FlowSet traffic engine over 10^4/10^5/10^6 flows for setup
# time, throughput and peak memory (serial == 4-shard at 10^5 flows,
# <= 64 B of source state per flow, 10^5-flow setup under 1 s). A
# scenario run with metrics enabled contributes the per-DSCP-class
# latency/drop breakdown plus the per-hop/per-class delay decomposition,
# and bench_convergence contributes the causal-span summary (LDP mapping,
# LSP setup, reroute convergence). The churn phase (bench_churn) checks the
# packed MP-BGP update groups and incremental SPF against the checked-in
# goldens (tests/golden/): Loc-RIB fingerprints must match, session
# messages must stay at or under the recorded counts, incremental next hops
# must match a cold-converged network, a single-link cost flap must trigger
# zero full SPF rebuilds at routing-unaffected routers, same-tick flaps must
# be damped in the flush window, and the compact Adj-RIB-In must hold a
# 10^5-route cold boot at <= 96 B/route; branch_office.scn is then replayed
# and diffed against its golden report.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
SEED_BIN=""
OUT="$ROOT/BENCH_PR10.json"
BASELINE=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build) BUILD="$2"; shift 2 ;;
    --seed-bin) SEED_BIN="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -z "$BASELINE" && -f "$ROOT/BENCH_PR9.json" ]]; then
  BASELINE="$ROOT/BENCH_PR9.json"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Per-phase wall clock, folded into the report's metadata block so stored
# reports say where a run's time went on the machine that produced it.
PHASES="$TMP/phases.json"
echo '{}' > "$PHASES"
mark() { date +%s.%N; }
record_phase() { # name start_epoch end_epoch
  jq --arg k "$1" --argjson s "$2" --argjson e "$3" \
    '.[$k] = (($e - $s) * 1000 | round / 1000)' \
    "$PHASES" > "$PHASES.tmp" && mv "$PHASES.tmp" "$PHASES"
}

echo "== scheduler / packet-pool / snapshot microbenchmarks =="
t0=$(mark)
"$BUILD/bench/bench_scheduler" --benchmark_min_time=0.2 \
  --benchmark_out="$TMP/scheduler.json" --benchmark_out_format=json
record_phase scheduler_microbench "$t0" "$(mark)"

# Flat-snapshot guard: registry snapshot cost must not follow the sample
# count (the sketch mirror reads are O(1); the old path re-sorted).
# Allow 3x for noise — the broken path is >100x at this sweep.
jq -e '
  [.benchmarks[] | select(.name | startswith("BM_MetricsSnapshot"))
   | {n: (.name | capture("/(?<n>[0-9]+)$").n | tonumber), t: .real_time}]
  | sort_by(.n)
  | if length < 2 then error("BM_MetricsSnapshot sweep missing")
    elif (.[-1].t / .[0].t) < 3
    then "snapshot flatness ok: \(.[0].t | floor)ns @\(.[0].n) samples vs \(.[-1].t | floor)ns @\(.[-1].n)"
    else error("snapshot cost grows with sample count: \(.)")
    end' "$TMP/scheduler.json"

echo
echo "== forwarding-path lookup microbenchmarks (E2) =="
t0=$(mark)
"$BUILD/bench/bench_forwarding" --benchmark_min_time=0.1 \
  --benchmark_out="$TMP/forwarding.json" --benchmark_out_format=json \
  > /dev/null
record_phase forwarding_microbench "$t0" "$(mark)"

echo
echo "== end-to-end throughput, tracing off vs on (bench_scalability) =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --throughput-only \
  --json "$TMP/throughput.json"
record_phase throughput "$t0" "$(mark)"

# Tracing-overhead guard, self-relative: both phases run interleaved in
# this process, so the ratio is immune to machine drift. With every trace
# category recording, throughput must keep >= 85% of the tracing-off rate.
jq -e '
  if .tracing_overhead_ratio >= 0.85
  then "tracing overhead ok: ratio \(.tracing_overhead_ratio)"
  else error("tracing-on throughput fell below 85% of tracing-off: \(.tracing_overhead_ratio)")
  end' "$TMP/throughput.json"

echo
echo "== sharded parallel engine, 1/2/4 shards (bench_scalability) =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --sharded-only \
  --sharded-json "$TMP/sharded.json"
record_phase sharded "$t0" "$(mark)"

# Sharded-engine guards. Determinism (identical delivered counts across
# shard counts) is unconditional. The speedup target only means something
# when the machine can actually run the shards in parallel: with >= 4
# hardware threads we require >= 2.5x at 4 shards; on smaller hosts the
# threads time-slice one core, so we instead bound the coordination
# overhead (4-shard wall clock within 30% of serial).
jq -e '
  if .deterministic != true then
    error("sharded engine nondeterministic: delivered counts diverged")
  elif .hardware_threads >= 4 then
    if .speedup_shards4 >= 2.5
    then "sharded speedup ok: \(.speedup_shards4)x @4 shards on \(.hardware_threads) hw threads"
    else error("sharded speedup \(.speedup_shards4)x below 2.5x target on \(.hardware_threads) hw threads")
    end
  else
    if .speedup_shards4 >= 0.70
    then "sharded overhead ok on \(.hardware_threads) hw thread(s): \(.speedup_shards4)x @4 shards (speedup target needs >=4 cores)"
    else error("sharded overhead too high: \(.speedup_shards4)x @4 shards on \(.hardware_threads) hw thread(s)")
    end
  end' "$TMP/sharded.json"

echo
echo "== generated ISP-scale topology, 1/2/4 shards, profiler off/on =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --topogen-only \
  --topogen-json "$TMP/topogen.json"
record_phase topogen "$t0" "$(mark)"

# The PR6 headline guard, on the workload big enough to amortize sync
# cost: determinism (delivered counts AND the merged per-class SLA table
# byte-identical across shard counts) is unconditional; with >= 4 hardware
# threads 4 shards must beat the same-run interleaved serial pass >= 2x;
# on smaller hosts the shards time-slice one core, so we instead bound the
# coordination overhead (4-shard wall clock within 30% of serial).
jq -e '
  if .deterministic != true then
    error("topogen sharded engine nondeterministic: outputs diverged across shard counts")
  elif .hardware_threads >= 4 then
    if .speedup_shards4 >= 2.0
    then "topogen sharded speedup ok: \(.speedup_shards4)x @4 shards on \(.hardware_threads) hw threads"
    else error("topogen sharded speedup \(.speedup_shards4)x below 2x target on \(.hardware_threads) hw threads")
    end
  else
    if .speedup_shards4 >= 0.70
    then "topogen sharded overhead ok on \(.hardware_threads) hw thread(s): \(.speedup_shards4)x @4 shards (speedup target needs >=4 cores)"
    else error("topogen sharded overhead too high: \(.speedup_shards4)x @4 shards on \(.hardware_threads) hw thread(s)")
    end
  end' "$TMP/topogen.json"

# PR7 sync-profiler guards, in-process and same-run (each profiled pass is
# interleaved with its unprofiled twin). Identity is unconditional: the
# profiled passes must replay byte-identical SLA tables. The overhead
# guard is the serial pass — profiler on must keep >= 97% of the
# unprofiled serial rate (the <= 3% bar). The sharded profiled ratios add
# a real per-epoch clock read per worker, so they are reported but only
# loosely bounded on time-sliced single-core hosts.
jq -e '
  if .profiled_identical != true then
    error("sync profiler perturbed results: profiled SLA/delivered diverged")
  elif .profiler_on_serial_ratio >= 0.97
  then "profiler-on serial overhead ok: ratio \(.profiler_on_serial_ratio)"
  else error("profiler-on serial throughput \(.profiler_on_serial_ratio) fell below 97% of the unprofiled pass")
  end' "$TMP/topogen.json"
jq -e '
  if .profiler_on_shards4_ratio >= 0.85
  then "profiler-on @4 shards ok: ratio \(.profiler_on_shards4_ratio) (@2: \(.profiler_on_shards2_ratio))"
  else error("profiler-on 4-shard throughput \(.profiler_on_shards4_ratio) fell below 85% of the unprofiled pass")
  end' "$TMP/topogen.json"

echo
echo "== flow fastpath cache off vs on (bench_scalability) =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --flowcache-only \
  --flowcache-json "$TMP/flowcache.json"
record_phase flowcache "$t0" "$(mark)"

# Fastpath guards, both in-process and therefore machine-drift-immune.
# Identity is unconditional: delivered counts and the per-class SLA table
# must be byte-identical with the cache on and off. The speedup guard is
# the PR's headline: on the forwarding-heavy scenario the cached path must
# beat the uncached path — which IS the PR4-era serial pipeline, the cache
# machinery adds only a disabled branch — by >= 1.4x.
jq -e '
  if .identical != true then
    error("flowcache changed results: delivered/SLA diverged between on and off")
  elif .fastpath_speedup >= 1.4
  then "fastpath speedup ok: \(.fastpath_speedup)x over the uncached serial path (hit rate \(.hit_rate))"
  else error("fastpath speedup \(.fastpath_speedup)x below the 1.4x target")
  end' "$TMP/flowcache.json"

echo
echo "== per-flow accounting off vs on + partition profiles (bench_scalability) =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --flow-only \
  --flow-json "$TMP/flow.json"
record_phase flow "$t0" "$(mark)"

# PR8 flow-accounting guards, in-process and same-run (every flow-on pass
# is interleaved with its flow-off twin). Identity is unconditional: with
# accounting on, delivered counts and the per-class SLA table must replay
# byte-identical, serial and at 4 shards. The overhead guard is the serial
# pass — flow-on must keep >= 97% of the flow-off rate (the <= 3% bar).
# That bar only resolves on hosts with real parallel headroom: on a
# time-sliced single core the run-to-run noise is wider than 3%, so there
# we bound the overhead coarsely instead (>= 80% of flow-off).
jq -e '
  if .identical != true then
    error("flow accounting changed results: delivered/SLA diverged between on and off")
  elif .hardware_threads >= 4 then
    if .flow_on_serial_ratio >= 0.97
    then "flow-on serial overhead ok: ratio \(.flow_on_serial_ratio) (\(.flow_records) records)"
    else error("flow-on serial throughput \(.flow_on_serial_ratio) fell below 97% of the flow-off pass")
    end
  else
    if .flow_on_serial_ratio >= 0.80
    then "flow-on serial overhead ok on \(.hardware_threads) hw thread(s): ratio \(.flow_on_serial_ratio) (3% bar needs >=4 cores; \(.flow_records) records)"
    else error("flow-on serial throughput \(.flow_on_serial_ratio) fell below the single-core 80% floor")
    end
  end' "$TMP/flow.json"

# Flow-weighted partitioning guard, fully deterministic (shard assignment
# and event counts don't depend on wall clock): against the same measured
# profile, balancing shards by flow weight instead of node count must pull
# the busiest shard's event share toward the 4-shard ideal — the max/mean
# event spread must drop by a clear margin (node-count partitioning sits
# near 1.95x on this topology, flow-weighted near 1.15x).
jq -e '
  if (.partition_node.event_spread - .partition_flow.event_spread) >= 0.3
  then "flow-weighted partition ok: event spread \(.partition_node.event_spread)x -> \(.partition_flow.event_spread)x (critical share \(.partition_node.critical_share) -> \(.partition_flow.critical_share))"
  else error("flow-weighted partition failed to spread load: event spread \(.partition_node.event_spread)x -> \(.partition_flow.event_spread)x")
  end' "$TMP/flow.json"

echo
echo "== megaflow FlowSet engine, 10^4..10^6 sweep =="
t0=$(mark)
"$BUILD/bench/bench_scalability" --megaflow-only \
  --megaflow-json "$TMP/megaflow.json"
record_phase megaflow "$t0" "$(mark)"

# PR9 megaflow guards. Identity is unconditional and in-process: at 10^5
# flows the serial and 4-shard FlowSet runs must agree on delivered counts
# and the per-class SLA table byte for byte. The footprint guards are
# deterministic: <= 64 B of SoA source state per flow at 10^5 flows, and
# the 10^5-flow build+arm must finish inside 1 s.
jq -e '
  if .identical_1e5_shards != true then
    error("megaflow serial and 4-shard outputs diverged at 1e5 flows")
  elif .state_bytes_per_flow_1e5 > 64 then
    error("megaflow state \(.state_bytes_per_flow_1e5) B/flow exceeds the 64 B budget")
  elif .setup_s_1e5 >= 1.0 then
    error("megaflow 1e5-flow setup took \(.setup_s_1e5) s (budget 1 s)")
  else
    "megaflow ok: \(.state_bytes_per_flow_1e5) B/flow, 1e5 setup \(.setup_s_1e5) s, 8k serial \(.flowset_packets_per_sec | floor) pkts/s"
  end' "$TMP/megaflow.json"

echo
echo "== control-plane churn: packed updates + incremental SPF (bench_churn) =="
t0=$(mark)
"$BUILD/bench/bench_churn" --json "$TMP/churn.json"
record_phase churn "$t0" "$(mark)"

# PR10 churn guards, all deterministic (message counts, fingerprints and
# RIB byte accounting are functions of the event sequence, not the wall
# clock). The cold-boot, flap-storm and RR-failover Loc-RIBs must match
# their fingerprints in tests/golden/loc_rib.txt, and each phase's session
# messages must stay at or under the count recorded beside it (8578 for
# the 64-PE cold boot). Incremental SPF must match cold-converged next
# hops; the flush-window flap damping, the zero full-rebuild bar at
# routing-unaffected routers, and the 96 B/route Adj-RIB-In budget at 10^5
# routes are unconditional too.
jq -e '
  if .cold_boot.golden != true then
    error("cold-boot Loc-RIBs differ from the golden fingerprint")
  elif .flap_storm.golden != true then
    error("flap-storm Loc-RIBs differ from the golden fingerprint")
  elif .rr_failover.golden != true then
    error("RR-failover Loc-RIBs differ from the golden fingerprint")
  elif ([.cold_boot, .flap_storm, .rr_failover] | map(.within_golden_ceiling) | all) != true then
    error("session messages exceeded the golden ceiling: cold boot \(.cold_boot.messages), flap storm \(.flap_storm.messages), failover \(.rr_failover.messages)")
  elif .spf_flap.identical != true then
    error("incremental SPF next hops diverged from cold convergence")
  elif .spf_flap.unaffected_full_runs != 0 then
    error("\(.spf_flap.unaffected_full_runs) full SPF rebuilds at routing-unaffected routers")
  elif .flap_storm.superseded <= 0 then
    error("no flaps were damped inside the flush window")
  elif .cold_boot_1e5.converged != true then
    error("1e5-route cold boot failed to converge")
  elif .cold_boot_1e5.rib_bytes_per_route > 96 then
    error("adj-rib footprint \(.cold_boot_1e5.rib_bytes_per_route) B/route exceeds the 96 B budget")
  else
    "churn ok: golden Loc-RIBs, \(.cold_boot.messages) cold-boot msgs, \(.flap_storm.superseded) flaps damped, \(.cold_boot_1e5.rib_bytes_per_route) B/route @1e5, spf work \(.spf_flap.edges_relaxed_incremental) edges"
  end' "$TMP/churn.json"

# Scenario-level golden: the full backbone scenario must print the recorded
# report — route selection, forwarding and QoS outcomes are pinned end to
# end, not just at the RIB level.
"$BUILD/examples/run_scenario" \
  "$ROOT/examples/scenarios/branch_office.scn" > "$TMP/scn.txt"
if ! diff -q "$ROOT/tests/golden/branch_office.txt" "$TMP/scn.txt" > /dev/null; then
  echo "branch_office.scn output diverged from tests/golden/branch_office.txt:" >&2
  diff "$ROOT/tests/golden/branch_office.txt" "$TMP/scn.txt" >&2 || true
  exit 1
fi
echo "scenario golden ok: branch_office.scn report byte-identical to tests/golden/"

if [[ -n "$SEED_BIN" ]]; then
  echo
  echo "== seed-baseline comparison (interleaved best-of-3 per side) =="
  t0=$(mark)
  # Interleave the three binaries rep by rep and keep each side's best:
  # sequential phases run minutes apart on a shared host, so load drift
  # otherwise lands entirely on whichever side ran during the spike.
  for i in 1 2 3; do
    "$SEED_BIN" --throughput-only \
      --json "$TMP/seed_rep$i.json" > /dev/null
    "$BUILD/bench/bench_scalability" --throughput-only --no-flowcache \
      --json "$TMP/nocache_rep$i.json" > /dev/null
    "$BUILD/bench/bench_scalability" --throughput-only \
      --json "$TMP/cacheon_rep$i.json" > /dev/null
  done
  jq -s 'max_by(.packets_per_sec)' "$TMP"/seed_rep*.json \
    > "$TMP/throughput_seed.json"
  jq -s 'max_by(.packets_per_sec)' "$TMP"/nocache_rep*.json \
    > "$TMP/throughput_nocache.json"
  jq -s 'max_by(.packets_per_sec)' "$TMP"/cacheon_rep*.json \
    "$TMP/throughput.json" > "$TMP/throughput_best.json"

  # Same-machine regression guards against the baseline binary:
  #  * cache-off throughput within 3% of the baseline — the fastpath must
  #    not tax the slow path it falls back to;
  #  * serial (cache-on) throughput no worse than the baseline;
  #  * tracing-on throughput within 92% of the baseline's tracing-off.
  jq -e --slurpfile seed "$TMP/throughput_seed.json" '
    ($seed[0].packets_per_sec) as $b
    | if (.packets_per_sec / $b) >= 0.97
      then "cache-off vs baseline ok: \(.packets_per_sec | floor) vs \($b | floor) pkts/s"
      else error("cache-off throughput \(.packets_per_sec) fell below 97% of baseline \($b)")
      end' "$TMP/throughput_nocache.json"
  jq -e --slurpfile seed "$TMP/throughput_seed.json" '
    ($seed[0].packets_per_sec) as $b
    | if (.packets_per_sec / $b) >= 0.98
      then "serial vs baseline ok: \(.packets_per_sec | floor) vs \($b | floor) pkts/s"
      else error("serial throughput \(.packets_per_sec) fell below 98% of baseline \($b)")
      end' "$TMP/throughput_best.json"
  jq -e --slurpfile seed "$TMP/throughput_seed.json" '
    ($seed[0].packets_per_sec) as $b
    | if (.tracing_on_packets_per_sec / $b) >= 0.92
      then "tracing-on vs baseline ok: \(.tracing_on_packets_per_sec | floor) vs \($b | floor) pkts/s"
      else error("tracing-on throughput \(.tracing_on_packets_per_sec) fell below 92% of baseline \($b)")
      end' "$TMP/throughput_best.json"
  record_phase seed_baseline "$t0" "$(mark)"
else
  echo '{}' > "$TMP/throughput_seed.json"
  echo '{}' > "$TMP/throughput_nocache.json"
fi

echo
echo "== control-plane causal spans (bench_convergence) =="
t0=$(mark)
"$BUILD/bench/bench_convergence" --json "$TMP/convergence_spans.json" \
  > /dev/null
record_phase convergence "$t0" "$(mark)"

echo
echo "== scenario observability pass (per-class SLA + latency anatomy + flows) =="
t0=$(mark)
# The flow artefacts land next to $OUT (not in $TMP) so CI can upload the
# record stream and conformance rollup alongside the report itself.
OUTDIR="$(dirname "$OUT")"
"$BUILD/examples/run_scenario" --metrics "$TMP/scenario_metrics.json" \
  --trace "$TMP/scenario_trace.json" \
  --latency-json "$TMP/scenario_latency.json" \
  --flow-records "$OUTDIR/scenario_flows.jsonl" \
  --flow-report \
  "$ROOT/examples/scenarios/branch_office.scn" \
  > "$OUTDIR/scenario_flow_report.txt"
test -s "$OUTDIR/scenario_flows.jsonl"
grep -q "flow conformance" "$OUTDIR/scenario_flow_report.txt"
record_phase scenario_obs "$t0" "$(mark)"
# Keep the last snapshot's sla/* and queue drop gauges: the steady-state
# per-DSCP-class latency / loss picture of the congested demo core.
jq '[ .[-1].metrics | to_entries[]
      | select((.key | startswith("sla/"))
               or (.key | test("queue/(band[0-9]+/)?drops$")))
    ] | from_entries' \
  "$TMP/scenario_metrics.json" > "$TMP/scenario_classes.json"

if [[ -z "$BASELINE" ]]; then
  echo 'null' > "$TMP/baseline.json"
else
  cp "$BASELINE" "$TMP/baseline.json"
fi

jq -n \
  --arg nproc "$(nproc)" \
  --slurpfile phases "$PHASES" \
  --slurpfile thr "$TMP/throughput.json" \
  --slurpfile shard "$TMP/sharded.json" \
  --slurpfile topo "$TMP/topogen.json" \
  --slurpfile fc "$TMP/flowcache.json" \
  --slurpfile flow "$TMP/flow.json" \
  --slurpfile mega "$TMP/megaflow.json" \
  --slurpfile churn "$TMP/churn.json" \
  --slurpfile nocache "$TMP/throughput_nocache.json" \
  --slurpfile seed "$TMP/throughput_seed.json" \
  --slurpfile base "$TMP/baseline.json" \
  --slurpfile sched "$TMP/scheduler.json" \
  --slurpfile fwd "$TMP/forwarding.json" \
  --slurpfile classes "$TMP/scenario_classes.json" \
  --slurpfile latency "$TMP/scenario_latency.json" \
  --slurpfile spans "$TMP/convergence_spans.json" \
  '{
    metadata: {
      hardware_threads: $topo[0].hardware_threads,
      nproc: ($nproc | tonumber),
      shards_tested: [1, 2, 4],
      phase_wall_seconds: $phases[0]
    },
    throughput: $thr[0],
    sharded: $shard[0],
    topogen_sharded: $topo[0],
    flowcache: $fc[0],
    flow_accounting: $flow[0],
    megaflow: $mega[0],
    churn: $churn[0],
    throughput_cache_off:
      (if ($nocache[0] | length) > 0 then $nocache[0] else null end),
    seed_baseline: (if ($seed[0] | length) > 0 then $seed[0] else null end),
    speedup_packets_per_sec:
      (if ($seed[0].packets_per_sec? // 0) > 0
       then ($thr[0].packets_per_sec / $seed[0].packets_per_sec)
       else null end),
    cache_off_vs_seed:
      (if ($seed[0].packets_per_sec? // 0) > 0
          and ($nocache[0].packets_per_sec? // 0) > 0
       then ($nocache[0].packets_per_sec / $seed[0].packets_per_sec)
       else null end),
    vs_prior_report_ratio:
      (if ($base[0].throughput.packets_per_sec? // 0) > 0
       then ($thr[0].packets_per_sec / $base[0].throughput.packets_per_sec)
       else null end),
    scenario_class_breakdown: $classes[0],
    latency_decomposition: $latency[0],
    convergence_spans: $spans[0],
    scheduler_microbench: $sched[0],
    forwarding_microbench: $fwd[0]
  }' > "$OUT"

echo
echo "report written to $OUT"
jq -r '"packets/sec: \(.throughput.packets_per_sec)  tracing-on: \(.throughput.tracing_on_packets_per_sec)  (overhead ratio \(.throughput.tracing_overhead_ratio))"' "$OUT"
jq -r '"fastpath: \(.flowcache.fastpath_speedup)x over the uncached path (hit rate \(.flowcache.hit_rate), identical: \(.flowcache.identical))"' "$OUT"
jq -r '"flow accounting: serial ratio \(.flow_accounting.flow_on_serial_ratio), @4 shards \(.flow_accounting.flow_on_shards4_ratio) (\(.flow_accounting.flow_records) records, identical: \(.flow_accounting.identical))"' "$OUT"
jq -r '"flow partition: event spread \(.flow_accounting.partition_node.event_spread)x -> \(.flow_accounting.partition_flow.event_spread)x, critical share \(.flow_accounting.partition_node.critical_share) -> \(.flow_accounting.partition_flow.critical_share)"' "$OUT"
jq -r '"megaflow: \(.megaflow.flowset_packets_per_sec | floor) pkts/s @8k, \(.megaflow.state_bytes_per_flow_1e5) B/flow, 1e5 setup \(.megaflow.setup_s_1e5) s (serial==4-shard: \(.megaflow.identical_1e5_shards))"' "$OUT"
jq -r '".. megaflow sweep: \([.megaflow.sweep[] | "\(.flows)f \(.setup_s)s setup \(.vmhwm_mb)MB"] | join(", "))"' "$OUT"
jq -r '"churn: \(.churn.cold_boot.messages) cold-boot msgs (golden: \(.churn.cold_boot.golden)), \(.churn.flap_storm.superseded) flaps damped, \(.churn.cold_boot_1e5.rib_bytes_per_route) B/route @1e5 routes"' "$OUT"
jq -r '"spf: \(.churn.spf_flap.edges_relaxed_incremental) edges relaxed, \(.churn.spf_flap.skipped) no-op skips, unaffected full rebuilds \(.churn.spf_flap.unaffected_full_runs) (matches cold convergence: \(.churn.spf_flap.identical))"' "$OUT"
jq -r '"sharded: \(.sharded.speedup_shards4)x @4 shards (\(.sharded.hardware_threads) hw threads, deterministic: \(.sharded.deterministic))"' "$OUT"
jq -r '"topogen sharded: \(.topogen_sharded.speedup_shards4)x @4 shards on \(.topogen_sharded.topology) (\(.topogen_sharded.delivered_packets) pkts, deterministic: \(.topogen_sharded.deterministic))"' "$OUT"
jq -r '"sync profiler: serial ratio \(.topogen_sharded.profiler_on_serial_ratio), @4 shards \(.topogen_sharded.profiler_on_shards4_ratio) (identical: \(.topogen_sharded.profiled_identical)); 4-shard busy \([.topogen_sharded.sync_profile.shards4.lanes[].busy_fraction])"' "$OUT"
jq -r '"reroute convergence: \(.convergence_spans.reroute_convergence.mean_ms) ms mean over \(.convergence_spans.reroutes) reroutes"' "$OUT"
jq -r '"vs prior report: ratio \(.vs_prior_report_ratio // "n/a")  cache-off vs seed: \(.cache_off_vs_seed // "n/a")"' "$OUT"
