#!/usr/bin/env bash
# Local CI: configure, build, and run the test suite in three
# configurations — plain, ASan+UBSan (SPIRE_SANITIZE=ON), and TSan
# (SPIRE_SANITIZE=thread, concurrency tests only: the queue/merger
# suites and the dist loopback runs, `serve`'s no-hop shape included).
# Any warning is an error in every configuration (-Werror is always
# on). After ctest, the plain and sanitized configurations replay the
# spire_fuzz seed corpus
# (tools/fuzz_seeds.txt) through the differential oracle battery
# (DESIGN.md §7); an oracle violation fails the build and leaves the
# minimized repro under <build-dir>/fuzz-repros/ (its path is printed on
# stdout). The plain configuration then runs the observability smoke step
# (DESIGN.md §9): a fuzz-seed `spire_cli run` with tracing + explain on,
# artifact validation via `spire_cli obscheck`, byte-identity of
# instrumented vs uninstrumented output, the expt11_obs overhead
# bench (arms reported), and the traced dist overhead gated at 1.15x
# through perfbench's sites_fleet obs.trace_overhead_ratio. A CEP smoke step
# (DESIGN.md §11) then cross-checks the pattern library's two evaluators
# over a fuzz-seed trace and an archive replay via `spire_cli detect`.
# An archive codec smoke (DESIGN.md §6) round-trips a trace through both
# block codecs (including the v1 -> v2 compaction path) over the mmap and
# buffered transports — in the plain AND the sanitized configuration.
# A segment-direct query smoke (DESIGN.md §13) archives a fuzz-seed trace
# and serves a generated mixed-kind workload through `spire_cli
# queryserve` on 2 threads with the materialized-baseline identity check
# on and the query cache counters re-validated by obscheck — in the plain
# AND the TSan configuration (the shared block cache and concurrent
# decode paths are exactly what TSan is for).
# A distributed-serving smoke (DESIGN.md §12) runs a truck-transfer seed
# on 2 loopback nodes with the serial-reference byte-identity check on,
# validates the dist wire counters via `spire_cli obscheck`, and re-runs
# the workload on forked node processes (spawn mode must match loopback
# bit for bit) with the full fleet observability stack attached: per-node
# StatsReport frames aggregated into a fleet statusz and per-node traces
# merged onto one timeline, both re-validated by obscheck (DESIGN.md §9).
# The TSan leg repeats the loopback half only — fork with running threads
# is out of bounds under the sanitizer.
# `all` also builds (without testing) a Release tree, whose optimizer
# raises warnings the default build never sees.
#
#   tools/ci.sh            # all three configurations + the Release build
#   tools/ci.sh plain      # plain only
#   tools/ci.sh sanitize   # ASan+UBSan only
#   tools/ci.sh tsan       # ThreadSanitizer only (queue/merger/dist tests)
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "=== [$name] fuzz (differential oracles) ==="
  "$dir/tools/spire_fuzz" --seeds tools/fuzz_seeds.txt --budget 30s \
    --out-dir "$dir/fuzz-repros"
}

# TSan watches the threaded code paths; the single-threaded suites add
# nothing but runtime, so only the queue/merger, dist (ServeTest is the
# no-hop shape), query-cache and obs-instrument tests run here.
run_tsan() {
  local dir="build-tsan"
  echo "=== [tsan] configure ==="
  cmake -B "$dir" -S . -DSPIRE_SANITIZE=thread
  echo "=== [tsan] build ==="
  cmake --build "$dir" -j "$jobs" \
    --target serve_test common_test obs_test dist_test query_test spire_cli
  echo "=== [tsan] test (concurrency suites) ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
    -R 'Serve|Queue|Merger|Log|Obs|Tracer|Dist|Cache'
  run_dist_smoke "$dir" loopback
  run_queryserve_smoke "$dir"
}

run_release_build() {
  echo "=== [release] build (no tests) ==="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs"
}

# Observability smoke: a fuzz-seed run with tracing and the explain channel
# on, the trace/metrics/explain artifacts re-validated by `spire_cli
# obscheck`, and a soft check that instruments-off vs instruments-on output
# is byte-identical (determinism with the obs layer in both states).
run_obs_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [obs] smoke (run + statusz + obscheck) ==="
  "$dir/tools/spire_cli" run seed=7 out="$tmp/on.spev" \
    trace_out="$tmp/trace.json" explain_out="$tmp/run.spexp" \
    archive_out="$tmp/run.sparc"
  "$dir/tools/spire_cli" statusz seed=7 json=true > "$tmp/statusz.json"
  "$dir/tools/spire_cli" obscheck trace="$tmp/trace.json" \
    metrics="$tmp/statusz.json" explain="$tmp/run.spexp"
  "$dir/tools/spire_cli" serve sites=1 seed=7 nodes=1 \
    out="$tmp/off.spev" > /dev/null
  if ! cmp -s "$tmp/on.spev" "$tmp/off.spev"; then
    echo "obs smoke: instrumented run diverged from uninstrumented run" >&2
    rm -rf "$tmp"
    exit 1
  fi
  echo "=== [obs] overhead bench (arms reported) ==="
  # Every arm's wall clock stays soft: three interleaved repetitions on a
  # shared machine swing the ratios by more than any bound worth gating.
  # The binary itself hard-fails if stats+tracing change the merged
  # stream of its dist leg.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt11_obs" reps=3 | tail -n +4
  echo "=== [obs] dist tracing overhead (perfbench sites_fleet, gated) ==="
  # The gated overhead claim: traced 2-node dist replays keep at least
  # 1/1.15 of the untraced replays' throughput. perfbench's
  # obs.trace_overhead_ratio takes each half's median replay rate over
  # the replays the host stole least from, pinned to one vCPU. That does
  # not keep host drift out of the gate: on one 4-vCPU host, 38 runs of
  # two trees that differ in no code this workload runs read 0.719-1.231,
  # 13 of them (about a third) below the floor, while other host periods
  # read none below. ROADMAP.md, "A tracing-overhead gate that the host
  # cannot fail", holds the known cause and the planned fix.
  python3 perfbench/run.py --workload sites_fleet --seed 1 --seconds 12 \
    --trace 1 > "$tmp/fleet.out"
  python3 - "$tmp/fleet.out" <<'PY'
import json
import sys

result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
ratio = result["metrics"]["obs.trace_overhead_ratio"]["value"]
print(f"obs.trace_overhead_ratio {ratio:.3f} (floor {1 / 1.15:.3f})")
if ratio < 1 / 1.15:
    sys.exit("obs smoke: traced dist replays fell below 1/1.15 of untraced")
PY
  rm -rf "$tmp"
}

# CEP detection smoke (DESIGN.md §11): the built-in pattern library over a
# fuzz-seed trace with both evaluators cross-checked (eval=check exits
# nonzero on any divergence or zero matches), the match explain channel
# re-validated by obscheck, and a registry-free pattern detected over an
# archive replay of the same seed.
run_cep_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [cep] detect smoke (library + archive + explain) ==="
  "$dir/tools/spire_cli" detect patterns=library seed=33 eval=check \
    require_matches=true explain_out="$tmp/matches.spexp"
  "$dir/tools/spire_cli" obscheck explain="$tmp/matches.spexp"
  "$dir/tools/spire_cli" run seed=33 out="$tmp/run.spev" \
    archive_out="$tmp/run.sparc" > /dev/null
  "$dir/tools/spire_cli" detect 'pattern=Missing(x)' \
    archive="$tmp/run.sparc" eval=check require_matches=true
  rm -rf "$tmp"
}

# Archive codec smoke (DESIGN.md §6): a fuzz-seed trace archived with each
# codec (the v2 bitpack segment produced by compacting a v1 varint segment,
# so the upgrade path is exercised too), then scanned back over both
# transports. Every scan must reproduce the pipeline's event file
# byte-for-byte. Runs under the sanitized build as well, putting the
# word-at-a-time bitpack decode and the mmap zero-copy path in front of
# ASan/UBSan on every CI pass.
run_archive_smoke() {
  local dir="$1" tmp arc transport
  tmp="$(mktemp -d)"
  echo "=== [archive] codec smoke (varint + v1->v2 bitpack, mmap + buffered) ==="
  "$dir/tools/spire_cli" run seed=21 out="$tmp/run.spev" > /dev/null
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/varint.sparc" \
    codec=varint
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/v1.sparc" \
    format=1
  "$dir/tools/spire_cli" compact in="$tmp/v1.sparc" out="$tmp/bitpack.sparc"
  for arc in varint bitpack; do
    for transport in 1 0; do
      "$dir/tools/spire_cli" scan in="$tmp/$arc.sparc" mmap="$transport" \
        out="$tmp/scan.spev" > /dev/null
      if ! cmp -s "$tmp/run.spev" "$tmp/scan.spev"; then
        echo "archive smoke: $arc mmap=$transport scan diverged" >&2
        rm -rf "$tmp"
        exit 1
      fi
    done
  done
  rm -rf "$tmp"
}

# Segment-direct query smoke (DESIGN.md §13): a fuzz-seed trace archived
# with the bitpack codec and served by `spire_cli queryserve` — a
# generated mixed-kind workload on 2 threads through a shared block cache,
# two passes so the second is warm. check=1 answers every request through
# EventLog::FromArchive as well and exits nonzero on any divergence, and
# the binary itself fails if the cache counters don't reconcile
# (hits + misses == lookups, decodes <= misses); obscheck re-validates the
# exported query metrics.
run_queryserve_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [query] queryserve smoke (segment-direct vs materialized) ==="
  "$dir/tools/spire_cli" run seed=21 out="$tmp/run.spev" > /dev/null
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/run.sparc" \
    codec=bitpack block=256
  "$dir/tools/spire_cli" queryserve in="$tmp/run.sparc" count=2000 seed=3 \
    threads=2 passes=2 cache_mb=4 check=1 stats_out="$tmp/query-metrics.json"
  "$dir/tools/spire_cli" obscheck metrics="$tmp/query-metrics.json"
  rm -rf "$tmp"
}

# Distributed serving smoke (DESIGN.md §12): a transfer-scenario seed on 2
# nodes with two SimConfig overrides: transfer_round_trips=3 changes the
# truck traffic, and num_shelves=4 the site registries, which a spawned
# node re-derives from the workload keys the coordinator forwards (a node
# that missed them diverges from loopback). `check=1` replays the serial
# per-site reference and demands the distributed stream match it byte for
# byte (the CLI face of the distributed_equivalence oracle); the dist wire
# counters round-trip through obscheck. The optional second half re-runs
# the same workload with each node in a forked process over real
# socketpairs and compares the two output files — pass "loopback" as the
# second argument to skip it (TSan forbids fork once coordinator threads
# are up).
run_dist_smoke() {
  local dir="$1" spawn="${2:-spawn}" tmp
  tmp="$(mktemp -d)"
  echo "=== [dist] smoke (2-node loopback + obscheck) ==="
  "$dir/tools/spire_cli" dist seed=7 nodes=2 mode=loopback check=1 \
    transfer_round_trips=3 num_shelves=4 out="$tmp/loopback.spev" \
    stats_out="$tmp/dist-metrics.json"
  "$dir/tools/spire_cli" obscheck metrics="$tmp/dist-metrics.json"
  if [ "$spawn" = "spawn" ]; then
    echo "=== [dist] smoke (forked nodes + fleet statusz + merged trace) ==="
    # The fleet observability stack rides along: per-node registries
    # aggregated into stats_out, per-node traces merged into trace_out —
    # and the output must STILL match the uninstrumented loopback run.
    "$dir/tools/spire_cli" dist seed=7 nodes=2 mode=spawn check=1 \
      transfer_round_trips=3 num_shelves=4 out="$tmp/spawn.spev" \
      stats_every=8 stats_out="$tmp/fleet-metrics.json" \
      trace_out="$tmp/fleet-trace.json"
    "$dir/tools/spire_cli" obscheck metrics="$tmp/fleet-metrics.json" \
      trace="$tmp/fleet-trace.json" require=epoch,hop
    if ! cmp -s "$tmp/loopback.spev" "$tmp/spawn.spev"; then
      echo "dist smoke: spawn run diverged from loopback run" >&2
      rm -rf "$tmp"
      exit 1
    fi
  fi
  rm -rf "$tmp"
}

# Incremental-inference bench: a quick expt12 run (byte-identity of
# delta-driven vs full recomputation is checked inside the binary, so a
# divergence fails hard) compared against the committed
# BENCH_incremental.json baseline. The comparison itself is soft — same
# noisy-wall-clock policy as the expt11 check above.
run_bench_compare() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [bench] expt12 incremental (byte-identity + soft compare) ==="
  # full=true matches the scale of the committed baseline (quick mode runs
  # a smaller graph where the stationary speedup is structurally lower).
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt12_incremental" full=true | tail -n +4
  if [ -f BENCH_incremental.json ]; then
    tools/bench_compare.py BENCH_incremental.json \
      "$tmp/BENCH_incremental.json" || true
  fi
  echo "=== [bench] expt13 cep (match identity + soft compare) ==="
  # Match-set identity and the 2x interval-vs-naive floor are asserted
  # inside the binary; the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt13_cep" | tail -n +4
  if [ -f BENCH_cep.json ]; then
    tools/bench_compare.py BENCH_cep.json "$tmp/BENCH_cep.json" || true
  fi
  echo "=== [bench] expt9 archive (5x epoch-scan floor + soft compare) ==="
  # The 5x floor of the bitpack/mmap epoch scan over a frozen copy of the
  # seed reader's buffered-varint scan is asserted inside the binary (the
  # frozen baseline does not speed up with the shared varint code, so 24
  # runs of one unchanged tree on a 4-vCPU host read 5.42-6.41x, none
  # below); the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt9_archive" | tail -n +4
  if [ -f BENCH_archive.json ]; then
    tools/bench_compare.py BENCH_archive.json "$tmp/BENCH_archive.json" || true
  fi
  echo "=== [bench] expt15 query (5x warm-serving floor + soft compare) ==="
  # Answer identity against the materialized EventLog, cache-counter
  # reconciliation, and the 5x warm-cache-vs-FromArchive-per-request floor
  # are asserted inside the binary; the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt15_query" | tail -n +4
  if [ -f BENCH_query.json ]; then
    tools/bench_compare.py BENCH_query.json "$tmp/BENCH_query.json" || true
  fi
  echo "=== [bench] expt14 dist (byte-identity + soft compare) ==="
  # Byte-identity of every node count (loopback and forked processes)
  # against the serial reference is asserted inside the binary; the
  # throughput/speedup comparison stays soft — the scaling columns only
  # mean anything with more than one hardware thread.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt14_dist" | tail -n +4
  if [ -f BENCH_dist.json ]; then
    tools/bench_compare.py BENCH_dist.json "$tmp/BENCH_dist.json" || true
  fi
  rm -rf "$tmp"
}

case "$mode" in
  plain)
    run_config plain build
    run_obs_smoke build
    run_cep_smoke build
    run_archive_smoke build
    run_queryserve_smoke build
    run_dist_smoke build
    run_bench_compare build
    ;;
  sanitize)
    run_config sanitize build-sanitize -DSPIRE_SANITIZE=ON
    run_archive_smoke build-sanitize
    ;;
  tsan) run_tsan ;;
  all)
    run_config plain build
    run_obs_smoke build
    run_cep_smoke build
    run_archive_smoke build
    run_queryserve_smoke build
    run_dist_smoke build
    run_bench_compare build
    run_config sanitize build-sanitize -DSPIRE_SANITIZE=ON
    run_archive_smoke build-sanitize
    run_tsan
    run_release_build
    ;;
  *)
    echo "usage: tools/ci.sh [plain|sanitize|tsan|all]" >&2
    exit 2
    ;;
esac

echo "=== CI OK ($mode) ==="
