#!/usr/bin/env bash
# Tier-1 gate, organized as named stages with per-stage timing and a summary
# table. Run before every merge. Works offline (all deps are vendored or std).
#
#   scripts/ci.sh                      # run every stage in order
#   CARVE_CI_STAGE=chaos scripts/ci.sh # run one stage by name
#
# Stages:
#   fmt                cargo fmt --check
#   build              release build of the whole workspace
#   test-par1          release tests pinned to 1 traversal thread
#   test-par4          release tests forked to 4 traversal threads
#   test-debug         debug-profile tests (catches debug_assert!-only bugs)
#   chaos              release tests under delay-only ambient chaos
#   chaos-lossy        release tests under drop/corrupt chaos + lane retry
#   adapt-determinism  adapt_trace bitwise-diffed over threads {1,4} x
#                      {clean, lossy chaos} and against the committed
#                      golden trace (DESIGN.md §7)
#   leaf-kernel-determinism
#                      matvec_digest byte-compared over batch widths {1,8}
#                      x threads {1,4}: the batched SoA leaf path must be
#                      bitwise identical to the scalar path (DESIGN.md §6h),
#                      and every document to the committed golden digest
#   clippy             clippy with warnings denied
#   doc                rustdoc with warnings denied
#   bench-gate         scripts/bench_gate.sh perf regression gate
#   serve-gate         bench_serve request replay: latency floors (cache
#                      hit ≥5× faster than miss, block-CG ≤1/3 the
#                      rounds) plus the latency-stripped report
#                      byte-compared over threads {1,4} x {clean, lossy
#                      chaos} and against the committed golden report
#                      (DESIGN.md §6i)
#   scaling-gate       repro_scaling --check vs the committed scaling
#                      artifact (per-rank replay structure at 256..28672
#                      ranks, digests, reference-model efficiencies)
#
# After the selected stages, a final check fails the run if any tracked file
# changed while it ran (`git status --porcelain` before vs after): gates
# write their outputs under target/ or a temp dir, never over committed files.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(fmt build test-par1 test-par4 test-debug chaos chaos-lossy
        adapt-determinism leaf-kernel-determinism clippy doc bench-gate
        serve-gate scaling-gate)

run_stage() {
  case "$1" in
    fmt)
      cargo fmt --all --check
      ;;
    build)
      cargo build --release --workspace
      ;;
    # Traversal results must be independent of the intra-rank thread budget
    # (bitwise, see DESIGN.md §6d) — run the suite pinned and forked.
    test-par1)
      CARVE_PAR_THREADS=1 cargo test -q --release --workspace
      ;;
    test-par4)
      CARVE_PAR_THREADS=4 cargo test -q --release --workspace
      ;;
    test-debug)
      cargo test -q --workspace
      ;;
    # Ambient chaos: delay-only fault injection on every simulated-MPI run
    # (CARVE_CHAOS seeds env_chaos_plan). Message counts and results must be
    # schedule-independent, so the whole suite must stay green under it.
    chaos)
      CARVE_CHAOS=29 cargo test -q --release --workspace
      ;;
    # Lossy chaos: same seed, but the exchange lanes additionally drop and
    # corrupt frames; the retry/backoff protocol must recover every loss so
    # the suite stays green and bitwise identical to the fault-free run. The
    # short retry base keeps recovery snappy under test load.
    chaos-lossy)
      CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 cargo test -q --release --workspace
      ;;
    # The dynamic-AMR loop must produce one serialized carve-adapt-trace-v1
    # document — element counts, DOF counts, leaf/field hashes — no matter
    # the thread budget or chaos schedule. Diff the matrix bitwise, and
    # against the golden document committed under crates/bench/golden/, so
    # a change that moves every run alike fails too.
    adapt-determinism)
      cargo build --release -q -p carve-bench --bin adapt_trace
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      for threads in 1 4; do
        CARVE_PAR_THREADS=$threads \
          ./target/release/adapt_trace "$tmp/t${threads}.json"
        CARVE_PAR_THREADS=$threads CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 \
          ./target/release/adapt_trace "$tmp/t${threads}-lossy.json"
      done
      for f in t4 t1-lossy t4-lossy; do
        cmp "$tmp/t1.json" "$tmp/$f.json" \
          || { echo "ci: adapt trace t1 vs $f differs" >&2; return 1; }
      done
      cmp crates/bench/golden/adapt_trace.json "$tmp/t1.json" \
        || { echo "ci: adapt trace differs from the golden document" >&2; return 1; }
      echo "ci: adapt trace bitwise-identical over threads {1,4} x {clean,lossy} and to golden"
      ;;
    # The batched SoA leaf path (CARVE_BATCH_WIDTH, DESIGN.md §6h) must be
    # bitwise identical to the scalar path (width 1) at any thread budget:
    # digest the matvec output bits over the width x threads matrix and
    # byte-compare the documents, with each other and with the golden
    # digest committed under crates/bench/golden/.
    leaf-kernel-determinism)
      cargo build --release -q -p carve-bench --bin matvec_digest
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      for width in 1 8; do
        for threads in 1 4; do
          CARVE_BATCH_WIDTH=$width CARVE_PAR_THREADS=$threads \
            ./target/release/matvec_digest "$tmp/w${width}-t${threads}.txt"
        done
      done
      for f in w1-t4 w8-t1 w8-t4; do
        cmp "$tmp/w1-t1.txt" "$tmp/$f.txt" \
          || { echo "ci: matvec digest w1-t1 vs $f differs" >&2; return 1; }
      done
      cmp crates/bench/golden/matvec_digest.txt "$tmp/w1-t1.txt" \
        || { echo "ci: matvec digest differs from the golden document" >&2; return 1; }
      echo "ci: matvec digest bitwise-identical over widths {1,8} x threads {1,4} and to golden"
      ;;
    # carve-comm additionally denies unwrap/expect crate-wide (lib.rs).
    clippy)
      cargo clippy --workspace --all-targets -- -D warnings
      ;;
    doc)
      RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
      ;;
    bench-gate)
      # A CI re-run must not mint a new report number: regenerate the
      # newest committed report (under target/, leaving the committed copy
      # untouched) and gate it against its predecessor.
      local pr="${BENCH_PR:-}"
      if [[ -z "$pr" ]]; then
        local newest
        newest=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1 || true)
        [[ -n "$newest" ]] && pr=$(basename "$newest" .json | sed 's/^BENCH_PR//')
      fi
      BENCH_PR="$pr" bash scripts/bench_gate.sh
      ;;
    # Serving engine gate (DESIGN.md §6i): one full replay enforcing the
    # hit-vs-miss latency floor and the block-CG round budget, then the
    # latency-stripped document byte-compared over threads {1,4} x
    # {clean, lossy chaos} — every request/cache/round count and the
    # solution/read digest must be a pure function of the trace — and
    # against the golden report committed under crates/bench/golden/, so
    # a change that moves every run alike fails too.
    serve-gate)
      cargo build --release -q -p carve-bench --bin bench_serve
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      ./target/release/bench_serve "$tmp/full.json"
      for threads in 1 4; do
        CARVE_PAR_THREADS=$threads \
          ./target/release/bench_serve --check "$tmp/t${threads}.json"
        CARVE_PAR_THREADS=$threads CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 \
          ./target/release/bench_serve --check "$tmp/t${threads}-lossy.json"
      done
      for f in t4 t1-lossy t4-lossy; do
        cmp "$tmp/t1.json" "$tmp/$f.json" \
          || { echo "ci: serve replay t1 vs $f differs" >&2; return 1; }
      done
      cmp crates/bench/golden/serve_replay.json "$tmp/t1.json" \
        || { echo "ci: serve replay differs from the golden document" >&2; return 1; }
      echo "ci: serve replay deterministic over threads {1,4} x {clean,lossy} and equal to golden"
      ;;
    # The committed replay-scaling artifact (newest SCALING_PR*.json) must
    # be regenerable from source, bit-for-bit in its per-rank structure:
    # any drift in partitioning, node ownership, ghost layout, neighbor
    # counts, or the pinned reference model fails the gate, as does an
    # efficiency dropping below the committed floor. Machine-independent —
    # the check never calibrates.
    scaling-gate)
      local newest
      newest=$(ls SCALING_PR*.json 2>/dev/null | sort -V | tail -n 1 || true)
      if [[ -z "$newest" ]]; then
        echo "ci: no SCALING_PR*.json artifact committed" >&2
        return 1
      fi
      cargo build --release -q -p carve-bench --bin repro_scaling
      ./target/release/repro_scaling --check "$newest"
      ;;
    *)
      echo "ci: unknown stage '$1' (known: ${STAGES[*]})" >&2
      return 2
      ;;
  esac
}

if [[ -n "${CARVE_CI_STAGE:-}" ]]; then
  selected=("$CARVE_CI_STAGE")
else
  selected=("${STAGES[@]}")
fi

# Tracked-file state: the porcelain listing plus a checksum of the diff
# against HEAD, so an edit to an already-modified file also shows.
tracked_status() {
  git status --porcelain --untracked-files=no 2>/dev/null || true
  git diff HEAD --binary 2>/dev/null | cksum
}
status_before=$(tracked_status)

summary=()
for stage in "${selected[@]}"; do
  echo "ci: ==> $stage"
  start=$SECONDS
  run_stage "$stage"
  summary+=("$(printf '%-18s %5ss  ok' "$stage" "$((SECONDS - start))")")
done

if [[ "$(tracked_status)" != "$status_before" ]]; then
  echo "ci: tracked files changed during the run:" >&2
  diff <(echo "$status_before") <(tracked_status) >&2 || true
  exit 1
fi

echo
echo "ci: summary"
printf '  %s\n' "${summary[@]}"
echo "ci: all stages green; tracked files unchanged"
