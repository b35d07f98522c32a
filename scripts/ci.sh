#!/usr/bin/env bash
# Lint + test gate for the whole workspace.
#
# Usage: scripts/ci.sh [--release]
# - clippy with warnings denied (vendor/ stubs included: they compile as
#   workspace members and must stay warning-free too)
# - the full test suite (unit + property + integration), run twice: once on
#   a single-worker pool and once on four workers. FV_THREADS is read once
#   per process, so the two passes are what exercises both the sequential
#   fast paths and real work-stealing (races, panic propagation, and the
#   deterministic-chunking contract of vendor/fv-runtime).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=()
if [[ "${1:-}" == "--release" ]]; then
  MODE=(--release)
fi

echo "=== chaos plans confined to tests/chaos.rs ==="
# A FaultPlan is process-global: installed in any other test binary, it
# fires inside that binary's concurrently running tests. Only
# tests/chaos.rs, whose tests serialize on its CHAOS_LOCK, may install one.
leaks=$(grep -lE 'chaos::(install|\{[^}]*\binstall\b)' tests/*.rs | grep -vx 'tests/chaos.rs' || true)
if [[ -n "$leaks" ]]; then
  echo "chaos::install outside tests/chaos.rs:" $leaks
  exit 1
fi

echo "=== clippy (deny warnings) ==="
cargo clippy --workspace --all-targets "${MODE[@]}" -- -D warnings

echo "=== rustdoc (deny warnings) ==="
# Broken intra-doc links and malformed doc comments fail the gate: the API
# docs are the contract surface for every crate in the workspace.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "=== tests (FV_THREADS=1) ==="
FV_THREADS=1 cargo test --workspace -q "${MODE[@]}"

echo "=== tests (FV_THREADS=4) ==="
FV_THREADS=4 cargo test --workspace -q "${MODE[@]}"

echo "=== chaos smoke (seeded fault sweeps, 1 and 4 workers) ==="
# The chaos suite (tests/chaos.rs) sweeps 32 seeds per fault kind through
# the supervised in-situ session; every step must answer (Ok + finite
# field, fallback reported) and nothing may hang. The suite has its own
# per-sweep watchdog; the outer `timeout` is the backstop that fails the
# gate if the harness itself wedges.
for t in 1 4; do
  FV_THREADS=$t timeout 900 cargo test -q "${MODE[@]}" --test chaos \
    || { echo "chaos smoke failed (FV_THREADS=$t)"; exit 1; }
done

echo "=== runtime smoke (thread scaling + bitwise determinism) ==="
# exp_runtime exits non-zero on its own when reconstructions diverge across
# thread counts; on top of that, gate the two workspace-layer guarantees:
# every row bitwise-matches the 1-thread reference, and 4-thread training is
# not slower than 1-thread (>10% tolerance for machine noise).
cargo run --release -q -p fv-bench --bin exp_runtime > /dev/null
python3 - <<'EOF'
import json, sys
rows = json.load(open("BENCH_runtime.json"))["rows"]
bad = [r["threads"] for r in rows if not r["bitwise_match"]]
if bad:
    sys.exit(f"runtime smoke: bitwise divergence at threads={bad}")
t = {r["threads"]: r["train_s"] for r in rows}
if t[4] > 1.10 * t[1]:
    sys.exit(f"runtime smoke: 4-thread training regressed: {t[4]:.3f}s vs {t[1]:.3f}s at 1 thread")
print(f"runtime smoke ok: train 1T={t[1]:.3f}s 4T={t[4]:.3f}s, all rows bitwise-identical")
EOF

echo "=== gemm kernel stage (microkernel parity across every detected kernel) ==="
# The packed-GEMM layer promises bitwise-identical products no matter which
# microkernel dispatch picks (DESIGN.md §15). The auto run lists the
# kernels this host can run (`gemm.detected`, portable last). For each of
# them, the parity suite pins every product variant against a
# canonical-order reference with that kernel selected through
# FV_GEMM_KERNEL, and the whole training + reconstruction experiment must
# give the same SNR and reconstruction fingerprint as the auto run.
FV_GEMM_KERNEL=auto cargo run --release -q -p fv-bench --bin exp_runtime > /dev/null
mv BENCH_runtime.json BENCH_runtime_auto.json
kernels=$(python3 -c 'import json; print(" ".join(json.load(open("BENCH_runtime_auto.json"))["gemm"]["detected"]))')
for kern in $kernels; do
  FV_GEMM_KERNEL=$kern cargo test -q "${MODE[@]}" --test gemm \
    || { echo "gemm parity suite failed (FV_GEMM_KERNEL=$kern)"; exit 1; }
  FV_GEMM_KERNEL=$kern cargo run --release -q -p fv-bench --bin exp_runtime > /dev/null
  mv BENCH_runtime.json "BENCH_runtime_kernel_$kern.json"
done
mv BENCH_runtime_auto.json BENCH_runtime.json
KERNELS="$kernels" python3 - <<'EOF'
import json, os, sys
a = json.load(open("BENCH_runtime.json"))
for kern in os.environ["KERNELS"].split():
    k = json.load(open(f"BENCH_runtime_kernel_{kern}.json"))
    if k["gemm"]["active_kernel"] != kern:
        sys.exit(f"gemm stage: FV_GEMM_KERNEL={kern} ran {k['gemm']['active_kernel']}")
    for rk, ra in zip(k["rows"], a["rows"]):
        if rk["snr_db"] != ra["snr_db"] or rk["recon_fnv"] != ra["recon_fnv"]:
            sys.exit(
                f"gemm stage: {kern} vs auto diverged at threads={rk['threads']}: "
                f"snr {rk['snr_db']} vs {ra['snr_db']}, fnv {rk['recon_fnv']} vs {ra['recon_fnv']}"
            )
        if not (rk["bitwise_match"] and ra["bitwise_match"]):
            sys.exit(f"gemm stage: in-run divergence under {kern} at threads={rk['threads']}")
g = a["gemm"]
if g["detected"][-1] != "portable":
    sys.exit(f"gemm stage: detected-kernel list must end with portable, got {g['detected']}")
if [v["kernel"] for v in g["variants"]] != g["detected"]:
    sys.exit(f"gemm stage: microbench did not cover every detected kernel: {g['variants']}")
for v in g["variants"]:
    if v["pack_grows"] != 1 or v["pack_reuses"] != v["pack_calls"] - 1:
        sys.exit(f"gemm stage: pack buffers not reused in steady state: {v}")
print(
    f"gemm stage ok: active={g['active_kernel']} detected={g['detected']}, "
    + ", ".join(f"{v['kernel']} {v['gflops']:.1f} GF/s" for v in g["variants"])
    + ", SNR + fingerprint identical across kernels"
)
EOF
rm -f BENCH_runtime_kernel_*.json

echo "=== address sanitizer (pool latches, in-place GEMM operand reads) ==="
# A join's latch lives on the waiting thread's stack, so a setter that
# touches it after publishing completion is a use-after-free that shows up
# only as a rare SIGSEGV. ASan with stack-use-after-return detection
# catches it on every run. The fv-linalg tests also run every microkernel
# over A read in place (sub-views, shifted ragged panels), so an
# out-of-bounds operand read fails here too. Needs the nightly toolchain
# (-Zsanitizer).
RUSTFLAGS=-Zsanitizer=address ASAN_OPTIONS=detect_stack_use_after_return=1 \
  CARGO_TARGET_DIR=target/asan \
  cargo +nightly test -q -p fv-runtime -p fv-linalg -p fv-nn --lib --target x86_64-unknown-linux-gnu \
  || { echo "address sanitizer stage failed"; exit 1; }

echo "=== telemetry smoke (zero-cost when disabled, bitwise-identical when enabled) ==="
# Re-run the runtime experiment with FV_TELEMETRY=1 and hold the
# observability layer to its contract: identical SNR per row (recording
# must never perturb the numerics), a telemetry section present in the
# JSON covering the pool / training / kNN / reconstruction / in-situ
# sites, and a 1-thread training wall-clock within 25% of the disabled
# run. Measured overhead is ~3%; the generous slack absorbs co-tenant
# noise on shared CI machines while still catching an accidentally hot
# always-on path (those cost multiples, not percents).
cp BENCH_runtime.json BENCH_runtime_disabled.json
FV_TELEMETRY=1 cargo run --release -q -p fv-bench --bin exp_runtime > /dev/null
python3 - <<'EOF'
import json, sys
off = json.load(open("BENCH_runtime_disabled.json"))
on = json.load(open("BENCH_runtime.json"))
if "telemetry" in off:
    sys.exit("telemetry smoke: disabled run exported a telemetry section")
if "telemetry" not in on:
    sys.exit("telemetry smoke: enabled run is missing the telemetry section")
for a, b in zip(off["rows"], on["rows"]):
    if a["snr_db"] != b["snr_db"] or not b["bitwise_match"]:
        sys.exit(f"telemetry smoke: numerics diverged at threads={a['threads']}")
names = {s["name"] for s in on["telemetry"]["sites"]}
names |= {c["name"] for c in on["telemetry"]["counters"]}
want = {"pool.jobs", "train.step", "spatial.knn_batch", "core.feature_build", "recon", "insitu.step", "brick.pipeline", "brick.completed", "linalg.gemm.pack", "linalg.gemm.kernel", "linalg.gemm.pack_bytes"}
missing = want - names
if missing:
    sys.exit(f"telemetry smoke: expected sites missing from snapshot: {sorted(missing)}")
t_off = {r["threads"]: r["train_s"] for r in off["rows"]}
t_on = {r["threads"]: r["train_s"] for r in on["rows"]}
if t_on[1] > 1.25 * t_off[1]:
    sys.exit(f"telemetry smoke: enabled training too slow: {t_on[1]:.3f}s vs {t_off[1]:.3f}s disabled")
print(f"telemetry smoke ok: {len(names)} instruments, train 1T {t_off[1]:.3f}s -> {t_on[1]:.3f}s enabled")
EOF
rm -f BENCH_runtime_disabled.json

echo "=== brick resume smoke (out-of-core memory bound + crash-only recovery) ==="
# exp_brick streams the volume through fixed-size bricks, then injects a
# seeded mid-volume crash and resumes from the per-brick ledger. The gate
# holds the ISSUE's acceptance bar: the streamed volume bitwise-matches the
# whole-grid path, peak in-flight bytes stay within the configured budget,
# and the resumed run reuses every durable brick (resumed > 0) while
# recomputing exactly the unfinished remainder, again to identical bits.
cargo run --release -q -p fv-bench --bin exp_brick > /dev/null
python3 - <<'EOF'
import json, sys
b = json.load(open("BENCH_brick.json"))
if not b["bitwise_equal"]:
    sys.exit("brick smoke: bricked volume diverged from whole-grid")
if not b["inflight_within_budget"]:
    sys.exit(f"brick smoke: in-flight {b['peak_inflight_bytes']} B exceeded budget {b['budget_bytes']} B")
if b["volume_bytes"] < 4 * b["budget_bytes"]:
    sys.exit("brick smoke: volume is not >= 4x the brick budget (not out-of-core)")
r = b["resume"]
if not r["bitwise_equal"]:
    sys.exit("brick smoke: resumed volume diverged from whole-grid")
if r["resumed"] <= 0 or r["resumed"] >= r["total"]:
    sys.exit(f"brick smoke: crash was not mid-volume ({r['resumed']}/{r['total']} resumed)")
if r["resumed"] + r["recomputed"] != r["total"]:
    sys.exit(f"brick smoke: resume recomputed {r['recomputed']} with {r['resumed']} durable, expected {r['total']} total")
print(f"brick smoke ok: {b['total_bricks']} bricks, inflight {b['peak_inflight_bytes']}/{b['budget_bytes']} B, "
      f"resume reused {r['resumed']} + recomputed {r['recomputed']}, bitwise-identical")
EOF

echo "=== serve smoke (reconstruction-as-a-service, 1 and 4 workers) ==="
# exp_serve starts a loopback server on an ephemeral port, runs client
# fleets at 1/4/16/64 connections, and exits non-zero on its own if any
# served volume diverges bitwise from the in-process reconstruction or if
# micro-batched p99 fails to beat batch-size-1 mode at 16 clients. It then
# runs the hot-swap storm: 100 model promotions under a 16-client fleet,
# preceded by one deliberately canary-rejected candidate. The gate
# re-checks everything from the JSON at 1 and 4 workers (the batcher's
# packed passes must stay bitwise-stable across pool sizes): zero dropped
# or misrouted requests across all 100 swaps, exactly one canary
# rejection, drain/p99 timing fields present, and a clean shutdown that
# left no stray temp files behind. Finally the brick-stream segment: an
# over-cap volume must be redirected to ReconstructBricked, stream back
# bitwise-identical, resume a torn stream without redoing committed
# bricks, and keep a second tenant's dense p99 within 3x its unloaded
# baseline while the bulk stream runs.
for t in 1 4; do
  FV_THREADS=$t timeout 600 cargo run --release -q -p fv-bench --bin exp_serve > /dev/null \
    || { echo "serve smoke failed (FV_THREADS=$t)"; exit 1; }
  FV_T=$t python3 - <<'EOF'
import glob, json, os, sys
s = json.load(open("BENCH_serve.json"))
t = os.environ["FV_T"]
if not s["bitwise_equal"]:
    sys.exit(f"serve smoke (FV_THREADS={t}): served volume diverged from the in-process path")
if not s["batched_p99_beats_batch1"]:
    sys.exit(f"serve smoke (FV_THREADS={t}): micro-batched p99 did not beat batch-size-1 at 16 clients")
if s["degraded_responses"] != 0:
    sys.exit(f"serve smoke (FV_THREADS={t}): {s['degraded_responses']} degraded responses on a healthy model")
sw = s["swap"]
if sw["swaps"] != 100 or sw["promoted"] != 100:
    sys.exit(f"serve smoke (FV_THREADS={t}): swap storm ran {sw['promoted']}/{sw['swaps']} promotions, expected 100/100")
if sw["dropped"] != 0 or sw["misrouted"] != 0:
    sys.exit(f"serve smoke (FV_THREADS={t}): hot-swap dropped {sw['dropped']} / misrouted {sw['misrouted']} requests")
if sw["rejected_canary"] != 1:
    sys.exit(f"serve smoke (FV_THREADS={t}): expected exactly 1 canary rejection, saw {sw['rejected_canary']}")
for k in ("p99_during_swap_ms", "drain_ms_max", "canary_ms_mean"):
    if not (sw[k] >= 0):
        sys.exit(f"serve smoke (FV_THREADS={t}): swap timing field {k} is missing or NaN")
st = s["stream"]
if not st["bitwise_equal"]:
    sys.exit(f"serve smoke (FV_THREADS={t}): brick stream diverged bitwise from the in-process path")
if not st["over_cap_rejected"]:
    sys.exit(f"serve smoke (FV_THREADS={t}): over-cap dense request was served instead of redirected to the stream path")
if st["fairness_ratio"] > 3.0:
    sys.exit(f"serve smoke (FV_THREADS={t}): interactive p99 degraded {st['fairness_ratio']:.2f}x under a bulk stream (cap 3x)")
if st["resume_skipped"] <= 0:
    sys.exit(f"serve smoke (FV_THREADS={t}): healed stream recomputed every brick instead of resuming")
stray = glob.glob("*.tmp")
if stray:
    sys.exit(f"serve smoke (FV_THREADS={t}): stray temp files after shutdown: {stray}")
fleet = {f["clients"]: f for f in s["fleet"]}
print(f"serve smoke ok (FV_THREADS={t}): 16-client p99 {fleet[16]['p99_ms']:.1f} ms batched "
      f"vs {s['batch1_16c']['p99_ms']:.1f} ms batch-1, all volumes bitwise-identical; "
      f"{sw['promoted']} hot-swaps, 0 dropped/misrouted, worst drain {sw['drain_ms_max']:.1f} ms; "
      f"{st['total_bricks']}-brick stream bitwise, fairness {st['fairness_ratio']:.2f}x, "
      f"resume skipped {st['resume_skipped']}")
EOF
done

echo "CI gate passed."
