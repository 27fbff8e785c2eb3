#!/usr/bin/env python3
"""CI perf-regression gate.

Compares freshly generated google-benchmark JSON files against the
curated baselines in bench/baselines/ and fails (exit 1) when any
benchmark regresses beyond the tolerance band, or when a baselined
benchmark is missing from the fresh run (coverage loss counts as a
regression).

Baselines are matched by file name: bench/baselines/<name>.json is
compared against <fresh-dir>/<name>.json, benchmark entry by benchmark
entry (the "name" field of the google-benchmark schema).

CI machines are noisy and heterogeneous, so the default tolerance is a
wide band meant to catch *large* regressions (an accidental fallback to
the software karatsuba backend, a serialized hot loop), not nanosecond
drift.
Refresh baselines with --update after an intentional perf change.

Usage:
  python3 bench/check_perf_regression.py [--fresh build]
      [--baselines bench/baselines] [--tolerance 3.0] [--update]
"""

import argparse
import json
import os
import shutil
import sys

# Machine-independent speedup gates: within ONE fresh run of <file>, the
# <baseline_bench> entry must be at least <min_ratio> x slower than the
# <optimized_bench> entry. Both sides run on the same machine in the same
# process, so unlike the absolute tolerance band this asserts the
# optimization itself (e.g. the fused cycle-capture path is >= 1.5x the
# reference two-pass capture).
#
# ISA-gated benches (a lane backend the host CPU lacks) call
# SkipWithError, which google-benchmark records as error_occurred; those
# rows are collected as "skipped" and any gate touching one is skipped,
# not failed — a machine without VPCLMULQDQ must still pass the gate.
# Exact verdict-cell gates on the machine-readable eval matrix
# (BENCH_eval_matrix.json, schema medsec-eval-matrix-v1, written by
# bench_e4_eval). Unlike timings these are bit-deterministic — the
# campaigns are counter-seeded — so the gate is exact equality: the PR 8
# fault-adversary acceptance shape (bare and the paper's shipped rpc-only
# chip FALL to both fault attacks; the detector columns HOLD with a dead
# oracle) must never drift silently. Each row is
#   (attack, countermeasure, expected) with expected keys matched exactly
# against the cell's JSON fields.
FAULT_VERDICT_GATES = [
    ("fault-safe-error", "none",
     {"defense_holds": False, "key_recovered": True, "accuracy": 1.0}),
    ("fault-safe-error", "rpc",
     {"defense_holds": False, "key_recovered": True}),
    # Validation alone cannot see a select glitch (points stay on-curve).
    ("fault-safe-error", "validate",
     {"defense_holds": False, "key_recovered": True}),
    ("fault-safe-error", "validate+cohere",
     {"defense_holds": True, "key_recovered": False,
      "informative_shots": 0}),
    ("fault-safe-error", "rpc+blind+validate+cohere+infect",
     {"defense_holds": True, "key_recovered": False,
      "informative_shots": 0}),
    ("fault-invalid-point", "none",
     {"defense_holds": False, "key_recovered": True}),
    ("fault-invalid-point", "rpc",
     {"defense_holds": False, "key_recovered": True}),
    # ...but validation is exactly the right answer to off-curve points.
    ("fault-invalid-point", "validate",
     {"defense_holds": True, "informative_shots": 0}),
    ("fault-invalid-point", "validate+cohere",
     {"defense_holds": True, "informative_shots": 0}),
    ("fault-invalid-point", "rpc+blind+validate+cohere+infect",
     {"defense_holds": True, "informative_shots": 0}),
]

# Exact verdict gates on the constant-time audit grid
# (BENCH_ct_audit.json, schema medsec-ct-audit-v1, written by ./ct_audit).
# Like the fault matrix, the grid is counter-seeded and measured with the
# deterministic op-count source, so the gate is exact: every shipped
# backend x lane combo, both modeled ladders and the server's secret-key
# ladder (ladder-x) must PASS the dudect test, the negative controls —
# both leaky toys and the double-and-add scalar_mult_ld that ladder-x
# replaced — must FAIL it (a harness that stops seeing the planted leaks
# is broken, not clean), the taint interpreter must agree, and the whole
# grid must be bit-identical across the in-process rerun. ISA-gated
# combos may be skipped, never failed; the combo with no ISA requirement
# must actually have run.
CT_AUDIT_SCHEMA = "medsec-ct-audit-v1"
# (backend, lanes) combos that every CPU can run: a skip here is a bug.
CT_ALWAYS_AVAILABLE = {("karatsuba", "scalar")}
# The 2 x 2 core grid (both scalar backends against the per-lane loop and
# the interleaved-clmul lanes), plus the mega-lane extras.
CT_REQUIRED_COMBOS = {
    (b, l)
    for b in ("karatsuba", "clmul")
    for l in ("scalar", "clmulwide")
} | {("clmul", "vpclmul512"), ("clmul", "vpclmul256")}
CT_REQUIRED_TARGETS = ("ladder-unblinded", "ladder-blinded", "ladder-x")
CT_NEGATIVE_CONTROLS = ("toy-branch", "toy-table", "scalar-mult-ld")
CT_TAINT_EXPECT = {
    "ladder-classic": None,            # None = must be clean
    "ladder-blinded": None,
    "fe-arithmetic": None,
    "toy-branch": "secret-branch",     # must contain this violation kind
    "toy-table": "secret-table-index",
}

RATIO_GATES = [
    # The fused cycle-capture sink is >= 1.5x the reference two-pass
    # capture (record vector, then a Box-Muller fold over it).
    ("BENCH_coproc.json", "BM_CaptureCycleTraceReference",
     "BM_CaptureCycleTraceFused", 1.5),
    # PR 7 acceptance: lane mul on the VPCLMULQDQ ZMM backend is >= 2x the
    # interleaved-clmul backend, per batch of 1024.
    ("BENCH_field_ops.json", "BM_LaneMul/clmulwide",
     "BM_LaneMul/vpclmul512", 2.0),
    # Per-operation dispatch: 1024 Gf163::mul calls through the scalar API
    # cost at most 1.5x 1024 lanes of the interleaved kernel, which runs
    # the same mul326_clmul + reduce326 (ratio >= 0.67).
    ("BENCH_field_ops.json", "BM_LaneMul/clmulwide",
     "BM_Gf163MulStream/clmul", 0.67),
    # Server key ladders: one 64-lane ladder_x_many batch on the ZMM
    # backend is >= 3x 64 single ladder_x calls on clmul (3.6-5.2x
    # measured on a 4-vCPU AVX-512 host).
    ("BENCH_field_ops.json", "BM_LadderXSingle64/clmul",
     "BM_LadderXBatch64/vpclmul512", 3.0),
    # Forgery isolation: bisecting a failed 64-item RLC batch over its one
    # MSM table costs at most 2.5x an honest batch with one forgery in it
    # (ratio >= 0.4; ~0.5 measured on a 4-vCPU AVX-512 host, 0.25 with the
    # per-item fallback it replaced) and at most ~6.7x with all 64 forged
    # (ratio >= 0.15; ~0.18 measured), so the all-forged worst case cannot
    # grow unseen.
    ("BENCH_fleet.json", "BM_SchnorrVerifyBatchRlc/batch:64",
     "BM_SchnorrVerifyBatchForged/forged:1", 0.4),
    ("BENCH_fleet.json", "BM_SchnorrVerifyBatchRlc/batch:64",
     "BM_SchnorrVerifyBatchForged/forged:64", 0.15),
    # Barrett: ModRing::mul is >= 8x the same product reduced by the
    # shift-subtract BigUInt::mod loop.
    ("BENCH_field_ops.json", "BM_ScalarRingMulShiftSubtract",
     "BM_ScalarRingMul", 8.0),
    # PR 7 acceptance: the 20k-trace DPA campaign retargeted onto the
    # ZMM backend is >= 1.5x the PR 3 interleaved-clmul path (both
    # pinned to 1 thread, auto lane count).
    ("BENCH_dpa_campaign.json", "BM_Campaign20k_LanesClmulWide",
     "BM_Campaign20k_LanesVpclmul512", 1.5),
    # PR 10 acceptance: the sharded UDP gateway at 4 shards clears >= 2x
    # the single-shard throughput on the same machine in the same process
    # (bench_loadgen skips the 4-shard row on hosts with < 4 hardware
    # threads, which skips this gate rather than failing it).
    ("BENCH_loadgen.json", "BM_Loadgen/shards:1/real_time",
     "BM_Loadgen/shards:4/real_time", 2.0),
]


def load_benchmarks(path):
    """(name -> real_time ns, skipped-name set).

    Aggregate rows other than the mean are dropped; rows flagged
    error_occurred (SkipWithError, used for ISA-gated lane backends)
    land in the skipped set instead of the timing map.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    skipped = set()
    for b in doc.get("benchmarks", []):
        if b.get("error_occurred"):
            skipped.add(b["name"])
            continue
        # Skip non-mean aggregate rows (median/stddev/cv) if present.
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "mean":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        out[b["name"]] = float(b["real_time"]) * scale
    return out, skipped


def check_ct_audit(path):
    """Exact verdict checks on the constant-time audit grid."""
    failures = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, OSError) as e:
        return [f"BENCH_ct_audit.json: unreadable ({e})"]

    if doc.get("schema") != CT_AUDIT_SCHEMA:
        return [f"BENCH_ct_audit.json: schema {doc.get('schema')!r} "
                f"(want {CT_AUDIT_SCHEMA!r})"]
    if doc.get("source") != "opcount":
        # Wall-clock grids are advisory-only and must not be gated.
        return [f"BENCH_ct_audit.json: source {doc.get('source')!r} is not "
                "the deterministic op-count source; CI must run ./ct_audit "
                "with the default --source opcount"]
    if not doc.get("deterministic_rerun_identical", False):
        failures.append("ct audit: verdict grid not bit-identical across "
                        "same-seed reruns")

    rows = {}
    for r in doc.get("dudect", []):
        rows[(r["target"], r["backend"], r["lanes"])] = r

    combos_seen = set()
    for (target, backend, lanes), r in sorted(rows.items()):
        label = f"{target}/{backend}/{lanes}"
        if target == "lane-ladder-step":
            combos_seen.add((backend, lanes))
        if r.get("skipped"):
            if (backend, lanes) in CT_ALWAYS_AVAILABLE:
                failures.append(f"ct audit: {label} skipped but requires "
                                "no ISA (must run everywhere)")
            else:
                print(f"skip ct:{label}: ISA unavailable on this CPU")
            continue
        want_pass = r.get("expected", "pass") == "pass"
        ok = r.get("pass") == want_pass
        verdict = "ok" if ok else "FAIL"
        print(f"{verdict:4s} ct:{label}: max|t|={r.get('max_abs_t', 0):.2f} "
              f"pass={r.get('pass')} (expected "
              f"{'pass' if want_pass else 'fail'})")
        if not ok:
            reason = ("leaks" if want_pass
                      else "was not detected by the harness")
            failures.append(f"ct audit: {label} {reason} "
                            f"(max|t|={r.get('max_abs_t', 0):.2f})")

    missing = CT_REQUIRED_COMBOS - combos_seen
    if missing:
        failures.append("ct audit: backend x lane combos missing from grid: "
                        + ", ".join(f"{b}/{l}" for b, l in sorted(missing)))
    for targets, want in ((CT_REQUIRED_TARGETS, "pass"),
                          (CT_NEGATIVE_CONTROLS, "fail")):
        for target in targets:
            found = [r for (t, _, _), r in rows.items() if t == target]
            if not found:
                failures.append(
                    f"ct audit: required target missing: {target}")
            elif any(r.get("expected") != want for r in found):
                failures.append(f"ct audit: {target} must be expected to "
                                f"{want}")

    taint = {r["target"]: r for r in doc.get("taint", [])}
    for target, want_kind in CT_TAINT_EXPECT.items():
        r = taint.get(target)
        if r is None:
            failures.append(f"ct audit: taint row missing: {target}")
            continue
        if want_kind is None:
            ok = r.get("clean") is True
            detail = "clean" if ok else "VIOLATIONS " + str(r.get("violations"))
        else:
            kinds = {v.get("kind") for v in r.get("violations", [])}
            ok = want_kind in kinds
            detail = f"kinds={sorted(kinds)} (want {want_kind})"
        print(f"{'ok' if ok else 'FAIL':4s} ct-taint:{target}: {detail}")
        if not ok:
            failures.append(f"ct audit: taint {target}: {detail}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", default="build",
                    help="directory containing fresh BENCH_*.json files")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory of curated baseline JSON files")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="fail when fresh_time > tolerance * baseline_time")
    ap.add_argument("--update", action="store_true",
                    help="copy fresh files over the baselines instead of "
                         "checking")
    args = ap.parse_args()

    baseline_files = sorted(
        f for f in os.listdir(args.baselines) if f.endswith(".json"))
    if not baseline_files:
        print(f"no baselines in {args.baselines}; nothing to check")
        return 0

    if args.update:
        for name in baseline_files:
            src = os.path.join(args.fresh, name)
            if not os.path.exists(src):
                print(f"UPDATE SKIP {name}: no fresh file in {args.fresh}")
                continue
            shutil.copyfile(src, os.path.join(args.baselines, name))
            print(f"updated baseline {name}")
        return 0

    failures = []
    for name in baseline_files:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: fresh run missing (bench not executed?)")
            continue
        try:
            base, _ = load_benchmarks(os.path.join(args.baselines, name))
            fresh, fresh_skipped = load_benchmarks(fresh_path)
        except (json.JSONDecodeError, OSError, KeyError, ValueError) as e:
            failures.append(f"{name}: unreadable benchmark JSON ({e})")
            continue
        for bench, base_ns in sorted(base.items()):
            if bench in fresh_skipped:
                # Baselined on a machine with the ISA, skipped on this
                # one — acceptable, not a coverage loss.
                print(f"skip {name}:{bench}: unavailable on this CPU")
                continue
            if bench not in fresh:
                failures.append(f"{name}:{bench}: missing from fresh run")
                continue
            ratio = fresh[bench] / base_ns if base_ns > 0 else float("inf")
            verdict = "FAIL" if ratio > args.tolerance else "ok"
            print(f"{verdict:4s} {name}:{bench}: "
                  f"{base_ns:12.0f} ns -> {fresh[bench]:12.0f} ns "
                  f"({ratio:.2f}x, tolerance {args.tolerance:.1f}x)")
            if ratio > args.tolerance:
                failures.append(
                    f"{name}:{bench}: {ratio:.2f}x slower than baseline")

    for name, slow, fast, min_ratio in RATIO_GATES:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: fresh run missing (ratio gate)")
            continue
        try:
            fresh, fresh_skipped = load_benchmarks(fresh_path)
        except (json.JSONDecodeError, OSError, KeyError, ValueError) as e:
            failures.append(f"{name}: unreadable benchmark JSON ({e})")
            continue
        if slow in fresh_skipped or fast in fresh_skipped:
            print(f"skip {name}: ratio gate {slow} / {fast} "
                  f"(backend unavailable on this CPU)")
            continue
        if slow not in fresh or fast not in fresh:
            failures.append(f"{name}: ratio gate benches missing "
                            f"({slow} / {fast})")
            continue
        ratio = fresh[slow] / fresh[fast] if fresh[fast] > 0 else 0.0
        verdict = "FAIL" if ratio < min_ratio else "ok"
        print(f"{verdict:4s} {name}: {slow} / {fast} = {ratio:.2f}x "
              f"(required >= {min_ratio:g}x)")
        if ratio < min_ratio:
            failures.append(
                f"{name}: speedup {ratio:.2f}x below required "
                f"{min_ratio:g}x ({slow} vs {fast})")

    matrix_path = os.path.join(args.fresh, "BENCH_eval_matrix.json")
    if not os.path.exists(matrix_path):
        failures.append("BENCH_eval_matrix.json: fresh run missing "
                        "(fault verdict gate)")
    else:
        try:
            with open(matrix_path) as f:
                matrix = json.load(f)
            cells = {(c["attack"], c["countermeasure"]): c
                     for c in matrix.get("cells", [])}
        except (json.JSONDecodeError, OSError, KeyError, TypeError) as e:
            cells = None
            failures.append(f"BENCH_eval_matrix.json: unreadable ({e})")
        if cells is not None:
            for attack, cm, expected in FAULT_VERDICT_GATES:
                cell = cells.get((attack, cm))
                if cell is None:
                    failures.append(
                        f"eval matrix: missing fault cell {attack} x {cm}")
                    continue
                bad = [f"{k}={cell.get(k)!r} (want {v!r})"
                       for k, v in expected.items() if cell.get(k) != v]
                verdict = "FAIL" if bad else "ok"
                print(f"{verdict:4s} eval:{attack} x {cm}: " +
                      ("; ".join(bad) if bad else "verdict exact"))
                if bad:
                    failures.append(
                        f"eval matrix {attack} x {cm}: " + "; ".join(bad))

    ct_path = os.path.join(args.fresh, "BENCH_ct_audit.json")
    if not os.path.exists(ct_path):
        failures.append("BENCH_ct_audit.json: fresh run missing "
                        "(constant-time audit gate)")
    else:
        failures.extend(check_ct_audit(ct_path))

    if failures:
        print("\nPERF REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf gate: all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
