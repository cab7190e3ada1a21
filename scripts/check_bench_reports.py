#!/usr/bin/env python3
"""Checks a bench report's keys and gates; exits nonzero on the first failure.

Usage: check_bench_reports.py {scenarios|runtime|collectives} REPORT.json
"""
import json
import sys


def check_scenarios(report):
    """Gates BENCH_scenarios.json (written by bench_scenarios)."""
    for key in ("bench", "iters", "num_workers", "group_size",
                "loss_tol", "step_seconds", "cells", "gates"):
        assert key in report, f"missing top-level key: {key}"
    cells = report["cells"]
    seen = set()
    for cell in cells:
        for key in ("scenario", "strategy", "end_loss",
                    "end_loss_delta", "mean_recovery_seconds",
                    "wasted_gradient_fraction", "sim_seconds",
                    "updates", "deadlocked"):
            assert key in cell, f"missing cell key: {key}"
        seen.add((cell["scenario"], cell["strategy"]))
    for scenario in ("fault_free", "reference", "poisson_churn",
                     "heavy_tail_slowdown", "rack_churn"):
        for strategy in ("CON", "DYN", "AR", "PS-BSP"):
            assert (scenario, strategy) in seen, \
                f"missing cell: {scenario}/{strategy}"
    gates = report["gates"]
    for key in ("con_reference_rel_loss_delta", "con_loss_within_tol",
                "matrix_deadlocks", "sweep_seeds", "sweep_deadlocks",
                "deadlock_free"):
        assert key in gates, f"missing gate key: {key}"
    assert gates["con_loss_within_tol"], \
        f"CON end loss off by {gates['con_reference_rel_loss_delta']:.4f}"
    assert gates["deadlock_free"], \
        (f"deadlocks: matrix={gates['matrix_deadlocks']} "
         f"sweep={gates['sweep_deadlocks']}")
    print(f"BENCH_scenarios.json OK: {len(cells)} cells, "
          f"CON loss delta "
          f"{gates['con_reference_rel_loss_delta']*100:.2f}%, "
          f"0 deadlocks over {gates['sweep_seeds']} sweep seeds")


def check_runtime(report):
    """Gates BENCH_runtime.json (written by bench_runtime_obs)."""
    for key in ("bench", "workers", "iterations_per_worker", "runs"):
        assert key in report, f"missing top-level key: {key}"
    runs = report["runs"]
    assert len(runs) == 8, f"expected 8 runs (4 strategies x 2 engines), got {len(runs)}"
    seen = set()
    for run in runs:
        for key in ("engine", "strategy", "wall_seconds", "decision_latency",
                    "worker_idle_fraction", "stash_high_water",
                    "trace_events", "trace_dropped", "metrics"):
            assert key in run, f"missing run key: {key}"
        assert len(run["worker_idle_fraction"]) == report["workers"]
        seen.add((run["engine"], run["strategy"]))
        if run["strategy"] in ("CON", "DYN"):
            latency = run["decision_latency"]
            assert latency and latency["count"] > 0, \
                f"no decision latency for {run['engine']}/{run['strategy']}"
            hists = run["metrics"]["histograms"]
            assert "controller.decision_latency_seconds" in hists
    for strategy in ("CON", "DYN", "AR", "PS-BSP"):
        assert ("threaded", strategy) in seen, f"missing threaded run: {strategy}"
        assert ("sim", strategy) in seen, f"missing sim run: {strategy}"
    print(f"BENCH_runtime.json OK: {len(runs)} runs")


def check_collectives(report):
    """Gates BENCH_collectives.json (written by bench_collectives)."""
    for key in ("bench", "members", "reps", "sizes",
                "segmented_speedup_at_max_size"):
        assert key in report, f"missing top-level key: {key}"
    assert report["members"] == 8
    for entry in report["sizes"]:
        algos = {a["algo"]: a for a in entry["algos"]}
        for name in ("leader", "ring", "segmented_ring"):
            assert name in algos, f"missing algo {name} at {entry['floats']}"
            for key in ("best_seconds", "bytes_sent", "payload_copies",
                        "speedup_vs_ring"):
                assert key in algos[name], f"missing {key}"
        # The zero-copy pipeline forwards payload handles: only the
        # own-chunk segments are materialized, so its copy *count*
        # beats the copy-per-hop ring whenever chunks span few
        # segments. (At huge sizes the count rises with segmentation
        # while the copied *bytes* stay 1/(2(P-1)) of the ring's —
        # the count comparison is only meaningful below that point.)
        if entry["floats"] <= 1 << 20:
            assert algos["segmented_ring"]["payload_copies"] < \
                algos["ring"]["payload_copies"], \
                f"no copy reduction at {entry['floats']} floats"
    # Headline acceptance: >= 1.5x over the classic ring at >= 1M
    # floats with 8 members (CI runners are noisy; the local margin
    # is ~2-3x).
    speedup = report["segmented_speedup_at_max_size"]
    assert speedup >= 1.5, f"segmented ring speedup {speedup:.2f}x < 1.5x"

    # Compressed data plane acceptance. Bytes ratios are exact counter
    # arithmetic (no timing noise): int8 >= 3.5x and fp16 >= 1.9x
    # fewer bytes on the wire than fp32 at 1M floats / 8 members.
    compression = report["compression"]
    assert compression["floats"] >= 1 << 20
    codecs = {c["codec"]: c for c in compression["codecs"]}
    for name in ("none", "fp16", "int8", "topk"):
        assert name in codecs, f"missing codec row: {name}"
    assert report["int8_bytes_ratio"] >= 3.5, \
        f"int8 bytes ratio {report['int8_bytes_ratio']:.2f}x < 3.5x"
    assert report["fp16_bytes_ratio"] >= 1.9, \
        f"fp16 bytes ratio {report['fp16_bytes_ratio']:.2f}x < 1.9x"

    # End-loss parity: fp16/int8 must land within 2% of fp32 for
    # CON/DYN/AR under both engines. Top-k is reported, not gated —
    # single-shot sparsification legitimately trades accuracy.
    rows = report["end_loss"]
    seen = {(r["engine"], r["strategy"], r["codec"]) for r in rows}
    for engine in ("threaded", "sim"):
        for strategy in ("CON", "DYN", "AR"):
            for codec in ("none", "fp16", "int8", "topk"):
                assert (engine, strategy, codec) in seen, \
                    f"missing end-loss row: {engine}/{strategy}/{codec}"
    for r in rows:
        if r["codec"] in ("fp16", "int8"):
            assert r["rel_delta_vs_fp32"] <= 0.02, \
                (f"{r['engine']}/{r['strategy']}/{r['codec']} loss "
                 f"delta {r['rel_delta_vs_fp32']:.4f} > 2%")
    delta = report["max_loss_rel_delta_fp16_int8"]
    assert delta <= 0.02, f"worst fp16/int8 loss delta {delta:.4f} > 2%"
    print(f"BENCH_collectives.json OK: segmented {speedup:.2f}x vs ring, "
          f"int8 {report['int8_bytes_ratio']:.2f}x / "
          f"fp16 {report['fp16_bytes_ratio']:.2f}x fewer bytes, "
          f"worst gated loss delta {delta*100:.3f}%")


CHECKS = {
    "scenarios": check_scenarios,
    "runtime": check_runtime,
    "collectives": check_collectives,
}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.exit(__doc__)
    with open(argv[2]) as f:
        report = json.load(f)
    CHECKS[argv[1]](report)


if __name__ == "__main__":
    main(sys.argv)
