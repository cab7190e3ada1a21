#!/usr/bin/env python3
"""Builds and runs prbench, the repository benchmark, and compares reports.

Run from the repository root. Only the Python standard library is used.

  python3 prbench/run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1
      One run. Builds the prbench binary if needed, runs the workload's fixed
      number of jobs, stopping early only at S seconds, and prints, as the
      last line of stdout, one JSON object with the keys correct, attempted,
      failed and metrics. --trace 0 reports the end-to-end metrics of
      BENCHMARK.json, --trace 1 the per-layer ones and writes a Chrome
      trace-event file next to the run's JSON report.

  python3 prbench/run_benchmark.py suite [--reps 5] [--seconds S] [--seed 7]
                                         [--workloads a,b] [--out FILE]
      Every workload --reps times, alternating the order, then one traced
      run of each. Writes the median and quartiles of every end-to-end
      metric and the per-layer values under one header.

  python3 prbench/run_benchmark.py compare A.json B.json [--same-code]
      A verdict per (metric, workload): improved, unchanged, worse, or
      unresolved when the run-to-run spread exceeds the bound. With
      --same-code, checks that two suites of the same code agree within the
      bounds, and exits non-zero if they do not.

  python3 prbench/run_benchmark.py smoke
      Every workload at 5% of its budget: correctness and schema checks only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "prbench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(
    os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))),
    "prbench")
BINARY = os.path.join(BUILD, "prbench")
WORK = os.path.join(BUILD, "work")
# The compiler's and the binary's temporary files stay inside the build dir.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))

RUN_TIMEOUT_S = 160  # one prbench process; a whole run must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; exits 2 when that fails."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("prbench: cmake not found")
        sys.exit(2)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = [cmake, "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            log("prbench: configure failed")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    cmd = [cmake, "--build", BUILD, "--target", "prbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
        log("prbench: build failed")
        sys.exit(2)
    os.makedirs(WORK, exist_ok=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args, stdout=None):
    """Runs the binary from the repository root; None on a timeout."""
    # A relative work dir keeps Unix-domain socket paths short.
    cmd = [BINARY, "--workdir", os.path.relpath(WORK, ROOT)] + args
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=stdout, env=ENV,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("prbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return None


def run_once(workload, seed, seconds, trace, sha, stdout=None):
    """One run of the binary; returns (exit code, its JSON report)."""
    stem = os.path.join(WORK, "%s-seed%d-trace%d" % (workload, seed, trace))
    report_path = stem + ".json"
    if os.path.exists(report_path):
        os.remove(report_path)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--json", report_path,
            "--git-sha", sha]
    if trace:
        args += ["--chrome-trace", stem + "-chrome.json"]
    code = run_binary(args, stdout=stdout)
    report = None
    if os.path.exists(report_path):
        with open(report_path) as f:
            report = json.load(f)
    return code, report


def run_one(opts):
    bench = load_benchmark()
    build()
    names = [m["name"] for m in bench["per_layer" if opts.trace else "end_to_end"]]
    code, report = run_once(opts.workload, opts.seed, opts.seconds, opts.trace,
                            git_sha())
    if report is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    metrics = {n: report["metrics"][n] for n in names if n in report["metrics"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        log("prbench: metrics missing from the report: " + ", ".join(missing))
    correct = code == 0 and report["correct"] and not missing
    attempted = max(1, report["attempted"])
    failed = report["failed"] if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def suite(opts):
    bench = load_benchmark()
    build()
    sha = git_sha()
    workloads = ([w["name"] for w in bench["workloads"]] if opts.workloads == "all"
                 else opts.workloads.split(","))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    values = {w: {n: [] for n in e2e} for w in workloads}
    result = {w: {"correct": True, "attempted": 0, "failed": 0, "failures": []}
              for w in workloads}
    first_header = None

    def absorb(workload, code, report):
        entry = result[workload]
        if report is None:
            entry["correct"] = False
            entry["failures"].append("no report (exit %s)" % code)
            return
        entry.setdefault("header", report["header"])  # an untraced rep's
        entry["correct"] = entry["correct"] and code == 0 and report["correct"]
        entry["attempted"] += report["attempted"]
        entry["failed"] += report["failed"]
        entry["failures"] += report["failures"]

    for rep in range(opts.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            t = time.time()
            code, report = run_once(w, opts.seed + rep, opts.seconds, 0, sha,
                                    stdout=subprocess.DEVNULL)
            log("rep %d %-14s exit %s %.1f s" % (rep, w, code, time.time() - t))
            absorb(w, code, report)
            if report is not None:
                first_header = first_header or report["header"]
                for n in e2e:
                    if n in report["metrics"]:
                        values[w][n].append(report["metrics"][n]["value"])
    for w in workloads:
        t = time.time()
        code, report = run_once(w, opts.seed, opts.seconds, 1, sha,
                                stdout=subprocess.DEVNULL)
        log("traced %-14s exit %s %.1f s" % (w, code, time.time() - t))
        absorb(w, code, report)
        if report is not None:
            result[w]["per_layer"] = {
                n: report["metrics"][n] for n in layer if n in report["metrics"]}

    for w in workloads:
        result[w]["end_to_end"] = {}
        for n, spec in e2e.items():
            v = values[w][n]
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            result[w]["end_to_end"][n] = {
                "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                "values": v}
    header = dict(first_header or {})
    for key in ("workload", "engine", "traced"):
        header.pop(key, None)
    header.update({"git_sha": sha, "seed": opts.seed, "reps": opts.reps,
                   "seconds": opts.seconds})
    out = {"header": header, "workloads": result}
    os.makedirs(os.path.dirname(os.path.abspath(opts.out)), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + opts.out)
    print_suite(out, e2e)
    return 0 if all(r["correct"] for r in result.values()) else 1


def print_suite(report, e2e):
    for w, entry in report["workloads"].items():
        print("%s  correct=%s attempted=%d failed=%d" % (
            w, entry["correct"], entry["attempted"], entry["failed"]))
        for n, s in entry.get("end_to_end", {}).items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% "
                  "(bound %g%%)" % (n, s["median"], s["q1"], s["q3"],
                                    100 * spread, 100 * e2e[n]["bound"]))


def spread_share(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(a, b, spec):
    """Compares suite entry b (the change) with a (the parent)."""
    bound = spec["bound"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    a_runs, b_runs = a["values"], b["values"]
    if sign > 0:
        all_better = max(b_runs) < min(a_runs)
        all_worse = min(b_runs) > max(a_runs)
        wins = sum(1 for x, y in zip(a_runs, b_runs) if y < x)
    else:
        all_better = min(b_runs) > max(a_runs)
        all_worse = max(b_runs) < min(a_runs)
        wins = sum(1 for x, y in zip(a_runs, b_runs) if y > x)
    pairs = min(len(a_runs), len(b_runs))
    too_wide = max(spread_share(a), spread_share(b)) > bound
    if too_wide and not (all_better or all_worse):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread_share(a) and pairs and wins >= 0.9 * pairs:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(opts):
    bench = load_benchmark()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    with open(opts.a) as f:
        a = json.load(f)
    with open(opts.b) as f:
        b = json.load(f)
    print("A: %s  B: %s" % (a["header"].get("git_sha"), b["header"].get("git_sha")))
    ok = True
    for w, ea in a["workloads"].items():
        eb = b["workloads"].get(w)
        if eb is None:
            print("%-14s missing from B" % w)
            ok = False
            continue
        if not eb["correct"]:
            print("%-14s B failed its checks: %s" % (w, eb["failures"][:3]))
            ok = False
        for n, spec in e2e.items():
            sa, sb = ea.get("end_to_end", {}).get(n), eb.get("end_to_end", {}).get(n)
            if sa is None or sb is None:
                continue
            v, worse_by = verdict(sa, sb, spec)
            note = ""
            if opts.same_code:
                # Two suites of one commit: neither may read worse than the
                # other by more than the bound, and the spread must fit the
                # bound except for setup_s, whose bound covers both sets.
                _, back = verdict(sb, sa, spec)
                agree = worse_by <= spec["bound"] and back <= spec["bound"]
                steady = n == "setup_s" or max(spread_share(sa), spread_share(sb)) <= spec["bound"]
                if not (agree and steady):
                    ok = False
                    note = "  DISAGREE"
            elif v == "worse":
                ok = False
            print("%-14s %-14s A %-12.6g B %-12.6g change %+6.1f%% bound %4.0f%% "
                  "spread A %4.1f%% B %4.1f%%  %s%s" % (
                      w, n, sa["median"], sb["median"],
                      100 * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0,
                      100 * spec["bound"], 100 * spread_share(sa),
                      100 * spread_share(sb), v, note))
    return 0 if ok else 1


def smoke(_opts):
    bench = load_benchmark()
    build()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    proc = subprocess.run([BINARY, "--smoke", "--workdir", os.path.relpath(WORK, ROOT)],
                          cwd=ROOT, capture_output=True, text=True, env=ENV,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    seen = {}
    workload = None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "==":
            workload = parts[1]
            seen[workload] = set()
        elif workload and len(parts) == 3:
            seen[workload].add(parts[0])
    ok = proc.returncode == 0 and len(seen) == len(bench["workloads"])
    for w, got in seen.items():
        missing = [n for n in names if n not in got]
        if missing:
            ok = False
            print("%s is missing %s" % (w, ", ".join(missing)))
    print("SMOKE %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("suite", "compare", "smoke"):
        parser = argparse.ArgumentParser(prog="run_benchmark.py " + argv[0])
        if argv[0] == "suite":
            parser.add_argument("--reps", type=int, default=5)
            parser.add_argument("--seconds", type=int, default=load_benchmark()["run_seconds"])
            parser.add_argument("--seed", type=int, default=7)
            parser.add_argument("--workloads", default="all")
            parser.add_argument("--out", default=os.path.join(WORK, "suite.json"))
            return suite(parser.parse_args(argv[1:]))
        if argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
            parser.add_argument("--same-code", action="store_true")
            return compare(parser.parse_args(argv[1:]))
        return smoke(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run_benchmark.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
