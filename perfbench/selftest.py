"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        # from the root of the tree; ~1 minute

For every workload it runs run.py untraced and traced, and one child with
one expected value deliberately wrong, and checks that

* the last stdout line is the result object with exactly the keys and the
  metric names that BENCHMARK.json declares, and correct is true;
* the wrong expected value shows up as a failed op;
* every per-layer metric the workload is meant to serve is nonzero, so a
  wrapper that missed a rebinding reads as a failure, not as a fast layer.

Exits 0 when all checks pass and prints each failure otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

import run as runner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must be nonzero on each workload: the workload each
# layer metric is expected to move (see README.md).
CACHES = ("cache.make_context.entries", "cache.lambda_parts.entries",
          "cache.sum_cache.entries", "cache.l_cache.entries")
EXPECT_NONZERO = {
    "series_sweep": (
        "charsums.kloosterman.calls", "charsums.kloosterman.self_s",
        "series.sum_miss_ratio", "charsums.lambda_k.calls", "charsums.lambda_k.s",
        "arith.cyclo_to_complex.calls", "arith.cyclo_to_complex.terms",
        "arith.cyclo_to_complex.s", "arith.bessel_i1.calls", "arith.bessel_i1.s",
        "series.rademacher_eval.self_s", "context.make_context.calls") + CACHES,
    "series_deep": (
        "arith.cyclo_to_complex.calls", "arith.cyclo_to_complex.terms",
        "arith.cyclo_to_complex.s", "dedekind.dedekind_s_chi.calls",
        "dedekind.dedekind_s_chi.s", "dedekind.dedekind_s.calls",
        "dedekind.dedekind_s.s", "charsums.lambda_exponent.calls",
        "charsums.lambda_exponent.self_s", "arith.cyclo_from_phases.calls",
        "arith.cyclo_from_phases.s", "series.sum_miss_ratio") + CACHES,
    "exact_verify": (
        "dedekind.dedekind_s_chi.calls", "dedekind.dedekind_s_chi.s",
        "dedekind.dedekind_s.calls", "dedekind.dedekind_s.s",
        "charsums.lambda_exponent.calls", "charsums.lambda_exponent.self_s",
        "arith.cyclo_from_phases.calls", "arith.cyclo_from_phases.s",
        "arith.cyclo_is_zero.calls", "arith.cyclo_is_zero.s",
        "charsums.check_congruence.s", "charsums.phi_root.s",
        "series.verify_functional_equation.s", "cli.suite.dedekind.s",
        "cli.suite.charsums.s", "cli.suite.tau.s", "cli.suite.feq.s",
        "context.make_context.calls"),
    "oracle_scan": (
        "series.oracle_table.s", "series.oracle_table.adds",
        "series.scan_vanishing.self_s"),
}


def run(script, *args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def check_result(doc, declared):
    errors = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(doc)}")
    if not (isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int)):
        errors.append("attempted/failed are not counts")
    names = {m["name"] for m in declared}
    if set(doc["metrics"]) != names:
        errors.append(f"metrics differ from BENCHMARK.json: "
                      f"{sorted(set(doc['metrics']) ^ names)}")
    if any(not isinstance(v["value"], (int, float)) for v in doc["metrics"].values()):
        errors.append("a metric value is not a number")
    if doc["correct"] is not True or doc["failed"] != 0:
        errors.append(f"correct={doc['correct']} failed={doc['failed']}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    for workload, nonzero in EXPECT_NONZERO.items():
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "tiny"]
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            rc, doc, err = run("run.py", *base, "--trace", trace)
            if rc != 0 or doc is None:
                errors.append(f"{workload} trace={trace}: exit {rc}\n{err[-2000:]}")
                continue
            errors += [f"{workload} trace={trace}: {e}" for e in check_result(doc, declared)]
            if trace == "1":
                zero = [m for m in nonzero if not doc["metrics"][m]["value"] > 0]
                if zero:
                    errors.append(f"{workload}: zero per-layer metrics {zero}")
        args = argparse.Namespace(workload=workload, seed=7, size="tiny")
        doc = runner.run_child(args, "--perturb")
        if doc is None or not doc["failed"]:
            errors.append(f"{workload}: a wrong expected value was not reported as failed")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
