"""legpart benchmark: run one workload in fresh interpreters and report metrics.

    python3 perfbench/run.py --workload series_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Every measured run of a workload is a
new interpreter (child.py) with PYTHONPATH=<tree>/src and LEGPART_PRECISION
removed, because all of legpart's caches are process-global and a user pays
their fill once per invocation.  Children run one at a time until the next
one would overrun --seconds (at least one runs).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced child plus the tracing overhead against an untraced child of the
same inputs.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exits 1 if any op failed its
output check, 2 if the tree has no legpart sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("series_sweep", "series_deep", "exact_verify", "oracle_scan")
SETUP_PROBES = 16         # extra set-up-only children per untraced run
CHILD_TIMEOUT_S = 150


def run_child(args, *flags):
    cmd = [sys.executable, "-s", CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("LEGPART_PRECISION", None)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"child timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:     # timed out, or we are being stopped
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        return None
    return json.loads(out.strip().splitlines()[-1])


def run_until(args, start, step):
    """Call step() until another call would pass --seconds; return results."""
    out, took = [], []
    while True:
        t = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > args.seconds:
            return out


def tail(latencies):
    """(latency, percentile) at the highest percentile with >= 10 samples
    beyond it, or None when there are too few ops."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return None
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


# ---------------------------------------------------------------------------
# per-layer metrics, from one traced child's aggregated spans
# ---------------------------------------------------------------------------

def _is_sum(name):
    return name is not None and name.startswith("charsums.kloosterman")


def layer_metrics(child):
    rows = child["spans"]
    counts = child["counts"]

    def calls(name):
        return sum(c for n, par, c, _, _ in rows if n == name and par != name)

    def secs(name):
        return sum(t for n, par, _, t, _ in rows if n == name and par != name)

    def self_s(name):
        return sum(s for n, _, _, _, s in rows if n == name)

    misses = sum(c for n, par, c, _, _ in rows
                 if _is_sum(n) and par == "series.rademacher_eval")
    lookups = counts.get("series.sum_lookups", 0)
    m = {
        "charsums.kloosterman.calls":
            sum(c for n, par, c, _, _ in rows if _is_sum(n) and not _is_sum(par)),
        "charsums.kloosterman.self_s":
            sum(s for n, _, _, _, s in rows if _is_sum(n)),
        "series.sum_miss_ratio": misses / lookups if lookups else 0.0,
        "series.rademacher_eval.self_s": self_s("series.rademacher_eval"),
        "charsums.lambda_exponent.self_s": self_s("charsums.lambda_exponent"),
        "series.scan_vanishing.self_s": self_s("series.scan_vanishing"),
        "arith.cyclo_to_complex.terms": counts.get("arith.cyclo_to_complex.terms", 0),
        "series.oracle_table.adds": counts.get("series.oracle_table.adds", 0),
        "charsums.check_congruence.s": (secs("charsums.check_congruence_mod16")
                                        + secs("charsums.check_congruence_modThK")),
        "context.make_context.calls": calls("context.make_context"),
    }
    for name in ("charsums.lambda_k", "arith.cyclo_to_complex", "arith.bessel_i1",
                 "dedekind.dedekind_s_chi", "dedekind.dedekind_s",
                 "charsums.lambda_exponent", "arith.cyclo_from_phases",
                 "arith.cyclo_is_zero"):
        m[f"{name}.calls"] = calls(name)
    for name in ("charsums.lambda_k", "arith.cyclo_to_complex", "arith.bessel_i1",
                 "dedekind.dedekind_s_chi", "dedekind.dedekind_s",
                 "arith.cyclo_from_phases", "arith.cyclo_is_zero",
                 "charsums.phi_root", "series.verify_functional_equation",
                 "series.oracle_table", "cli.suite.dedekind", "cli.suite.charsums",
                 "cli.suite.tau", "cli.suite.feq"):
        m[f"{name}.s"] = secs(name)
    m.update(child["caches"])
    return m


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timings(probes, children, k):
    """Timed metrics on clock k of each child: 0 wall-clock, 1 reference speed."""
    lats = [lat[k] for c in children for lat in c["latencies"]]
    return lats, {
        "setup_s": statistics.median([c["setup"][k] for c in probes + children]),
        "wall_s": statistics.median([c["wall"][k] for c in children]),
        "ops_per_s": statistics.median([len(c["latencies"]) / c["wall"][k]
                                        for c in children]),
        "op_p50_s": statistics.median(lats),
    }


def measure(args, start):
    run_child(args, "--setup-only")      # compiles bytecode; not counted
    # half the set-up probes before the children and half after, so that they
    # sample the host's speed swings at two times
    probes = [run_child(args, "--setup-only") for _ in range(SETUP_PROBES // 2)]
    children = run_until(args, start, lambda: run_child(args))
    probes += [run_child(args, "--setup-only") for _ in range(SETUP_PROBES // 2)]
    ok = [c for c in children if c is not None]
    if not ok or None in probes:
        return None, children, {}
    lats, metrics = timings(probes, ok, 1)
    metrics["peak_rss_mib"] = statistics.median([c["peak_rss_mib"] for c in ok])
    raw_lats, raw = timings(probes, ok, 0)
    notes = {"children": len(children), "setup_samples": len(probes) + len(ok),
             "ops": len(lats),
             "wall-clock": " ".join(f"{k}={v:.6g}" for k, v in raw.items())}
    for clock, xs in (("", lats), (" wall-clock", raw_lats)):
        t = tail(xs)
        if t is not None:
            notes[f"op_tail_s{clock}"] = f"{t[0]:.6g} s at p{t[1]:.1f} (n={len(xs)})"
    distances = [c["max_distance"] for c in ok if c["max_distance"] is not None]
    if distances:
        notes["max_distance"] = f"{max(distances):.6g} (1)"
    return metrics, children, notes


def measure_traced(args, start):
    pairs = run_until(args, start,
                      lambda: (run_child(args), run_child(args, "--trace")))
    children = [c for pair in pairs for c in pair]
    if None in children:
        return None, children, {}
    mismatched = sum(1 for u, t in pairs
                     if u["outputs_sha256"] != t["outputs_sha256"])
    per_child = [layer_metrics(t) for _, t in pairs]
    metrics = {name: statistics.median([m[name] for m in per_child])
               for name in per_child[0]}
    metrics["trace.overhead_s"] = (statistics.median([t["wall"][1] for _, t in pairs])
                                   - statistics.median([u["wall"][1] for u, _ in pairs]))
    notes = {"pairs": len(pairs), "traced_outputs_equal": mismatched == 0}
    return metrics, children, notes


def describe_machine(children):
    meta = next((c["meta"] for c in children if c is not None), {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(meta, nproc=len(os.sched_getaffinity(0)), cpu=cpu)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's reduced inputs")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "legpart", "__init__.py")):
        print(f"error: no legpart sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    run = measure_traced if args.trace else measure
    metrics, children, notes = run(args, start)
    done = [c for c in children if c is not None]
    attempted = sum(len(c["latencies"]) for c in done) + (len(children) - len(done))
    failed = sum(len(c["failed"]) for c in done) + (len(children) - len(done))
    foreign = [c["meta"]["legpart_file"] for c in done
               if not c["meta"]["legpart_file"].startswith(SRC + os.sep)]
    correct = (metrics is not None and failed == 0 and not foreign
               and notes.get("traced_outputs_equal", True))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# " + " ".join(f"{k}={v}" for k, v in describe_machine(children).items()))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for c in done:
        for key in c["failed"]:
            print(f"# FAILED op {key}")
    for path in foreign:
        print(f"# FAILED: imported legpart from {path}, not from {SRC}")
    print(f"# failed_ops: {failed / attempted if attempted else 1.0:.6g} share "
          f"({failed}/{attempted})")
    if metrics is None:
        print("error: a child run crashed; no metrics", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    for name, v in report.items():
        print(f"{name:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
