"""One cold run of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py --workload series_sweep --seed 1 [--size tiny]
        [--trace] [--perturb] [--setup-only]

Set-up (import legpart plus make_context for the workload's primes) and the
ops are timed separately, each as wall-clock and as reference-speed seconds
(speed.py); the outputs are checked after the timed region.  Prints one JSON
object on its last stdout line; exits 0 unless it crashed.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--perturb", action="store_true",
                    help="offset one expected value, to test the checks")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import speed
    sampler = speed.SpeedClock()
    sampler.start()
    clock = time.perf_counter
    t0 = clock()
    import legpart.cli  # noqa: F401  (the package and its CLI)
    setup = [(t0, clock())]
    import workloads
    primes, make_ops, check = workloads.WORKLOADS[args.workload]
    t0 = clock()
    ctxs = {p: legpart.make_context(p) for p in primes}
    setup.append((t0, clock()))
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup": _span(sampler, setup)}))
        return 0

    import mpmath
    import tracer
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        ops = make_ops(args.workload, args.size, args.seed, ctxs, workdir)
        tr = tracer.Tracer() if args.trace else None
        if tr:
            tr.install()
        marks, results = [], []
        for _, thunk in ops:
            t = clock()
            results.append(thunk())
            marks.append((t, clock()))
        sampler.stop()
        if tr:
            tr.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        caches = _cache_entries()
        oks, outputs, max_distance = check(args.workload, args.size, args.seed,
                                           ops, results, workdir, args.perturb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup": _span(sampler, setup),
        "wall": _span(sampler, [(marks[0][0], marks[-1][1])]),
        "latencies": [_span(sampler, [m]) for m in marks],
        "failed": [str(key) for (key, _), ok in zip(ops, oks) if not ok],
        "peak_rss_mib": peak_rss_mib,
        "max_distance": max_distance,
        "outputs_sha256": workloads.digest(outputs),
        "caches": caches,
        "meta": {
            "legpart_file": legpart.__file__,
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if tr:
        out["spans"] = tr.report()
        out["counts"] = tr.counts
        if args.workload.startswith("series_"):
            out["counts"]["series.sum_lookups"] = (
                len(ops) * workloads.series_lookups(args.workload, args.size))
    print(json.dumps(out))
    return 0


def _span(sampler, intervals):
    """[wall-clock seconds, reference-speed seconds] summed over intervals."""
    return [sum(b - a for a, b in intervals),
            sum(sampler.seconds(a, b) for a, b in intervals)]


def _cache_entries() -> dict:
    """Entries held by the package's process-global caches, where they exist."""
    mods = {name: sys.modules.get(f"legpart.{name}")
            for name in ("context", "charsums", "series")}

    def lru(mod, attr):
        fn = getattr(mod, attr, None)
        return fn.cache_info().currsize if hasattr(fn, "cache_info") else 0

    def size(mod, attr):
        return len(getattr(mod, attr, ()))

    return {
        "cache.make_context.entries": lru(mods["context"], "make_context"),
        "cache.lambda_parts.entries": lru(mods["charsums"], "_lambda_parts"),
        "cache.sum_cache.entries": size(mods["charsums"], "_SUM_CACHE"),
        "cache.l_cache.entries": size(mods["series"], "_L_CACHE"),
    }


if __name__ == "__main__":
    sys.exit(main())
