"""The four benchmark workloads: inputs from a seed, the ops, and their checks.

This module runs inside a fresh child interpreter (child.py), so every
process-global cache in legpart starts empty, as it does for a user who runs
legpart once.  Each workload gives

* the primes whose contexts set-up builds;
* make_ops(name, size, seed, ctxs, workdir): a list of (key, thunk) pairs,
  one per op, built outside the timed region;
* check(name, size, seed, ops, results, workdir, perturb): per-op pass
  flags, the outputs that must match between traced and untraced runs, and
  the largest distance to an integer (series workloads only).  perturb
  makes one expected value wrong, so the self-test can see a failure.

Functions are looked up through the legpart modules at call time, so the
wrappers the traced run installs see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import legpart
import legpart.cli
import legpart.series

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

PRECISION = 128

# Sizes: "full" is what the benchmark measures, "tiny" what the self-test runs.
SIZES = {
    "series_sweep": {"full": {"k_max": 60, "n_max": 130},
                     "tiny": {"k_max": 24, "n_max": 30}},
    "series_deep": {"full": {"k_max": 150, "n_lo": 1000, "n_hi": 1700, "count": 7},
                    "tiny": {"k_max": 40, "n_lo": 40, "n_hi": 60, "count": 2}},
    "exact_verify": {"full": {"scale": "full"}, "tiny": {"scale": "quick"}},
    "oracle_scan": {"full": {"n_max": 5000, "table_n": 8000},
                    "tiny": {"n_max": 1000, "table_n": 1000}},
}

SCAN_PRIMES = (5, 13, 17, 29, 37, 41)
VERIFY_SUITES = ("dedekind", "charsums", "tau", "feq")


def csv_sha256(table) -> str:
    text = legpart.cli.format_oracle_csv(table)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_key(p, sign, n_max) -> str:
    return f"{p},{'+' if sign == 1 else '-'},{n_max}"


# ---------------------------------------------------------------------------
# series_sweep and series_deep: one op is one rademacher_eval
# ---------------------------------------------------------------------------

def _series_inputs(name, size, seed):
    par = SIZES[name][size]
    rng = random.Random(seed)
    if name == "series_sweep":
        pairs = [(sign, n) for sign in (1, -1) for n in range(1, par["n_max"] + 1)]
        rng.shuffle(pairs)
        return pairs, par["n_max"]
    ns = rng.sample(range(par["n_lo"], par["n_hi"] + 1), par["count"])
    return [(sign, n) for n in ns for sign in (1, -1)], par["n_hi"]


def _series_ops(name, size, seed, ctxs, workdir):
    pairs, _ = _series_inputs(name, size, seed)
    cfg = legpart.series.SeriesEvalConfig(k_max=SIZES[name][size]["k_max"],
                                          precision=PRECISION)
    ctx = ctxs[17]
    return [((sign, n), lambda sign=sign, n=n:
             legpart.series.rademacher_eval(ctx, sign, n, cfg))
            for sign, n in pairs]


def _series_check(name, size, seed, ops, results, workdir, perturb):
    _, n_max = _series_inputs(name, size, seed)
    ctx = legpart.make_context(17)
    expect = {}
    for sign in (1, -1):
        table = legpart.series.oracle_table(ctx, sign, n_max)
        pinned = EXPECTED["oracle_csv_sha256"].get(_oracle_key(17, sign, n_max))
        # a table that is not the pinned one cannot judge anything
        expect[sign] = table.values if csv_sha256(table) == pinned else None
    oks, outputs, worst = [], [], 0.0
    for i, ((sign, n), res) in enumerate(zip((k for k, _ in ops), results)):
        want = None if expect[sign] is None else expect[sign][n]
        if perturb and i == 0 and want is not None:
            want += 1
        oks.append(want is not None and res.rounded == want)
        worst = max(worst, float(res.distance_to_integer.value))
        outputs.append([sign, n, res.rounded, str(res.raw.value._mpf_)])
    return oks, outputs, worst


def series_lookups(name, size) -> int:
    """Exact-sum lookups one rademacher_eval makes at this size's p and
    k_max: two per odd k prime to p, one per multiple of 4 prime to p, and
    one per nonzero sigma coefficient for each odd multiple K of p."""
    p, k_max = 17, SIZES[name][size]["k_max"]
    ctx = legpart.make_context(p)
    cms = legpart.series.c_sequence(ctx)
    sig = legpart.series.sigma_coeffs(ctx, 1, len(cms) - 1)
    per_k = sum(1 for s in sig if s)
    return (sum(2 for k in range(1, k_max + 1, 2) if k % p)
            + sum(1 for k in range(4, k_max + 1, 4) if k % p)
            + per_k * len(range(p, k_max + 1, 2 * p)))


# ---------------------------------------------------------------------------
# exact_verify: one op is one `legpart verify --suite s` call
# ---------------------------------------------------------------------------

def _verify_ops(name, size, seed, ctxs, workdir):
    scale = SIZES[name][size]["scale"]

    def op(suite):
        argv = ["verify", "--suite", suite, "--scale", scale,
                "--report", os.path.join(workdir, f"{suite}.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            return legpart.cli.main(argv)

    return [(suite, lambda suite=suite: op(suite)) for suite in VERIFY_SUITES]


def _verify_check(name, size, seed, ops, results, workdir, perturb):
    pinned = EXPECTED["verify"][SIZES[name][size]["scale"]]
    oks, outputs = [], []
    for i, ((suite, _), rc) in enumerate(zip(ops, results)):
        with open(os.path.join(workdir, f"{suite}.json"), encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        want = [list(pair) for pair in pinned[suite]]
        if perturb and i == 0:
            want[0][1] = "fail"
        got = [[c["id"], c["status"]] for c in checks]
        oks.append(rc == 0 and got == want)
        outputs.append([suite, rc, checks])
    return oks, outputs, None


# ---------------------------------------------------------------------------
# oracle_scan: one op per prime scanned, plus one large p=17 table
# ---------------------------------------------------------------------------

def _scan_ops(name, size, seed, ctxs, workdir):
    par = SIZES[name][size]
    n_max, table_n = par["n_max"], par["table_n"]

    def scan(p):
        found = legpart.series.scan_vanishing(ctxs[p], 1, 2 * p, max(2 * p, 50), n_max)
        return sorted(found)

    ops = [(p, lambda p=p: scan(p)) for p in SCAN_PRIMES]
    rng = random.Random(seed)
    ops.append(("table", lambda: legpart.series.oracle_table(ctxs[17], 1, table_n, rng)))
    return ops


def _scan_check(name, size, seed, ops, results, workdir, perturb):
    want_scan = {int(p): v for p, v in EXPECTED["scan"].items()}
    if perturb:
        want_scan[5] = [3]
    pin = EXPECTED["oracle_csv_sha256"][_oracle_key(17, 1, SIZES[name][size]["table_n"])]
    oks, outputs = [], []
    for (key, _), res in zip(ops, results):
        if key == "table":
            sha = csv_sha256(res)
            oks.append(sha == pin)
            outputs.append(["table", sha])
        else:
            oks.append(res == want_scan.get(key, []))
            outputs.append([key, res])
    return oks, outputs, None


WORKLOADS = {
    "series_sweep": ((17,), _series_ops, _series_check),
    "series_deep": ((17,), _series_ops, _series_check),
    "exact_verify": ((5, 13, 17), _verify_ops, _verify_check),
    "oracle_scan": (SCAN_PRIMES, _scan_ops, _scan_check),
}
