"""Command-line front end: oracle tables, verification suites, vanishing scans.

    legpart oracle --p 17 --sign + --n-max 100 --format csv --out table.csv
    legpart verify --suite rademacher --scale quick
    legpart scan --p-min 5 --p-max 41 --sign + --n-max 5000

verify prints one line per check, writes a JSON report (schema 1), and
exits 0 when everything passed, 1 if any check failed, 2 on usage errors,
3 when the only non-passes were inconclusive (a numeric comparison whose
truncation tail swamped the tolerance; rerun with more precision).  Table
outputs are deterministic -- identical flags give byte-identical bytes;
timestamps live only in the verify report wrapper.
"""

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from .arith import cyclo_add, cyclo_is_zero, cyclo_neg, cyclo_to_complex, \
    default_precision
from .charsums import (check_congruence_mod16, check_congruence_modThK,
                       kloosterman_L, kloosterman_L_nmd, kloosterman_L_plus,
                       kloosterman_dagger, lambda_exponent, phi_root,
                       verify_tau_table)
from .context import _is_prime, make_context
from .dedekind import (dedekind_s, dedekind_s_chi, dedekind_s_tilde,
                       dedekind_t_chi, lattice_floor_sum,
                       verify_reciprocity_classical, verify_reciprocity_chi)
from .series import (InconclusiveError, SeriesEvalConfig, oracle_table,
                     rademacher_eval, scan_vanishing,
                     verify_functional_equation)

SERIES_PRIMES = (5, 13, 17)
SUITE_NAMES = ("dedekind", "charsums", "tau", "feq", "rademacher", "all")


# ---------------------------------------------------------------------------
# table formatting (oracle, scan)
# ---------------------------------------------------------------------------

def format_oracle_csv(table) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(table.values))
    return "\n".join(lines) + "\n"


def format_oracle_json(table) -> str:
    doc = {
        "schema": 1,
        "kind": "oracle",
        "p": table.p,
        "sign": "+" if table.sign == 1 else "-",
        # values as strings so arbitrarily large integers survive any
        # down-stream JSON parser unharmed
        "rows": [[n, str(v)] for n, v in enumerate(table.values)],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def parse_oracle_csv(text: str) -> list:
    lines = text.strip().split("\n")
    if lines[0] != "n,value":
        raise ValueError("missing n,value header")
    out = []
    for i, line in enumerate(lines[1:]):
        n, v = line.split(",")
        if int(n) != i:
            raise ValueError(f"rows out of order at {n}")
        out.append(int(v))
    return out


def parse_oracle_json(text: str) -> list:
    doc = json.loads(text)
    if doc.get("schema") != 1:
        raise ValueError("unknown schema")
    out = []
    for i, (n, v) in enumerate(doc["rows"]):
        if n != i:
            raise ValueError(f"rows out of order at {n}")
        out.append(int(v))
    return out


def format_scan_csv(rows) -> str:
    lines = ["p,vanishing_residues_mod_2p"]
    for p, residues in rows:
        lines.append(f"{p}," + " ".join(str(r) for r in residues))
    return "\n".join(lines) + "\n"


def _emit(path, text) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# check plumbing
# ---------------------------------------------------------------------------

def _grid_outcome(cid: str, total: int, failures, note: str = "") -> dict:
    if failures:
        shown = "; ".join(str(f) for f in failures[:3])
        return {"id": cid, "status": "fail",
                "witness": f"{len(failures)}/{total} cases failed: {shown}"}
    witness = f"{total} cases"
    if note:
        witness += f" ({note})"
    return {"id": cid, "status": "pass", "witness": witness}


def _bound(scale: str, full_value: int) -> int:
    return full_value if scale == "full" else max(1, full_value // 2)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_dedekind(scale: str) -> list:
    checks = []
    ctxs = [make_context(p) for p in SERIES_PRIMES]

    kb = _bound(scale, 40)
    total, fails = 0, []
    for k in range(1, kb + 1):
        for h in range(1, k + 1):
            if math.gcd(h, k) == 1:
                total += 1
                if not verify_reciprocity_classical(h, k):
                    fails.append((h, k))
    checks.append(_grid_outcome("dedekind.reciprocity.classical", total, fails))

    total, fails = 0, []
    for ctx in ctxs:
        for k in range(1, _bound(scale, 30) + 1):
            for h in range(2, _bound(scale, 14) + 1):
                if math.gcd(h, k) != 1:
                    continue
                total += 1
                if not verify_reciprocity_chi(ctx, h, k):
                    fails.append((ctx.p, h, k))
    checks.append(_grid_outcome("dedekind.reciprocity.chi", total, fails,
                                note="both modulus shapes"))

    total, fails = 0, []
    for ctx in ctxs:
        for q in (2, 3, 5):
            for k in range(1, _bound(scale, 40) + 1):
                for h in range(1, k + 1):
                    if math.gcd(h, k) != 1:
                        continue
                    total += 1
                    ok = (dedekind_s(q * h, q * k) == dedekind_s(h, k)
                          and dedekind_s_chi(ctx, q * h, q * k)
                          == dedekind_s_chi(ctx, h, k)
                          and dedekind_t_chi(ctx, q * h, q * k)
                          == q * dedekind_t_chi(ctx, h, k))
                    if not ok:
                        fails.append((ctx.p, q, h, k))
    checks.append(_grid_outcome("dedekind.scaling", total, fails))

    total, fails = 0, []
    for ctx in ctxs:
        for k in range(1, _bound(scale, 40) + 1):
            for h in range(1, k + 9):
                total += 1
                lhs = dedekind_s_chi(ctx, h, k)
                rhs = (Fraction(h, k) * ctx.b2
                       - Fraction(1, k) * dedekind_t_chi(ctx, h, k))
                if lhs != rhs:
                    fails.append((ctx.p, h, k))
    checks.append(_grid_outcome("dedekind.linkage.chi", total, fails))

    # parity of the integer-valued sum: p = 13 and 17 only -- at p = 5 the
    # value is generally non-integral and the law is replaced by the
    # residue form tested below
    total, fails = 0, []
    for ctx in ctxs:
        if ctx.p == 5:
            continue
        for b in range(2, _bound(scale, 31) + 1):
            for a in range(1, _bound(scale, 50) + 1):
                if math.gcd(a, b) != 1 or a % ctx.p == 0:
                    continue
                total += 1
                v = dedekind_s_tilde(ctx, a, b)
                want = 0 if ctx.chi[a % ctx.p] == 1 else 1
                if v.denominator != 1 or int(v) % 2 != want:
                    fails.append((ctx.p, a, b))
    checks.append(_grid_outcome("dedekind.parity.s_tilde", total, fails,
                                note="p in {13,17}; p=5 uses the residue law"))

    total, fails = 0, []
    ys = [Fraction(0), Fraction(1, 2)] + [Fraction(j, 7) for j in (1, 3, 5)]
    for ctx in ctxs:
        half_b2 = Fraction(ctx.p) * ctx.b2 / 2
        for a in range(1, _bound(scale, 20) + 1):
            if a % ctx.p == 0:
                continue
            abar = pow(a, -1, ctx.p)
            for y in ys:
                total += 1
                got = lattice_floor_sum(ctx, a, y) % ctx.p
                if got != (-abar * int(half_b2)) % ctx.p:
                    fails.append((ctx.p, a, str(y)))
    checks.append(_grid_outcome("dedekind.residue_law.S", total, fails))
    return checks


def suite_charsums(scale: str) -> list:
    checks = []
    c17 = make_context(17)
    ctxs = [make_context(p) for p in SERIES_PRIMES]

    total, fails = 0, []
    for ctx in ctxs:
        step = 1 if scale == "full" else 3
        for k in range(1, 31, step):
            for h in range(1, k + 1):
                if math.gcd(h, k) != 1:
                    continue
                for variant in ("plain", "dagger"):
                    total += 1
                    a = phi_root(ctx, h, k, variant)
                    b = lambda_exponent(ctx, h, k, variant).value
                    if (a - b) % 2 != 0:
                        fails.append((ctx.p, h, k, variant))
    checks.append(_grid_outcome("charsums.phase.routes", total, fails))

    total, fails = 0, []
    for variant in ("plain", "dagger"):
        for k in range(1, _bound(scale, 25) + 1, 2):
            if k % 17 == 0:
                continue
            for n in range(1, _bound(scale, 12) + 1):
                total += 1
                a = kloosterman_L(c17, 2 * k, n, variant=variant)
                b = kloosterman_L(c17, k, n, variant=variant)
                want = b.sum if n % 2 == 0 else cyclo_neg(b.sum)
                if not cyclo_is_zero(cyclo_add(a.sum, cyclo_neg(want))):
                    fails.append((variant, k, n))
    checks.append(_grid_outcome("charsums.L.doubling", total, fails))

    total, fails = 0, []
    for variant in ("plain", "dagger"):
        for k4 in range(4, _bound(scale, 48) + 1, 4):
            if k4 % 17 == 0:
                continue
            for n in range(1, 12, 2):
                total += 1
                if not kloosterman_L(c17, k4, n, variant=variant).is_zero():
                    fails.append((variant, k4, n))
    checks.append(_grid_outcome("charsums.L.quadrupling", total, fails))

    Ks = (17, 51, 85, 119) if scale == "full" else (17, 51)
    total, fails = 0, []
    for K in Ks:
        for n in range(17):
            if n % 17 not in (0, 2, 8, 10):
                continue
            for m in (0, 2):
                total += 1
                if not kloosterman_L_plus(c17, K, n, m).is_zero():
                    fails.append((K, n, m))
    checks.append(_grid_outcome("charsums.L_plus.vanishing", total, fails))

    total, fails = 0, []
    for K in Ks:
        for n in range(17):
            if n % 17 not in (11, 12, 15, 16):
                continue
            for m in (0, 2):
                total += 1
                if not kloosterman_dagger(c17, K, n, m=m).is_zero():
                    fails.append((K, n, m))
    checks.append(_grid_outcome("charsums.L_dagger.vanishing", total, fails))

    total, fails = 0, []
    samples = [
        kloosterman_L(c17, 15, 7),
        kloosterman_L(make_context(13), 9, 2, variant="dagger"),
        kloosterman_L_plus(c17, 51, 5, 1),
        kloosterman_L_nmd(c17, 34, 3, 1, 4),
        kloosterman_dagger(c17, 51, 3, m=1),
    ]
    for s in samples:
        total += 1
        mag = abs(complex(cyclo_to_complex(s.sum, 96).value))
        if mag > s.sum.weight() + 1e-9:
            fails.append(s.kind)
    checks.append(_grid_outcome("charsums.L.trivial_bound", total, fails))

    for name, fn in (("mod16", check_congruence_mod16),
                     ("modThK", check_congruence_modThK)):
        total, fails = 0, []
        for ctx in ctxs:
            k_lim = _bound(scale, 20)
            for K in range(ctx.p, k_lim * ctx.p + 1, 2 * ctx.p):
                for h in range(1, K):
                    if math.gcd(h, K) != 1:
                        continue
                    for variant in ("plain", "dagger"):
                        total += 1
                        if not fn(ctx, h, K, variant):
                            fails.append((ctx.p, h, K, variant))
        checks.append(_grid_outcome(f"charsums.congruence.{name}", total, fails))
    return checks


def suite_tau(scale: str) -> list:
    checks = []
    for p in SERIES_PRIMES:
        ctx = make_context(p)
        K_max = _bound(scale, 12) * p
        rep = verify_tau_table(ctx, K_max)
        cid = f"tau.table.p{p}"
        if rep["ok"]:
            checks.append({"id": cid, "status": "pass",
                           "witness": f"{rep['checks']} counters, K <= {K_max}"})
        else:
            first = rep["failures"][:3]
            checks.append({"id": cid, "status": "fail",
                           "witness": f"{len(rep['failures'])} failures: {first}"})
    return checks


# functional-equation sample points: (p, case, h, k, z); every gcd class,
# chosen so both series arguments stay well inside the unit disk
FEQ_POINTS = {
    "2p": [(5, 1, 10, "1"), (17, 5, 34, "1.2"), (13, 3, 26, "1")],
    "p": [(5, 2, 5, "1"), (13, 1, 13, "1"), (17, 1, 17, "1")],
    "2": [(5, 3, 4, "0.5"), (17, 1, 2, "0.6"), (13, 1, 4, "0.28")],
    "1": [(17, 1, 1, "1"), (5, 1, 3, "0.8"), (13, 2, 3, "0.2")],
}


def suite_feq(scale: str) -> list:
    checks = []
    bound = 1e-9
    for case, points in FEQ_POINTS.items():
        if scale != "full":
            points = points[:1]
        for (p, h, k, z_str) in points:
            ctx = make_context(p)
            z = Fraction(z_str)
            for variant in ("plain", "dagger"):
                cid = f"feq.case{case}.p{p}.h{h}.k{k}.{variant}"
                try:
                    res = verify_functional_equation(
                        ctx, case, h, k, z, truncation=200, precision=128,
                        variant=variant)
                except InconclusiveError as exc:
                    checks.append({"id": cid, "status": "inconclusive",
                                   "witness": str(exc)})
                    continue
                r = float(res.value)
                status = "pass" if r < bound else "fail"
                checks.append({"id": cid, "status": status,
                               "witness": f"residual {r:.3e} at z={z_str}"})
    return checks


def suite_rademacher(scale: str) -> list:
    checks = []
    cfg = SeriesEvalConfig(k_max=60, precision=128)
    plans = [(17, 200 if scale == "full" else 60)]
    if scale == "full":
        plans += [(5, 40), (13, 40)]
    for p, n_max in plans:
        ctx = make_context(p)
        for sign, tag in ((1, "plus"), (-1, "minus")):
            table = oracle_table(ctx, sign, n_max)
            wrong, loose, worst = [], [], 0.0
            for n in range(1, n_max + 1):
                res = rademacher_eval(ctx, sign, n, cfg)
                d = float(res.distance_to_integer.value)
                worst = max(worst, d)
                if res.rounded != table.values[n]:
                    wrong.append(n)
                if d > 0.4:
                    loose.append(n)
            cid = f"rademacher.p{p}.{tag}"
            if wrong:
                checks.append({"id": cid, "status": "fail",
                               "witness": f"misrounded at n={wrong[:5]}"})
            else:
                w = (f"n <= {n_max} all round to the oracle, "
                     f"max distance {worst:.4f}")
                if loose:
                    w += f"; distance > 0.4 at n={loose[:5]}"
                checks.append({"id": cid, "status": "pass", "witness": w})
    return checks


SUITE_RUNNERS = {
    "dedekind": suite_dedekind,
    "charsums": suite_charsums,
    "tau": suite_tau,
    "feq": suite_feq,
    "rademacher": suite_rademacher,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    ctx = make_context(args.p)
    sign = 1 if args.sign == "+" else -1
    table = oracle_table(ctx, sign, args.n_max)
    text = (format_oracle_csv(table) if args.format == "csv"
            else format_oracle_json(table))
    try:
        _emit(args.out, text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_scan(args) -> int:
    sign = 1 if args.sign == "+" else -1
    rows = []
    for p in range(args.p_min, args.p_max + 1):
        if p % 4 != 1 or not _is_prime(p):
            continue
        ctx = make_context(p)
        found = scan_vanishing(ctx, sign, 2 * p, max(2 * p, 50), args.n_max)
        rows.append((p, sorted(found)))
    try:
        _emit(args.out, format_scan_csv(rows))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.monotonic()
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](args.scale))
    elapsed = time.monotonic() - t0

    for c in checks:
        print(f"[{c['status']:>12}] {c['id']}: {c['witness']}")
    counts = {s: sum(1 for c in checks if c["status"] == s)
              for s in ("pass", "fail", "inconclusive")}
    print(f"suite={args.suite} scale={args.scale}: "
          f"{counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['inconclusive']} inconclusive ({elapsed:.1f}s)")

    report = {
        "schema": 1,
        "suite": args.suite,
        "checks": checks,
        "started": started,
        "elapsed": round(elapsed, 3),
        "config": {
            "scale": args.scale,
            "precision": default_precision(),
            "series_primes": list(SERIES_PRIMES),
        },
    }
    try:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.report}: {exc}", file=sys.stderr)
        return 1

    if counts["fail"]:
        return 1
    if counts["inconclusive"]:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legpart",
        description="signed partition tables, verification suites, scans")
    sub = ap.add_subparsers(dest="command", required=True)

    o = sub.add_parser("oracle", help="write an exact coefficient table")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--sign", choices=("+", "-"), required=True)
    o.add_argument("--n-max", type=int, required=True)
    o.add_argument("--format", choices=("csv", "json"), default="csv")
    o.add_argument("--out", default=None, help="output path (default stdout)")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument("--scale", choices=("quick", "full"), default="quick")
    v.add_argument("--report", default="legpart_report.json",
                   help="JSON report path")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="scan primes for vanishing residue classes")
    s.add_argument("--p-min", type=int, required=True)
    s.add_argument("--p-max", type=int, required=True)
    s.add_argument("--sign", choices=("+", "-"), default="+")
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
