"""Verification suites behind `legpart verify`.

Each suite takes a scale ("quick" or "full") and returns a list of check
dicts {"id", "status", "witness"}, with status one of pass, fail or
inconclusive.  Most checks are count grids: a predicate run over a fixed
sequence of case tuples, summarised by _grid.  SUITE_RUNNERS maps suite names
to suites in the order `--suite all` runs them.
"""

import math
from fractions import Fraction

from .arith import cyclo_add, cyclo_is_zero, cyclo_neg, cyclo_to_complex
from .charsums import (VARIANTS, check_congruence_mod16,
                       check_congruence_modThK, kloosterman_L,
                       kloosterman_L_nmd, kloosterman_L_plus,
                       kloosterman_dagger, lambda_exponent, phi_root,
                       verify_tau_table)
from .context import make_context
from .dedekind import (dedekind_s, dedekind_s_chi, dedekind_s_tilde,
                       dedekind_t_chi, lattice_floor_sum,
                       verify_reciprocity_classical, verify_reciprocity_chi)
from .series import (SERIES_PRIMES, InconclusiveError, SeriesEvalConfig,
                     oracle_table, rademacher_eval, verify_functional_equation)


def _grid(cid: str, cases, ok, note: str = "") -> dict:
    """Call ok(*case) on every case tuple, in order, and report one check.

    A failing check shows how many cases failed and the first three of
    them; a one-element case is shown as its element.
    """
    total, fails = 0, []
    for case in cases:
        total += 1
        if not ok(*case):
            fails.append(case[0] if len(case) == 1 else case)
    if fails:
        shown = "; ".join(str(f) for f in fails[:3])
        return {"id": cid, "status": "fail",
                "witness": f"{len(fails)}/{total} cases failed: {shown}"}
    witness = f"{total} cases"
    if note:
        witness += f" ({note})"
    return {"id": cid, "status": "pass", "witness": witness}


def _bound(scale: str, full_value: int) -> int:
    return full_value if scale == "full" else max(1, full_value // 2)


def _units_upto(k: int, top: int):
    """1 <= h <= top with h coprime to k."""
    return (h for h in range(1, top + 1) if math.gcd(h, k) == 1)


def suite_dedekind(scale: str) -> list:
    # cases name the prime, not its context, so a failure prints p first
    ctxs = {p: make_context(p) for p in SERIES_PRIMES}

    def scaling(p, q, h, k):
        ctx = ctxs[p]
        return (dedekind_s(q * h, q * k) == dedekind_s(h, k)
                and dedekind_s_chi(ctx, q * h, q * k)
                == dedekind_s_chi(ctx, h, k)
                and dedekind_t_chi(ctx, q * h, q * k)
                == q * dedekind_t_chi(ctx, h, k))

    def linkage(p, h, k):
        ctx = ctxs[p]
        return (dedekind_s_chi(ctx, h, k)
                == Fraction(h, k) * ctx.b2
                - Fraction(1, k) * dedekind_t_chi(ctx, h, k))

    # parity of the integer-valued sum: p = 13 and 17 only -- at p = 5 the
    # value is generally non-integral and the law is replaced by the
    # residue form tested below
    def parity(p, a, b):
        v = dedekind_s_tilde(ctxs[p], a, b)
        want = 0 if ctxs[p].chi[a % p] == 1 else 1
        return v.denominator == 1 and int(v) % 2 == want

    # y is carried as text, which is how a failing case prints it
    def residue_law(p, a, y):
        got = lattice_floor_sum(ctxs[p], a, Fraction(y)) % p
        return got == (-pow(a, -1, p) * int(p * ctxs[p].b2 / 2)) % p

    return [
        _grid("dedekind.reciprocity.classical",
              ((h, k) for k in range(1, _bound(scale, 40) + 1)
               for h in _units_upto(k, k)),
              verify_reciprocity_classical),
        _grid("dedekind.reciprocity.chi",
              ((p, h, k) for p in ctxs for k in range(1, _bound(scale, 30) + 1)
               for h in _units_upto(k, _bound(scale, 14)) if h >= 2),
              lambda p, h, k: verify_reciprocity_chi(ctxs[p], h, k),
              note="both modulus shapes"),
        _grid("dedekind.scaling",
              ((p, q, h, k) for p in ctxs for q in (2, 3, 5)
               for k in range(1, _bound(scale, 40) + 1)
               for h in _units_upto(k, k)),
              scaling),
        _grid("dedekind.linkage.chi",
              ((p, h, k) for p in ctxs for k in range(1, _bound(scale, 40) + 1)
               for h in range(1, k + 9)),
              linkage),
        _grid("dedekind.parity.s_tilde",
              ((p, a, b) for p in ctxs if p != 5
               for b in range(2, _bound(scale, 31) + 1)
               for a in _units_upto(b, _bound(scale, 50)) if a % p != 0),
              parity, note="p in {13,17}; p=5 uses the residue law"),
        _grid("dedekind.residue_law.S",
              ((p, a, y) for p in ctxs for a in range(1, _bound(scale, 20) + 1)
               if a % p != 0 for y in ("0", "1/2", "1/7", "3/7", "5/7")),
              residue_law),
    ]


def suite_charsums(scale: str) -> list:
    ctxs = {p: make_context(p) for p in SERIES_PRIMES}
    c17 = ctxs[17]

    def routes(p, h, k, variant):
        a = phi_root(ctxs[p], h, k, variant)
        b = lambda_exponent(ctxs[p], h, k, variant)
        return (a - b) % 2 == 0

    def doubling(variant, k, n):
        a = kloosterman_L(c17, 2 * k, n, variant=variant)
        b = kloosterman_L(c17, k, n, variant=variant)
        want = b if n % 2 == 0 else cyclo_neg(b)
        return cyclo_is_zero(cyclo_add(a, cyclo_neg(want)))

    # one sample of each kind, so a failure prints the kind alone
    samples = {
        "L": kloosterman_L(c17, 15, 7),
        "L_dagger": kloosterman_L(ctxs[13], 9, 2, variant="dagger"),
        "L_plus": kloosterman_L_plus(c17, 51, 5, 1),
        "L_nmd": kloosterman_L_nmd(c17, 34, 3, 1, 4),
        "L_dagger_minus": kloosterman_dagger(c17, 51, 3, 1),
    }

    def trivial_bound(kind):
        s = samples[kind]
        return abs(complex(cyclo_to_complex(s, 96).value)) <= s.weight() + 1e-9

    Ks = (17, 51, 85, 119) if scale == "full" else (17, 51)
    # both congruence checks run over the same grid
    congruence_cases = [
        (p, h, K, variant) for p in ctxs
        for K in range(p, _bound(scale, 20) * p + 1, 2 * p)
        for h in _units_upto(K, K - 1) for variant in VARIANTS]
    return [
        _grid("charsums.phase.routes",
              ((p, h, k, variant) for p in ctxs
               for k in range(1, 31, 1 if scale == "full" else 3)
               for h in _units_upto(k, k) for variant in VARIANTS),
              routes),
        _grid("charsums.L.doubling",
              ((variant, k, n) for variant in VARIANTS
               for k in range(1, _bound(scale, 25) + 1, 2) if k % 17 != 0
               for n in range(1, _bound(scale, 12) + 1)),
              doubling),
        _grid("charsums.L.quadrupling",
              ((variant, k4, n) for variant in VARIANTS
               for k4 in range(4, _bound(scale, 48) + 1, 4) if k4 % 17 != 0
               for n in range(1, 12, 2)),
              lambda variant, k4, n: cyclo_is_zero(
                  kloosterman_L(c17, k4, n, variant=variant))),
        _grid("charsums.L_plus.vanishing",
              ((K, n, m) for K in Ks for n in (0, 2, 8, 10) for m in (0, 2)),
              lambda K, n, m: cyclo_is_zero(kloosterman_L_plus(c17, K, n, m))),
        _grid("charsums.L_dagger.vanishing",
              ((K, n, m) for K in Ks for n in (11, 12, 15, 16)
               for m in (0, 2)),
              lambda K, n, m: cyclo_is_zero(kloosterman_dagger(c17, K, n, m))),
        _grid("charsums.L.trivial_bound", ((kind,) for kind in samples),
              trivial_bound),
        _grid("charsums.congruence.mod16", congruence_cases,
              lambda p, h, K, variant:
                  check_congruence_mod16(ctxs[p], h, K, variant)),
        _grid("charsums.congruence.modThK", congruence_cases,
              lambda p, h, K, variant:
                  check_congruence_modThK(ctxs[p], h, K, variant)),
    ]


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


# functional-equation sample points (p, h, k, z) under the tag of
# gcd(k, 2p); every gcd class, chosen so both series arguments stay well
# inside the unit disk
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
            for variant in VARIANTS:
                cid = f"feq.case{case}.p{p}.h{h}.k{k}.{variant}"
                try:
                    res = verify_functional_equation(
                        ctx, h, k, z, truncation=200, precision=128,
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
