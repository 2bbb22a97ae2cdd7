"""Oracle, product, transformation and series-evaluation tests."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest
from mpmath import mp

import legpart
from legpart.arith import HPComplex, HPReal, cyclo_to_complex
from legpart.charsums import (_chi_class, _twisted_phases,
                              kloosterman_dagger, kloosterman_L,
                              kloosterman_L_plus)
from legpart.context import make_context
from legpart.series import (FEQ_CASES, THETA_FAMILIES, InconclusiveError,
                            RademacherResult, SeriesEvalConfig, _numeric_sum,
                            _phase_vector, _theta_pairs, c_sequence,
                            oracle_table, q_pochhammer, q_pochhammer_tail,
                            rademacher_eval, scan_vanishing, sigma_coeffs,
                            theta_products, verify_functional_equation)

C5 = make_context(5)
C13 = make_context(13)
C17 = make_context(17)

# the product tests compare against these literal factor lists at p = 29 too
LITERAL_PRIMES = (5, 13, 17, 29)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def brute_signed_count(ctx, sign, n):
    """Sum of the product of sign*chi over the parts, every partition of n.

    Plain recursive enumeration; independent of the convolution oracle.
    """
    def go(remaining, largest):
        if remaining == 0:
            return 1
        total = 0
        for part in range(1, min(remaining, largest) + 1):
            w = sign * ctx.chi[part % ctx.p]
            if w == 0:
                continue
            total += w * go(remaining - part, part)
        return total

    return go(n, n)


def test_oracle_small_values_match_brute_force():
    for ctx in (C5, C13, C17):
        for sign in (1, -1):
            table = oracle_table(ctx, sign, 18)
            for n in range(19):
                assert table.values[n] == brute_signed_count(ctx, sign, n), \
                    (ctx.p, sign, n)


def test_oracle_spec_examples():
    assert oracle_table(C5, 1, 10).values[2] == 0
    assert oracle_table(C5, -1, 10).values[6] == 0
    assert oracle_table(C17, 1, 20).values[17] == 0


def test_oracle_leading_values():
    t = oracle_table(C17, 1, 4)
    assert t.values[0] == 1
    assert t.values[1] == 1          # single part 1, chi_1 = +1
    td = oracle_table(C17, -1, 4)
    assert td.values[1] == -1        # dagger flips the part weight
    assert len(t) == 5


def test_oracle_factor_order_invariance():
    rng = random.Random(60317)
    base = oracle_table(C13, 1, 120)
    for _ in range(3):
        assert oracle_table(C13, 1, 120, rng=rng).values == base.values
    based = oracle_table(C13, -1, 120)
    assert oracle_table(C13, -1, 120, rng=rng).values == based.values


def _literal_oracle_values(ctx, sign, n_max):
    """The oracle with its factor list written out: (1 - sign*chi_a
    x^(a+jp))^(-1) for every exponent a+jp <= n_max, folded in order."""
    p = ctx.p
    factors = []
    for a in range(1, p):
        c = sign * ctx.chi[a]
        base = a
        while base <= n_max:
            factors.append((base, c))
            base += p
    values = [0] * (n_max + 1)
    values[0] = 1
    for base, c in factors:
        for i in range(base, n_max + 1):
            values[i] += c * values[i - base]
    return tuple(values)


@pytest.mark.parametrize("p", LITERAL_PRIMES)
def test_oracle_matches_literal_factor_list(p):
    ctx = make_context(p)
    for sign in (1, -1):
        want = _literal_oracle_values(ctx, sign, 400)
        assert oracle_table(ctx, sign, 400).values == want
        assert oracle_table(ctx, sign, 400, random.Random(p)).values == want


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_table(C5, 0, 10)
    with pytest.raises(ValueError):
        oracle_table(C5, 1, 0)
    # bools and floats are not signs or counts
    for args in ((True, 6), (1.0, 6), (1, True), (-1, 6.0)):
        with pytest.raises(ValueError):
            oracle_table(C5, *args)
        with pytest.raises(ValueError):
            sigma_coeffs(C5, *args)
    with pytest.raises(ValueError):
        sigma_coeffs(C5, 1, False)


def test_scan_vanishing_p5():
    assert scan_vanishing(C5, 1, 10, 1, 2000) == {2}
    assert scan_vanishing(C5, -1, 10, 1, 2000) == {6}


def test_scan_vanishing_p17():
    assert scan_vanishing(C17, 1, 34, 1, 2000) == {17, 19, 25, 27}
    assert scan_vanishing(C17, -1, 34, 1, 2000) == {11, 15, 29, 33}


def test_scan_vanishing_p13_empty():
    assert scan_vanishing(C13, 1, 26, 1, 1500) == set()


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        scan_vanishing(C5, 1, 0, 1, 10)
    with pytest.raises(ValueError):
        scan_vanishing(C5, 1, 10, 5, 4)
    for args in ((True, 1, 10), (10, True, 10), (10, 1, True),
                 (10, 1.0, 10)):
        with pytest.raises(ValueError):
            scan_vanishing(C5, 1, *args)
    with pytest.raises(ValueError):
        scan_vanishing(C5, True, 10, 1, 10)


def test_growth_sanity_p13():
    # p = 13 is 5 mod 8: no vanishing classes, the counts just grow
    table = oracle_table(C13, 1, 2000)
    assert all(table.values[n] != 0 for n in range(100, 2001))


# ---------------------------------------------------------------------------
# sigma coefficients
# ---------------------------------------------------------------------------

def test_sigma_p17_printed_expansion():
    assert sigma_coeffs(C17, 1, 8) == [1, 0, 1, 1, 2, 2, 3, 4, 6]


def test_sigma_constant_term():
    for ctx in (C5, C13, C17):
        for sign in (1, -1):
            assert sigma_coeffs(ctx, sign, 0) == [1]


def test_sigma_matches_numeric_product():
    # the truncated numeric S-products should expand to these integers
    coeffs = sigma_coeffs(C13, -1, 10)
    with mp.workprec(140):
        x = HPComplex(mp.mpc(mp.mpf(1) / 64), 128)
        val = theta_products(C13, "S-", x, 400).value
        approx = sum(c * mp.mpf(64) ** (-m) for m, c in enumerate(coeffs))
        assert abs(val - approx) < mp.mpf(2) ** (-55)


def _literal_sigma_coeffs(ctx, sign, m_max):
    """S^+/S^- with its exponent list written out: 2a and 2p-2a for the
    favoured class, p+2a and p-2a for the other, each stepped by 2p."""
    p = ctx.p
    even_set = ctx.r_set if sign == 1 else ctx.s_set
    odd_set = ctx.s_set if sign == 1 else ctx.r_set
    exps = []
    for a in even_set:
        exps.extend((2 * a, 2 * p - 2 * a))
    for a in odd_set:
        exps.extend((p + 2 * a, p - 2 * a))
    values = [0] * (m_max + 1)
    values[0] = 1
    for e in exps:
        for base in range(e, m_max + 1, 2 * p):
            for i in range(base, m_max + 1):
                values[i] += values[i - base]
    return values


@pytest.mark.parametrize("p", LITERAL_PRIMES)
def test_sigma_matches_literal_exponent_list(p):
    ctx = make_context(p)
    for sign in (1, -1):
        want = _literal_sigma_coeffs(ctx, sign, 400)
        assert sigma_coeffs(ctx, sign, 400) == want


def test_c_sequence_values():
    assert c_sequence(C5) == [Fraction(5, 6)]
    assert c_sequence(C13) == [Fraction(9, 2), Fraction(5, 2), Fraction(1, 2)]
    assert c_sequence(C17) == [Fraction(16, 3), Fraction(10, 3), Fraction(4, 3)]


def test_kappa_consistency_symbolic():
    # (2 pi/k)^2 * c_0 * n~ == (8 pi/(3k))^2 * 3 n~ for the p = 17 weight
    c0 = c_sequence(C17)[0]
    assert Fraction(2) ** 2 * c0 == Fraction(8, 3) ** 2 * 3


# ---------------------------------------------------------------------------
# q-Pochhammer and theta products
# ---------------------------------------------------------------------------

def test_q_pochhammer_z_zero():
    v = q_pochhammer(HPComplex(mp.mpc(0), 64), HPComplex(mp.mpc(0.5), 64), 50)
    assert v.value == 1


def test_q_pochhammer_half():
    v = q_pochhammer(HPComplex(mp.mpc(0.5), 96), HPComplex(mp.mpc(0.5), 96), 300)
    with mp.workprec(120):
        assert abs(v.value - mp.mpf("0.288788095086602421")) < mp.mpf(1e-15)
    # independent float cross-check by direct partial products
    prod, zq = 1.0, 0.5
    for _ in range(60):
        prod *= 1 - zq
        zq *= 0.5
    assert abs(float(v.value.real) - prod) < 1e-12


def test_q_pochhammer_rejects_big_q():
    with pytest.raises(ValueError):
        q_pochhammer(HPComplex(mp.mpc(0.5), 64), HPComplex(mp.mpc(1.0), 64), 10)
    # the product and its tail bound refuse the same truncations
    for truncation in (-1, 2.5, True):
        with pytest.raises(ValueError):
            q_pochhammer(0.1, 0.5, truncation)
        with pytest.raises(ValueError):
            q_pochhammer_tail(0.1, 0.5, truncation)


def test_q_pochhammer_tail_decreases():
    z = HPComplex(mp.mpc(0.7), 64)
    q = HPComplex(mp.mpc(0.6), 64)
    t50 = q_pochhammer_tail(z, q, 50).value
    t100 = q_pochhammer_tail(z, q, 100).value
    assert t100 < t50 < mp.mpf(1)


def test_q_pochhammer_progression_consistency():
    # (x^a; x^p) runs over the exponents a, a+p, a+2p, ...
    with mp.workprec(140):
        x = mp.mpf("0.41")
        a, p, N = 2, 5, 120
        v = q_pochhammer(HPComplex(mp.mpc(x ** a), 128),
                         HPComplex(mp.mpc(x ** p), 128), N).value
        direct = mp.mpf(1)
        for j in range(N):
            direct *= 1 - x ** (a + j * p)
        assert abs(v - direct) < mp.mpf(2) ** (-100)


def test_theta_phi_matches_oracle_coefficients():
    table = oracle_table(C17, 1, 60)
    with mp.workprec(160):
        xv = mp.exp(-2 * mp.pi)
        val = theta_products(C17, "Phi", HPComplex(mp.mpc(xv), 128), 300).value
        approx = mp.mpf(0)
        for n in range(61):
            approx += table.values[n] * xv ** n
        # the comparison floor is the 128-bit carried precision, not the
        # coefficient tail (x^61 is astronomically small here)
        assert abs(val - approx) < mp.mpf(2) ** (-120)


def test_theta_factorization_identities():
    with mp.workprec(160):
        x = HPComplex(mp.mpf("0.3") * mp.expjpi(mp.mpf(1) / 7), 128)
        x2 = HPComplex(x.value ** 2, 128)
        F_r = theta_products(C5, "F_r", x, 300).value
        G_s = theta_products(C5, "G_s", x, 300).value
        Phi = theta_products(C5, "Phi", x, 300).value
        F_s = theta_products(C5, "F_s", x, 300).value
        F_s2 = theta_products(C5, "F_s", x2, 300).value
        assert abs(F_r * G_s - Phi) < mp.mpf(2) ** (-100) * abs(Phi)
        assert abs(G_s - F_s2 / F_s) < mp.mpf(2) ** (-100) * abs(G_s)


def test_theta_dagger_mirror_identity():
    # the dagger generating function is F_r(x^2)/F_r(x) * F_s(x)
    with mp.workprec(160):
        x = HPComplex(mp.mpf("0.25") * mp.expjpi(mp.mpf(2) / 9), 128)
        x2 = HPComplex(x.value ** 2, 128)
        lhs = theta_products(C13, "PhiDagger", x, 300).value
        rhs = (theta_products(C13, "F_r", x2, 300).value
               / theta_products(C13, "F_r", x, 300).value
               * theta_products(C13, "F_s", x, 300).value)
        assert abs(lhs - rhs) < mp.mpf(2) ** (-100) * abs(lhs)


def _literal_theta_pairs(ctx, family, x):
    """Every family's (z, q) pairs written out one by one."""
    p = ctx.p
    pairs = []
    if family in ("Phi", "PhiDagger"):
        flip = 1 if family == "Phi" else -1
        xp = x ** p
        for a in range(1, p):
            pairs.append((flip * ctx.chi[a] * x ** a, xp))
    elif family in ("F_r", "F_s", "G_r", "G_s"):
        members = ctx.r_set if family.endswith("r") else ctx.s_set
        sgn = 1 if family.startswith("F") else -1
        xp = x ** p
        for a in members:
            pairs.append((sgn * x ** a, xp))
            pairs.append((sgn * x ** (p - a), xp))
    elif family in ("R+", "R-"):
        sgn = 1 if family == "R+" else -1
        xp = x ** p
        for a in ctx.r_set:
            pairs.append((sgn * x ** a, xp))
            pairs.append((sgn * x ** (p - a), xp))
        for a in ctx.s_set:
            pairs.append((-sgn * x ** a, xp))
            pairs.append((-sgn * x ** (p - a), xp))
    elif family in ("S+", "S-"):
        x2p = x ** (2 * p)
        even_set = ctx.r_set if family == "S+" else ctx.s_set
        odd_set = ctx.s_set if family == "S+" else ctx.r_set
        for a in even_set:
            pairs.append((x ** (2 * a), x2p))
            pairs.append((x ** (2 * p - 2 * a), x2p))
        for a in odd_set:
            pairs.append((x ** (p + 2 * a), x2p))
            pairs.append((x ** (p - 2 * a), x2p))
    elif family in ("T+", "T-"):
        sgn = 1 if family == "T+" else -1
        for a in ctx.r_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((sgn * w * x, x))
            pairs.append((sgn * mp.conj(w) * x, x))
        for a in ctx.s_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((-sgn * w * x, x))
            pairs.append((-sgn * mp.conj(w) * x, x))
    elif family in ("U+", "U-"):
        x2 = x * x
        sq_set = ctx.r_set if family == "U+" else ctx.s_set
        lin_set = ctx.s_set if family == "U+" else ctx.r_set
        for a in sq_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((w * x2, x2))
            pairs.append((mp.conj(w) * x2, x2))
        for a in lin_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((w * x, x2))
            pairs.append((mp.conj(w) * x, x2))
    return pairs


@pytest.mark.parametrize("p", LITERAL_PRIMES)
def test_theta_pairs_match_literal_definition(p):
    # bit for bit and in order: the products are unchanged whatever the
    # factor table looks like
    ctx = make_context(p)
    for prec in (96, 160):
        with mp.workprec(prec):
            xs = (mp.mpc("0.3", "0.2"),
                  mp.mpf("0.41") * mp.expjpi(mp.mpf(2) / 7))
            for x in xs:
                for family in THETA_FAMILIES:
                    got = _theta_pairs(ctx, family, x)
                    want = _literal_theta_pairs(ctx, family, x)
                    assert len(got) == len(want) > 0, family
                    for (z, q), (z0, q0) in zip(got, want):
                        assert z._mpc_ == z0._mpc_, (prec, family)
                        assert q._mpc_ == q0._mpc_, (prec, family)


def test_theta_rejects_outside_disk():
    with pytest.raises(ValueError):
        theta_products(C5, "Phi", HPComplex(mp.mpc(1.01), 64), 50)
    with pytest.raises(ValueError):
        theta_products(C5, "nope", HPComplex(mp.mpc(0.5), 64), 50)
    for truncation in (0, -1, 2.5, True):
        with pytest.raises(ValueError):
            theta_products(C5, "Phi", HPComplex(mp.mpc(0.5), 64), truncation)


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def test_feq_spec_examples():
    r1 = verify_functional_equation(C17, "1", 1, 1, 1, 200, 128)
    r2 = verify_functional_equation(C5, "2", 1, 2, mp.mpf(3) / 2, 200, 128)
    r3 = verify_functional_equation(C17, "p", 1, 17, 1, 200, 128)
    for r in (r1, r2, r3):
        assert float(r.value) < 1e-9


def test_feq_all_cases_both_variants():
    pts = [
        (C5, "2p", 1, 10, 1), (C17, "2p", 5, 34, mp.mpf("1.2")),
        (C5, "p", 2, 5, 1), (C13, "p", 1, 13, 1), (C17, "p", 3, 17, 1),
        (C5, "2", 3, 4, mp.mpf("0.5")), (C17, "2", 1, 2, mp.mpf("0.6")),
        (C5, "1", 1, 1, mp.mpf("0.8")), (C13, "1", 1, 3, mp.mpf("0.5")),
        (C17, "1", 2, 3, mp.mpf("0.4")),
    ]
    for ctx, case, h, k, z in pts:
        for variant in ("plain", "dagger"):
            r = verify_functional_equation(ctx, case, h, k, z, 200, 128,
                                           variant=variant)
            assert float(r.value) < 1e-9, (ctx.p, case, h, k, variant)


def test_feq_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "odd", 1, 1, 1)
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "1", 2, 4, 1)        # not coprime
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "1", 5, 3, 1)        # h > k
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "2", 1, 3, 1)        # case mismatch
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "1", 1, 1, -1)       # Re z <= 0
    with pytest.raises(ValueError, match=r"variant must be one of "
                       r"\('plain', 'dagger'\), got 'both'"):
        verify_functional_equation(C5, "1", 1, 1, 1, variant="both")
    for prec in (True, 4, 128.0):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, "1", 1, 1, 1, precision=prec)
    for h, k in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, "1", h, k, 1)
    for truncation in (0, 2.5, True):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, "1", 1, 1, 1, truncation)


def test_feq_inconclusive_when_tail_dominates():
    # |x''| = exp(-2 pi/(34*2*2)) ~ 0.955: the tail at truncation 200 swamps
    # a 128-bit comparison, so the check must refuse rather than report
    with pytest.raises(InconclusiveError):
        verify_functional_equation(C17, "2", 1, 2, 2, 200, 128)


def test_feq_case_tags_cover_gcds():
    assert set(FEQ_CASES) == {"2p", "p", "2", "1"}


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_rademacher_pinned_values():
    cfg = SeriesEvalConfig(k_max=60, precision=128)
    r1 = rademacher_eval(C17, 1, 1, cfg)
    assert r1.rounded == 1
    r17 = rademacher_eval(C17, 1, 17, cfg)
    assert r17.rounded == 0
    assert float(r17.distance_to_integer.value) < 1e-30  # exact vanishing
    r11 = rademacher_eval(C17, -1, 11, cfg)
    assert r11.rounded == 0
    assert float(r11.distance_to_integer.value) < 1e-30


def test_rademacher_result_invariant():
    cfg = SeriesEvalConfig(k_max=40, precision=96)
    r = rademacher_eval(C13, 1, 9, cfg)
    assert isinstance(r, RademacherResult)
    with mp.workprec(120):
        assert abs(abs(r.raw.value - r.rounded) - r.distance_to_integer.value) \
            < mp.mpf(2) ** (-80)
    assert float(r.distance_to_integer.value) <= 0.5
    assert r.k_max == 40 and r.n == 9


def test_rademacher_rounds_to_oracle_p17():
    cfg = SeriesEvalConfig(k_max=60, precision=128)
    for sign in (1, -1):
        table = oracle_table(C17, sign, 40)
        for n in range(1, 41):
            r = rademacher_eval(C17, sign, n, cfg)
            assert r.rounded == table.values[n], (sign, n)
            assert float(r.distance_to_integer.value) < 0.5


def test_rademacher_rounds_to_oracle_small_primes():
    cfg = SeriesEvalConfig(k_max=40, precision=128)
    for ctx in (C5, C13):
        for sign in (1, -1):
            table = oracle_table(ctx, sign, 25)
            for n in range(1, 26):
                r = rademacher_eval(ctx, sign, n, cfg)
                assert r.rounded == table.values[n], (ctx.p, sign, n)


def test_rademacher_rejects_out_of_scope():
    cfg = SeriesEvalConfig(k_max=10, precision=64)
    with pytest.raises(ValueError):
        rademacher_eval(make_context(29), 1, 5, cfg)
    with pytest.raises(ValueError):
        rademacher_eval(C17, 1, 0, cfg)
    with pytest.raises(ValueError):
        rademacher_eval(C17, 2, 5, cfg)
    for sign in (True, 1.0, mp.mpf(1)):
        with pytest.raises(ValueError, match="sign"):
            rademacher_eval(C17, sign, 5, cfg)
    for n in (True, False):
        with pytest.raises(ValueError):
            rademacher_eval(C17, 1, n, cfg)


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=0, precision=128)
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=10, precision=4)
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=True, precision=128)
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=10, precision=True)


def test_numeric_sums_match_exact_sums():
    # the fixed-point sums rademacher_eval uses, against the exact
    # cyclotomic sums converted by cyclo_to_complex, over a full residue
    # system of n: L for odd and even k prime to p, L_plus and
    # L_dagger_minus at odd multiples of p for every m with sigma_m != 0
    wp = 160
    with mp.workprec(wp):
        tol_abs = mp.mpf(2) ** -(wp + 12)
        tol_rel = mp.mpf(2) ** (1 - wp)
    checked = 0
    for ctx in (C5, C13, C17):
        p = ctx.p
        cms = c_sequence(ctx)
        sig = sigma_coeffs(ctx, 1, len(cms) - 1)
        cases = []
        for k in (1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 16, 20, 30):
            if k % p == 0:
                continue
            for n in range(k):
                cases.append((k, n, 0, "plain", None,
                              kloosterman_L(ctx, k, n, "plain")))
                cases.append((k, n, 0, "dagger", None,
                              kloosterman_dagger(ctx, k, n)))
        for K in (p, 3 * p):
            for m in range(len(cms)):
                if sig[m] == 0:
                    continue
                for n in range(K):
                    cases.append((K, n, m, "plain", 1,
                                  kloosterman_L_plus(ctx, K, n, m)))
                    cases.append((K, n, m, "dagger", -1,
                                  kloosterman_dagger(ctx, K, n, m)))
        for k, n, m, variant, cls, exact in cases:
            got = _numeric_sum(ctx, k, n, m, variant, cls, wp)
            want = cyclo_to_complex(exact.sum, wp).value
            with mp.workprec(wp):
                assert abs(got - want) <= tol_abs + tol_rel * abs(want), \
                    (p, exact.kind, k, n, m)
            checked += 1
    assert checked > 1000


def test_numeric_sums_are_real():
    # chi(-1) = 1 at these primes, so -h mod k is a unit of the same class
    # as h; its phase is the negated one, so z_(-h) = conj(z_h) and each
    # sum L(k, n) is real: its imaginary part stays inside the error budget
    # 2^-(wp+14) of _numeric_sum.  k < 40 prime to p, and K = p, 3p, 5p for
    # every m with sigma_m != 0, in the classes the series sums over
    wp = 160
    with mp.workprec(wp):
        budget = mp.mpf(2) ** -(wp + 14)
    for ctx in (C5, C13, C17):
        p = ctx.p
        cms = c_sequence(ctx)
        sig = sigma_coeffs(ctx, 1, len(cms) - 1)
        cases = [(k, 0, variant, None) for k in range(1, 40) if k % p
                 for variant in ("plain", "dagger")]
        cases += [(K, m, variant, cls) for K in (p, 3 * p, 5 * p)
                  for m in range(len(cms)) if sig[m]
                  for variant, cls in (("plain", 1), ("dagger", -1))]
        for k, m, variant, cls in cases:
            residues = None if cls is None else _chi_class(ctx, cls)
            phases = dict(_twisted_phases(p, variant, k, m, residues))
            _, hs, zre, zim = _phase_vector(p, k, variant, m, cls, wp)
            assert list(hs) == list(phases)
            at = {h: i for i, h in enumerate(hs)}
            for i, h in enumerate(hs):
                j = at[-h % k]
                assert phases[hs[j]] == -phases[h] % 2, (p, k, m, variant, h)
                # each fixed-point value is within 2^0.1 units of the truth
                assert abs(zre[j] - zre[i]) <= 2 and abs(zim[j] + zim[i]) <= 2
            for n in range(k):
                got = _numeric_sum(ctx, k, n, m, variant, cls, wp)
                assert abs(got.imag) <= budget, (p, k, n, m, variant)


def test_series_path_caches_are_bounded():
    # every legpart module, so that a cache added anywhere is held to a bound
    found = set()
    for info in pkgutil.iter_modules(legpart.__path__):
        mod = importlib.import_module(f"legpart.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_parameters")
                    and obj.__module__ == mod.__name__):
                maxsize = obj.cache_parameters()["maxsize"]
                assert type(maxsize) is int and maxsize > 0, name
                found.add(name)
    assert {"_phase_vector", "_root_table", "_weight", "_lambda_parts",
            "_s_chi_weights", "make_context", "_prime_factors"} <= found
