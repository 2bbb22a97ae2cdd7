"""Oracle, product, transformation and series-evaluation tests."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from legpart.arith import HPComplex, HPReal
from legpart.context import make_context
from legpart.series import (FEQ_CASES, InconclusiveError, RademacherResult,
                            SeriesEvalConfig, c_sequence, oracle_table,
                            q_pochhammer, q_pochhammer_tail, rademacher_eval,
                            scan_vanishing, sigma_coeffs, theta_products,
                            verify_functional_equation)

C5 = make_context(5)
C13 = make_context(13)
C17 = make_context(17)


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


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_table(C5, 0, 10)
    with pytest.raises(ValueError):
        oracle_table(C5, 1, 0)


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


def test_theta_rejects_outside_disk():
    with pytest.raises(ValueError):
        theta_products(C5, "Phi", HPComplex(mp.mpc(1.01), 64), 50)
    with pytest.raises(ValueError):
        theta_products(C5, "nope", HPComplex(mp.mpc(0.5), 64), 50)


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
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "1", 1, 1, 1, variant="both")


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


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=0, precision=128)
    with pytest.raises(ValueError):
        SeriesEvalConfig(k_max=10, precision=4)
