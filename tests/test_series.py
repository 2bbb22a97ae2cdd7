"""Oracle, product, transformation and series-evaluation tests."""

import ast
import hashlib
import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp
from mpmath.libmp import (from_man_exp, from_rational, fzero, mpf_add,
                         mpf_cos_sin_pi, to_fixed)

import legpart
from legpart import series
from legpart.arith import (HPComplex, HPReal, _bessel_i1_mpf, bessel_i1,
                           cyclo_to_complex)
from legpart.charsums import (_chi_class, _twisted_phases,
                              kloosterman_dagger, kloosterman_L,
                              kloosterman_L_plus)
from legpart.context import make_context
from legpart.dedekind import dedekind_s_chi, dedekind_t_chi
from legpart.series import (THETA_FAMILIES, InconclusiveError,
                            RademacherResult, SeriesEvalConfig,
                            SignedPartitionTable, _factors,
                            _fixed_cis, _jacobi_terms, _mpf_add,
                            _numeric_sum, _phase_vector, _poch_partial,
                            _poch_tail_bound, _root_table, _series_row,
                            _series_terms, _term_moduli, _theta_pairs,
                            _theta_product, _theta_quotient, c_sequence,
                            oracle_table, q_pochhammer, q_pochhammer_tail,
                            rademacher_eval, scan_vanishing, sigma_coeffs,
                            theta_products, verify_functional_equation)
from legpart import verify

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


def _fold(factors, n_max):
    """Coefficients of x^0..x^n_max of the product over a factor table,
    folded literally: one geometric factor (1 - c*x^base)^(-1) at a time
    into a dense array, n_max - base + 1 big-int additions per factor."""
    terms = [(base, c) for c, first, step in factors
             for base in range(first, n_max + 1, step)]
    values = [0] * (n_max + 1)
    values[0] = 1
    for base, c in terms:
        # values *= (1 - c x^base)^(-1), i.e. w[i] = v[i] + c*w[i-base]
        for i in range(base, n_max + 1):
            values[i] += c * values[i - base]
    return values


ORACLE_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_oracle_matches_literal_factor_list(p):
    """The theta quotient equals the literal fold at every n_max in 1..79,
    at 400 and at 500, in the given and a shuffled order; the fold of the
    factor table agrees at 500."""
    ctx = make_context(p)
    for sign in (1, -1):
        for n_max in list(range(1, 80)) + [400, 500]:
            want = _literal_oracle_values(ctx, sign, n_max)
            assert oracle_table(ctx, sign, n_max).values == want
            assert (oracle_table(ctx, sign, n_max, random.Random(n_max))
                    .values == want), (p, sign, n_max)
        family = "Phi" if sign == 1 else "PhiDagger"
        assert tuple(_fold(_factors(ctx, family), 500)) == want


# the +-1 families of _factors: every one a product over paired classes
PAIRED_FAMILIES = ("Phi", "PhiDagger", "F_r", "F_s", "G_r", "G_s",
                   "R+", "R-", "S+", "S-")


@pytest.mark.parametrize("p", (5, 13, 17, 29, 37, 41))
def test_theta_quotient_matches_fold_for_every_family(p):
    """Each +-1 factor table has one step M and pairs (c, a, M) with
    (c, M - a, M), and its theta quotient equals its fold at every n_max
    in 0..59 and at 300."""
    ctx = make_context(p)
    for family in PAIRED_FAMILIES:
        table = _factors(ctx, family)
        (M,) = {step for _, _, step in table}
        assert all(0 < a < M and 2 * a != M for _, a, _ in table), family
        assert (sorted((c, a) for c, a, _ in table)
                == sorted((c, M - a) for c, a, _ in table)), family
        for n_max in list(range(60)) + [300]:
            assert (_theta_quotient(table, n_max)
                    == _fold(table, n_max)), (p, family, n_max)


def _literal_divide(values, terms, n_max):
    """w[i] = v[i] - sum c*w[i-e] over the terms with e <= i, index by
    index."""
    w = list(values)
    for i in range(n_max + 1):
        w[i] = values[i] - sum(c * w[i - e] for e, c in terms if e <= i)
    return w


def test_divide_matches_literal_recurrence():
    """_divide equals the literal recurrence on seeded big-int vectors, for
    hand-picked and seeded sparse term lists on both sides of _SLICE, with
    one to many far terms of each sign in reach of a block."""
    rng = random.Random(25)
    S = series._SLICE
    cases = [
        (1, [(1, 1)]), (1, [(1, -1)]),                  # n_max = 1
        (S + 2, [(1, 1), (S - 1, -1), (S + 4, 1)]),     # below the first far e
        (S + 3, [(1, -1), (S, 1)]),                     # one far term
        (300, [(1, 1), (S - 1, -1)]),                   # near terms only
        (300, [(3, -1)]), (300, [(S + 9, 1)]),          # a single term
        # S+5 and 2S+2 fall inside S-wide blocks from 1, so blocks end there
        (200, [(1, 1), (S, -1), (S + 5, 1), (2 * S + 2, -1)]),
        (400, [(4, 1), (S, -1), (S + 1, -1), (3 * S, -1)]),   # add-only far
        (400, [(4, -1), (S + 2, 1), (2 * S, 1), (5 * S, 1)]), # sub-only far
        # mixed: one sign passes per slice while the other is summed
        (500, [(1, 1), (S, -1), (S + 3, 1), (2 * S, -1), (3 * S, -1),
               (4 * S + 1, 1)]),
    ]
    # three or more near terms, with n_max below, at and just past the last
    # near exponent, where the entries before it run the literal recurrence
    for near in ([(2, 1), (3, -1), (5, 1)],
                 [(1, -1), (2, 1), (4, 1), (S - 1, -1)],
                 [(e, (-1) ** e) for e in range(1, S)]):
        last = near[-1][0]
        for n_max in (near[0][0] - 1, last - 1, last, last + 1, S + 6, 300):
            if n_max >= 1:
                cases.append((n_max, near))
                cases.append((n_max, near + [(S + 1, 1), (2 * S + 3, -1)]))
    for _ in range(120):
        n_max = rng.randrange(1, 601)
        count = rng.randrange(1, min(n_max, 40) + 1)
        es = sorted(rng.sample(range(1, n_max + 1), count))
        signs = rng.choice(((1,), (-1,), (1, -1)))
        cases.append((n_max, [(e, rng.choice(signs)) for e in es]))
    for n_max, terms in cases:
        values = [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(n_max + 1)]
        want = _literal_divide(values, terms, n_max)
        series._divide(values, terms, n_max)
        assert values == want, (n_max, terms)


def _literal_product(factors, n_max):
    """prod (1 + c*x^e) over the (e, c) in factors, expanded term by term
    up to x^n_max."""
    poly = [1] + [0] * n_max
    for e, c in factors:
        for i in range(n_max, e - 1, -1):
            poly[i] += c * poly[i - e]
    return poly


def _series_of(terms, n_max, scale=1):
    """1 + sum c*x^(scale*e) over terms, as a dense list up to x^n_max."""
    poly = [1] + [0] * n_max
    for e, c in terms:
        if scale * e <= n_max:
            poly[scale * e] += c
    return poly


@pytest.mark.parametrize("p", (5, 13, 17))
def test_jacobi_terms_match_literal_triple_products(p):
    n_max = 200
    for a in range(1, p):
        for signed, c in ((True, -1), (False, 1)):
            factors = [f for j in range(n_max // p + 1)
                       for f in ((p * j + a, c), (p * (j + 1) - a, c),
                                 (p * (j + 1), -1))]
            assert (_series_of(_jacobi_terms(p, a, signed, n_max), n_max)
                    == _literal_product(factors, n_max)), (p, a, signed)


@pytest.mark.parametrize("p", (5, 13, 17))
def test_euler_terms_match_literal_product(p):
    # J_1^- at modulus 3 is Euler's series (y; y)_inf, which _theta_quotient
    # reads in y = x^p: the literal product of (1 - x^(p(j+1)))
    n_max = 200
    factors = [(p * (j + 1), -1) for j in range(n_max // p)]
    assert (_series_of(_jacobi_terms(3, 1, True, n_max // p), n_max, p)
            == _literal_product(factors, n_max))


@pytest.mark.parametrize("p", (1009, 10009))
def test_oracle_large_prime_matches_literal_factor_list(p):
    ctx = make_context(p)
    for sign in (1, -1):
        for n_max in (1, 50, 2000):
            want = _literal_oracle_values(ctx, sign, n_max)
            assert oracle_table(ctx, sign, n_max).values == want
            assert (oracle_table(ctx, sign, n_max, random.Random(p)).values
                    == want)
        family = "Phi" if sign == 1 else "PhiDagger"
        assert tuple(_fold(_factors(ctx, family), 2000)) == want


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
    # rng is None or a random.Random, checked before any work
    for rng in (5, "abc", random):
        with pytest.raises(ValueError, match="rng"):
            oracle_table(C5, 1, 10, rng)


def test_scan_vanishing_p5():
    assert scan_vanishing(C5, 1, 10, 1, 2000) == {2}
    assert scan_vanishing(C5, -1, 10, 1, 2000) == {6}


def test_scan_vanishing_p17():
    assert scan_vanishing(C17, 1, 34, 1, 2000) == {17, 19, 25, 27}
    assert scan_vanishing(C17, -1, 34, 1, 2000) == {11, 15, 29, 33}


def test_scan_vanishing_p13_empty():
    assert scan_vanishing(C13, 1, 26, 1, 1500) == set()


def _literal_scan(ctx, sign, modulus, n_min, n_max):
    """The scan as one pass over the whole table to n_max: no probe."""
    values = series.oracle_table(ctx, sign, n_max).values
    seen = [False] * modulus
    alive = [True] * modulus
    for n in range(n_min, n_max + 1):
        r = n % modulus
        seen[r] = True
        if values[n] != 0:
            alive[r] = False
    return {r for r in range(modulus) if seen[r] and alive[r]}


def test_scan_vanishing_matches_literal_scan():
    for p in LITERAL_PRIMES:
        ctx = make_context(p)
        for sign in (1, -1):
            for modulus in (1, 2, 7, p, 2 * p, 4 * p):
                for n_min, n_max in ((1, 10), (900, 1000), (3, 2000),
                                     (50, 1000)):
                    args = (ctx, sign, modulus, n_min, n_max)
                    assert scan_vanishing(*args) == _literal_scan(*args), args


def _count_tables(monkeypatch, build=oracle_table):
    """The n_max of every oracle table scan_vanishing builds, in order."""
    calls = []

    def counted(ctx, sign, n_max):
        calls.append(n_max)
        return build(ctx, sign, n_max)

    monkeypatch.setattr(series, "oracle_table", counted)
    return calls


def test_scan_vanishing_probe_settles_empty_scans(monkeypatch):
    # every class mod 26 of p = 13 dies by n = 75, inside the probe to
    # 5000 // 16 = 312, so the 5000 table is never built; p = 17 keeps
    # four classes alive there and needs the full table
    calls = _count_tables(monkeypatch)
    assert scan_vanishing(C13, 1, 26, 50, 5000) == set()
    assert calls == [312]
    calls.clear()
    assert scan_vanishing(C17, 1, 34, 50, 5000) == {17, 19, 25, 27}
    assert calls == [312, 5000]
    # a probe to 909 would cost more than an eighth of the 1000 table
    calls.clear()
    assert scan_vanishing(C5, 1, 10, 900, 1000) == {2}
    assert calls == [1000]


def test_scan_vanishing_falls_through_past_the_probe(monkeypatch):
    # class 0 mod 3 is zero through the probe to 160 // 16 = 10 and dies
    # at n = 150, so only the full table rules it out
    values = [0 if n % 3 == 0 and n != 150 else 1 for n in range(161)]

    def stub(ctx, sign, n_max):
        return SignedPartitionTable(ctx.p, sign, tuple(values[:n_max + 1]))

    calls = _count_tables(monkeypatch, stub)
    assert scan_vanishing(C5, 1, 3, 1, 160) == set()
    assert calls == [10, 160]
    assert _literal_scan(C5, 1, 3, 1, 160) == set()
    assert _literal_scan(C5, 1, 3, 1, 149) == {0}


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
    # the series reads m_max in {0, 2}, where the theta quotient skips its
    # numerator and the J_a with a > m_max
    ctx = make_context(p)
    for sign in (1, -1):
        for m_max in list(range(81)) + [400]:
            want = _literal_sigma_coeffs(ctx, sign, m_max)
            assert sigma_coeffs(ctx, sign, m_max) == want, (p, sign, m_max)


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


def _literal_poch(z, q, truncation):
    """prod_{j<N} (1 - z q^j) by the mpc-object loop, at mp's precision."""
    val = mp.mpc(1)
    zq = mp.mpc(z)
    for _ in range(truncation):
        val *= (1 - zq)
        zq *= q
    return val


def test_poch_kernel_matches_literal_loop():
    # every bit of both products of the libmpc kernel against the literal
    # loop at z and -z, and the one tail bound the two share
    for prec in (96, 176, 240):
        with mp.workprec(prec):
            x = mp.mpf("0.41") * mp.expjpi(mp.mpf(2) / 7)
            cases = [(x ** 3, x ** 17), (mp.mpc("0.3", "0.2"), x),
                     (mp.mpc("0.5"), mp.mpc("0.5")), (mp.mpc(0), x),
                     (mp.mpc("-0.9", "0.4"), mp.mpc("0.2", "-0.7"))]
            for z, q in cases:
                for truncation in (0, 1, 37, 200):
                    want = _literal_poch(z, q, truncation)
                    mirror = _literal_poch(-z, q, truncation)
                    assert (_poch_tail_bound(-z, q, truncation)
                            == _poch_tail_bound(z, q, truncation))
                    one, none = _poch_partial(z, q, truncation)
                    got, twin = _poch_partial(z, q, truncation, True)
                    assert none is None
                    assert one._mpc_ == got._mpc_ == want._mpc_, (prec, z)
                    assert twin._mpc_ == mirror._mpc_, (prec, z)


def test_poch_kernel_matches_literal_loop_on_seeded_grid():
    # z = 0, real, imaginary and complex z, real and complex q, at and
    # around the precisions the FEQ products run at
    rng = random.Random(20)
    for prec in (53, 96, 176, 200, 240, 400):
        with mp.workprec(prec):
            def u():
                return mp.mpf(rng.uniform(-1, 1))
            zs = [mp.mpc(0), mp.mpc(u()), mp.mpc(0, u()), mp.mpc(u(), u()),
                  mp.mpc(u(), u()) * mp.mpf(2) ** -rng.randint(10, 40)]
            r = rng.uniform(0.05, 0.9)
            qs = [mp.mpc(r), mp.mpc(-r), mp.mpc(r * mp.expjpi(u()))]
            for z in zs:
                for q in qs:
                    for n in (0, 1, 37, 200):
                        got, twin = _poch_partial(z, q, n, True)
                        want = _literal_poch(z, q, n)
                        assert got._mpc_ == want._mpc_, (prec, z, q, n)
                        mirror = _literal_poch(-z, q, n)
                        assert twin._mpc_ == mirror._mpc_, (prec, z, q, n)


def test_poch_kernel_mirrors_far_operand_add():
    # at 176 bits this product meets mpf_add's far-operand branch, whose
    # result a correctly rounded add misses in the last bit
    with mp.workprec(176):
        z, q = mp.mpc("0.5"), mp.mpc("-0.04", "-0.035")
        got, twin = _poch_partial(z, q, 200, True)
        assert got._mpc_ == _literal_poch(z, q, 200)._mpc_
        assert twin._mpc_ == _literal_poch(-z, q, 200)._mpc_


def _mpf_add_calls(run) -> int:
    """How many _mpf_add calls run() makes."""
    calls = 0
    add = series._mpf_add

    def counted(*args):
        nonlocal calls
        calls += 1
        return add(*args)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(series, "_mpf_add", counted)
        run()
    return calls


def _poch_steps(z, q, truncation):
    """Factor steps _poch_partial(z, q, truncation, True) runs before it
    stops: one _mpf_add rounds the first imaginary part, eight make a step."""
    steps, first = divmod(
        _mpf_add_calls(lambda: _poch_partial(z, q, truncation, True)) - 1, 8)
    assert first == 0 and steps <= truncation
    return steps


def _assert_poch_stop_exact(z, q, truncation=200):
    """The kernel against the literal loop at z and -z at the truncation
    and around the step s it stops at, so a stop one factor early fails;
    returns s."""
    s = _poch_steps(z, q, truncation)
    for n in {max(s - 1, 0), s, s + 1, truncation}:
        got, twin = _poch_partial(z, q, n, True)
        assert got._mpc_ == _literal_poch(z, q, n)._mpc_, (mp.prec, z, q, n)
        assert twin._mpc_ == _literal_poch(-z, q, n)._mpc_, (mp.prec, z, q, n)
    return s


def test_poch_kernel_matches_literal_loop_on_feq_chains(monkeypatch):
    # every (z, q) chain the p = 17 feq points build, on both sides: the
    # families and base points are read off verify_functional_equation
    # itself, at the precision it runs them at
    seen = []

    def recorded(ctx, family, x, truncation):
        seen.append((ctx, series._BASE.get(family, family), x, mp.prec))
        return theta_value(ctx, family, x, truncation)

    theta_value = series._theta_value
    monkeypatch.setattr(series, "_theta_value", recorded)
    _theta_product.cache_clear()
    for points in verify.FEQ_POINTS.values():
        for p, h, k, z in points:
            if p == 17:
                for variant in ("plain", "dagger"):
                    verify_functional_equation(C17, h, k, Fraction(z), 200,
                                               128, variant=variant)
    chains, stops = {}, []
    for ctx, family, x, prec in seen:
        with mp.workprec(prec):
            for z, q in _theta_pairs(ctx, family, x):
                chains[z._mpc_, q._mpc_, prec] = z, q
    assert len(chains) == 160      # the kernel calls these four points make
    for (*_, prec), (z, q) in chains.items():
        with mp.workprec(prec):
            stops.append(_assert_poch_stop_exact(z, q))
    assert 0 < sum(s < 200 for s in stops) < len(stops)


def test_poch_stop_fires_where_pinned():
    # the full feq suite's _mpf_add count (435,520 without the stop), and
    # the stop step of fixed chains: z q^s = 2^-(2s+1) has t = -2s, first
    # below -(176 + 5) at s = 91, and a part of q at 1/2 never stops
    _theta_product.cache_clear()
    assert _mpf_add_calls(lambda: verify.suite_feq("full")) == 145_245
    with mp.workprec(176):
        assert _poch_steps(mp.mpc("0.5"), mp.mpc("0.25"), 200) == 91
        assert _poch_steps(mp.mpc("0.5"), mp.mpc("0.5"), 200) == 200


def test_poch_stop_edge_chains_match_literal_loop():
    for prec in (53, 176, 240):
        with mp.workprec(prec):
            tiny = mp.mpf(2) ** -300
            cq = mp.mpc("0.3", "0.2")
            # a zero chain settles at once, whatever q
            for q in (mp.mpc("0.3"), cq, mp.mpc("0.55", "0.5")):
                assert _assert_poch_stop_exact(mp.mpc(0), q) == 1
            # a real chain, and a real z whose product starts real while
            # q turns the chain complex: that zero part has not settled
            assert _assert_poch_stop_exact(mp.mpc("0.7"), mp.mpc("-0.3")) < 200
            assert _assert_poch_stop_exact(mp.mpc(tiny), cq) > 1
            # |q| = 0.6 and 0.99 with a part >= 1/2 run every factor
            for q in (mp.mpc("0.6"), mp.mpc("0.7", "0.7"),
                      mp.mpc("-0.3", "0.55")):
                for z in (mp.mpc("0.4", "0.1"), mp.mpc(tiny, tiny)):
                    assert _assert_poch_stop_exact(z, q, 120) == 120
            # after the first factor the imaginary part of 1 - z has t = -1
            # and its cross term 1 * z q, q = 2^-(d+1), has t = -d - 1: it
            # sits d bits below, and the stop needs d > prec + 5
            z = mp.mpc(mp.ldexp(mp.mpf("0.3"), -prec - 20), "0.3")
            for d, steps in ((prec + 4, 2), (prec + 5, 2), (prec + 6, 1)):
                q = mp.mpc(mp.ldexp(1, -d - 1))
                assert _assert_poch_stop_exact(z, q) == steps, (prec, d)


def test_mpf_add_matches_libmpf():
    # exact products (wider than prec) and rounded values, near and far
    # apart, against mpf_add itself
    rng = random.Random(21)
    for _ in range(3000):
        prec = rng.choice((53, 96, 176, 240))
        a, b = (rng.choice((-1, 1)) * (rng.getrandbits(rng.choice(
            (1, prec, 2 * prec))) | 1) for _ in "ab")
        ae = rng.randint(-400, 0)
        be = ae + rng.choice((0, 1, -1, 99, 100, 101, -101, 150, -300))
        if rng.random() < 0.05:
            a = 0
        want = mpf_add(from_man_exp(a, ae), from_man_exp(b, be), prec, "n")
        m, e = _mpf_add(a, ae, b, be, prec)
        assert from_man_exp(m, e) == want, (prec, a, ae, b, be)
        assert m % 2 or m == 0
    # the far branch rounds this exact product up, though the exact sum
    # lies below the half-way point
    a, b = (1 << 200) | (1 << 147) | 1, -((1 << 102) + 1)
    got = from_man_exp(*_mpf_add(a, 0, b, -101, 53))
    assert got == mpf_add(from_man_exp(a, 0), from_man_exp(b, -101), 53, "n")
    assert got != from_man_exp((a << 101) + b, -101, 53, "n")
    # the branch reads exponents, so sums come back stripped: 2^53 as
    # (1, 53) puts its product with a 2^-53 at offset 101 from b, in the
    # branch, where (2^52, 1) would put it at offset 49
    m, e = _mpf_add((1 << 53) - 1, 0, 1, 0, 53)
    assert from_man_exp(*_mpf_add(m * a, e - 53, b, -101, 53)) == got


@pytest.mark.parametrize("p", (5, 17))
def test_theta_products_match_literal_product(p):
    # all 14 families bit for bit against the literal pair lists, with each
    # twin family asked for first and second from a cleared memo, and each x
    # at two precisions: the same x._mpc_ must not share a memo entry.  A
    # second pass over all 14 only hits
    ctx = make_context(p)
    xs = (mp.mpc("0.3", "0.2"), mp.mpf("0.41") * mp.expjpi(mp.mpf(2) / 7))
    want = {}
    for prec in (96, 160):
        with mp.workprec(prec + 24):
            for i, xv in enumerate(xs):
                for family in THETA_FAMILIES:
                    value = mp.mpc(1)
                    for z, q in _literal_theta_pairs(ctx, family, mp.mpc(xv)):
                        value /= _literal_poch(z, q, 30)
                    with mp.workprec(prec):
                        want[prec, i, family] = (+value)._mpc_
    for order in (THETA_FAMILIES, THETA_FAMILIES[::-1]):
        _theta_product.cache_clear()
        for prec in (96, 160):
            for i, xv in enumerate(xs):
                for family in order:
                    got = theta_products(ctx, family, HPComplex(xv, prec), 30)
                    assert got.value._mpc_ == want[prec, i, family], (
                        prec, i, family)
        # the five base families and S+-, U+-, at two x and two precisions
        assert _theta_product.cache_info().misses == 36
        for prec in (96, 160):
            for i, xv in enumerate(xs):
                for family in order:
                    got = theta_products(ctx, family, HPComplex(xv, prec), 30)
                    assert got.value._mpc_ == want[prec, i, family], (
                        prec, i, family)
        info = _theta_product.cache_info()
        assert (info.misses, info.hits) == (36, 20 + 56)


def test_non_finite_arguments_raise():
    # an int kernel would read the zero mantissa of nan or inf as 0
    nan, inf = mp.nan, mp.inf
    for z, q, name in ((mp.mpc(0.5, nan), 0.5, "z"), (inf, 0.5, "z"),
                       (0.5, mp.mpc(nan), "q"), (0.5, mp.mpc(0, inf), "q")):
        for f in (q_pochhammer, q_pochhammer_tail):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                f(z, q, 5)
    for x in (mp.mpc(nan), mp.mpc(0.1, -inf)):
        with pytest.raises(ValueError, match="^x must be finite"):
            theta_products(C17, "Phi", HPComplex(x, 64), 10)
    for z in (nan, mp.mpc(1, nan), inf):
        with pytest.raises(ValueError, match="^z must be finite"):
            verify_functional_equation(C17, 1, 1, z)


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
    r1 = verify_functional_equation(C17, 1, 1, 1, 200, 128)
    r2 = verify_functional_equation(C5, 1, 2, mp.mpf(3) / 2, 200, 128)
    r3 = verify_functional_equation(C17, 1, 17, 1, 200, 128)
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
        assert math.gcd(k, 2 * ctx.p) == {"2p": 2 * ctx.p, "p": ctx.p,
                                          "2": 2, "1": 1}[case]
        for variant in ("plain", "dagger"):
            r = verify_functional_equation(ctx, h, k, z, 200, 128,
                                           variant=variant)
            assert float(r.value) < 1e-9, (ctx.p, case, h, k, variant)


# each full-scale feq point (case, p, h, k, z) in the order of the suite,
# then every bit of the residual and the printed witness value for plain and
# for dagger
FEQ_PINS = [
    ("2p", 5, 1, 10, "1",
     ((0, 258073731670913580172118111261641578043, -289, 128),
      "2.595e-49"),
     ((0, 1808133612252502690209134090757437625, -282, 121),
      "2.327e-49")),
    ("2p", 17, 5, 34, "1.2",
     ((0, 156253480988014274439962650420902078837, -283, 127),
      "1.005e-47"),
     ((0, 62812108848934301685259857368088477329, -282, 126),
      "8.083e-48")),
    ("2p", 13, 3, 26, "1",
     ((0, 160663199289929775396595200856112827819, -284, 127),
      "5.169e-48"),
     ((0, 285047187163970417468057620887033469321, -283, 128),
      "1.834e-47")),
    ("p", 5, 2, 5, "1",
     ((0, 21160925712583257215001940209514775835, -280, 124),
      "1.089e-47"),
     ((0, 266802727801900420171726498396765384535, -287, 128),
      "1.073e-48")),
    ("p", 13, 1, 13, "1",
     ((0, 31149912185273636342654266090499409869, -280, 125),
      "1.603e-47"),
     ((0, 49783065778726622610058061309674661821, -282, 126),
      "6.407e-48")),
    ("p", 17, 1, 17, "1",
     ((0, 283138692665349746686283080695162418487, -285, 128),
      "4.555e-48"),
     ((0, 212933344077478641890238854655525623975, -284, 128),
      "6.851e-48")),
    ("2", 5, 3, 4, "0.5",
     ((0, 290071148396381490249988617235759968043, -283, 128),
      "1.866e-47"),
     ((0, 251933052581099239231229691751949305025, -282, 128),
      "3.242e-47")),
    ("2", 17, 1, 2, "0.6",
     ((0, 162612976936695377746788165345289371991, -215, 127),
      "3.088e-27"),
     ((0, 325225953873390755485148219714288409271, -216, 128),
      "3.088e-27")),
    ("2", 13, 1, 4, "0.28",
     ((0, 116885471531140461673158060225784502219, -250, 127),
      "6.460e-38"),
     ((0, 116885471496723888972078712166161925749, -250, 127),
      "6.460e-38")),
    ("1", 17, 1, 1, "1",
     ((0, 185077692580962318300378905217310730503, -232, 128),
      "2.682e-32"),
     ((0, 166343082056627978121492116876703559707, -233, 127),
      "1.205e-32")),
    ("1", 5, 1, 3, "0.8",
     ((0, 289944495832881311186965635410454948221, -279, 128),
      "2.985e-46"),
     ((0, 173444219031572803722340528596993064373, -278, 128),
      "3.571e-46")),
    ("1", 13, 2, 3, "0.2",
     ((0, 78769040989439900848974814587719480037, -280, 126),
      "4.055e-47"),
     ((0, 136683950908319275091420236268425263797, -283, 127),
      "8.795e-48")),
]


def test_feq_suite_pinned_residuals(monkeypatch):
    # one full-scale feq suite from a cleared memo, plain then dagger at each
    # of the 12 points: the mirrored products (Phi/PhiDagger at x, R+-/T+-
    # at x~ in cases 2p and 2) miss once and hit once; S+- and U+- (cases p
    # and 1) share the memo, and miss once each
    residuals = []

    def recorded(*args, **kwargs):
        r = verify_functional_equation(*args, **kwargs)
        residuals.append(r.value._mpf_)
        return r

    monkeypatch.setattr(verify, "verify_functional_equation", recorded)
    _theta_product.cache_clear()
    checks = verify.suite_feq("full")
    info = _theta_product.cache_info()
    assert (info.misses, info.hits) == (30, 18)
    want_checks, want_residuals = [], []
    for case, p, h, k, z, *pins in FEQ_PINS:
        for variant, (mpf, r) in zip(("plain", "dagger"), pins):
            want_checks.append({
                "id": f"feq.case{case}.p{p}.h{h}.k{k}.{variant}",
                "status": "pass", "witness": f"residual {r} at z={z}"})
            want_residuals.append(mpf)
    assert checks == want_checks
    assert residuals == want_residuals


def test_feq_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_functional_equation(C5, "1", 1, 1, 1)     # a case tag for h
    with pytest.raises(ValueError):
        verify_functional_equation(C5, 2, 4, 1)          # not coprime
    with pytest.raises(ValueError):
        verify_functional_equation(C5, 5, 3, 1)          # h > k
    with pytest.raises(ValueError):
        verify_functional_equation(C5, 1, 1, -1)         # Re z <= 0
    with pytest.raises(ValueError, match=r"variant must be one of "
                       r"\('plain', 'dagger'\), got 'both'"):
        verify_functional_equation(C5, 1, 1, 1, variant="both")
    for prec in (True, 4, 128.0):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, 1, 1, 1, precision=prec)
    for h, k in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, h, k, 1)
    for truncation in (0, 2.5, True):
        with pytest.raises(ValueError):
            verify_functional_equation(C5, 1, 1, 1, truncation)


def test_feq_inconclusive_when_tail_dominates():
    # |x''| = exp(-2 pi/(34*2*2)) ~ 0.955: the tail at truncation 200 swamps
    # a 128-bit comparison, so the check must refuse rather than report
    with pytest.raises(InconclusiveError):
        verify_functional_equation(C17, 1, 2, 2, 200, 128)


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
    # every bit of raw and distance_to_integer, as mpf tuples (sign, man,
    # exp, bc): p = 5, 13, 17, both signs, and k_max >= 3p, so that the
    # p | K sub-series is in each sum
    pins = [
        (C17, 1, 1, 60, 128,
         (0, 176454537265031512892616512136296119689, -127, 128),
         (0, 101013660872996498574867334726592223371, -131, 127)),
        (C17, 1, 17, 60, 128,
         (0, 189328549351296860210572237739511582373, -284, 128),
         (0, 189328549351296860210572237739511582373, -284, 128)),
        (C17, -1, 11, 60, 128,
         (1, 256749739648904392335495049873328848377, -289, 128),
         (0, 256749739648904392335495049873328848377, -289, 128)),
        (C5, 1, 7, 20, 64,
         (1, 9542844129543397173, -63, 64),
         (0, 1277888370754485459, -65, 61)),
        (C5, -1, 12, 20, 64,
         (0, 3476174529530391005, -59, 62),
         (0, 139280125678800615, -62, 57)),
        (C13, 1, 20, 40, 96,
         (0, 39836910156337703674510970813, -92, 96),
         (0, 28522099098308464350591442607, -99, 95)),
        (C13, -1, 9, 40, 96,
         (1, 1249095442394054838717024367, -87, 91),
         (0, 45692531133131013398118985697, -99, 96)),
    ]
    for ctx, sign, n, k_max, prec, raw, dist in pins:
        r = rademacher_eval(ctx, sign, n, SeriesEvalConfig(k_max, prec))
        assert r.raw.value._mpf_ == raw, (ctx.p, sign, n)
        assert r.distance_to_integer.value._mpf_ == dist, (ctx.p, sign, n)


def test_rademacher_pinned_deep():
    # every bit of raw and distance_to_integer at p = 17, n = 1137, k_max =
    # 150, 128 bits, both signs: deep enough that the phase vectors and root
    # tables of many moduli share cis values through the _fixed_cis memo
    cfg = SeriesEvalConfig(k_max=150, precision=128)
    pins = [
        (1, -20181443066,
         (1, 49966832844045912768938482235823715515, -91, 126),
         (0, 2173289200786366340667941131932924971, -125, 121)),
        (-1, 0,
         (1, 71626758056814846916237183686337176895, -237, 126),
         (0, 71626758056814846916237183686337176895, -237, 126)),
    ]
    for sign, rounded, raw, dist in pins:
        r = rademacher_eval(C17, sign, 1137, cfg)
        assert r.rounded == rounded, sign
        assert r.raw.value._mpf_ == raw, sign
        assert r.distance_to_integer.value._mpf_ == dist, sign


def _sweep_digest(ctx, ns, k_max, prec):
    """SHA-256 over (raw, rounded, distance_to_integer) for both signs and
    each n in ns, evaluated in a seeded shuffled order and then in reverse,
    so that residue slots filled for one n are read for another; the two
    passes must agree."""
    cfg = SeriesEvalConfig(k_max, prec)
    pairs = [(sign, n) for sign in (1, -1) for n in ns]
    random.Random(21).shuffle(pairs)
    got = {}
    for sign, n in pairs + pairs[::-1]:
        r = rademacher_eval(ctx, sign, n, cfg)
        key = (r.raw.value._mpf_, r.rounded, r.distance_to_integer.value._mpf_)
        assert got.setdefault((sign, n), key) == key, (ctx.p, sign, n)
    digest = hashlib.sha256()
    for sign in (1, -1):
        for n in ns:
            digest.update(repr(got[(sign, n)]).encode())
    return digest.hexdigest()


def test_rademacher_pinned_sweep():
    # every bit of raw, rounded and distance_to_integer over the benchmark's
    # sweep (p = 17, n = 1..130, k_max = 60, 128 bits) and short p = 5 and
    # p = 13 grids, as hashed from the mpf-object evaluator
    assert _sweep_digest(C17, range(1, 131), 60, 128) == (
        "e60b2ee0e5977467ba44fab4bd6255ad64b2d3b542308b16daef750e4f08cfc4")
    assert _sweep_digest(C5, range(1, 31), 20, 64) == (
        "0a7480fc2c5c34441bbd88284c9ea5c5d1962365c273707137169a62103e155e")
    assert _sweep_digest(C13, range(1, 31), 40, 96) == (
        "6b85d590f2c88f56653ab951b9c28e1f715061a4ec465c2108b8549531c91fac")


def test_series_row_hands_off_between_signs(monkeypatch):
    # the sign-free factors of the terms at n are built once, by the first
    # sign that asks, and handed to the other sign, which makes no Bessel
    # call and takes the row out of the memo; either order gives the raw of
    # a cold single call, bit for bit
    calls = []
    kernel = series._bessel_i1_mpf

    def counted(x, prec):
        calls.append(x)
        return kernel(x, prec)

    monkeypatch.setattr(series, "_bessel_i1_mpf", counted)
    cfg = SeriesEvalConfig(k_max=60, precision=128)
    # one Bessel value per term: sigma_m != 0 at m = 0 and 2 for p = 17
    terms = len(_term_moduli(17, 60)) + 2 * len(range(17, 61, 34))

    def raw(sign, n):
        return rademacher_eval(C17, sign, n, cfg).raw.value._mpf_

    cold = {}
    for sign in (1, -1):
        _series_row.cache_clear()
        cold[sign] = raw(sign, 45)
        assert _series_row.cache_info().currsize == 1
    _series_row.cache_clear()
    calls.clear()
    assert raw(1, 45) == cold[1]
    assert len(calls) == terms
    assert raw(1, 45) == cold[1]     # a same-sign re-read keeps the row
    assert _series_row.cache_info()[:] == (1, 1, 256, 1)
    assert raw(-1, 45) == cold[-1]
    assert len(calls) == terms
    assert _series_row.cache_info()[:] == (2, 1, 256, 0)
    assert raw(-1, 45) == cold[-1] and raw(1, 45) == cold[1]
    assert len(calls) == 2 * terms
    assert _series_row.cache_info()[:] == (3, 2, 256, 0)
    # a plus-only pass over more n than the bound drops the oldest rows
    _series_row.cache_clear()
    short = SeriesEvalConfig(k_max=20, precision=64)
    for n in range(1, 271):
        rademacher_eval(C17, 1, n, short)
    info = _series_row.cache_info()
    assert info.currsize == info.maxsize == 256 < info.misses == 270
    _series_row.cache_clear()


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
    for bad in ((60, 128), None):
        with pytest.raises(ValueError, match="cfg"):
            rademacher_eval(C17, 1, 5, bad)


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
                cases.append((k, n, 0, "plain",
                              kloosterman_L(ctx, k, n, "plain")))
                cases.append((k, n, 0, "dagger",
                              kloosterman_L(ctx, k, n, "dagger")))
        for K in (p, 3 * p):
            for m in range(len(cms)):
                if sig[m] == 0:
                    continue
                for n in range(K):
                    cases.append((K, n, m, "plain",
                                  kloosterman_L_plus(ctx, K, n, m)))
                    cases.append((K, n, m, "dagger",
                                  kloosterman_dagger(ctx, K, n, m)))
        for k, n, m, variant, exact in cases:
            got = mp.make_mpf(_numeric_sum(ctx, k, n, m, variant, wp))
            want = cyclo_to_complex(exact, wp).value
            with mp.workprec(wp):
                assert abs(got - want) <= tol_abs + tol_rel * abs(want), \
                    (p, variant, k, n, m)
            checked += 1
    assert checked > 1000


def test_numeric_sums_are_real():
    # chi(-1) = 1 at these primes, so -h mod k is a unit of the same class
    # as h, at the mirrored position of the ascending hs; its phase is the
    # negated one, so the exact z_(-h) is conj(z_h) and each sum L(k, n) is
    # real.  The fixed-point values are two floored cis calls, which agree
    # with the conjugate only within 2 units (exactly on 296 of 8,132
    # mirrored units at p = 17, k < 120, wp = 160), so _numeric_sum's fold
    # pairs the integer products of h and -h, never their values.  It
    # returns only the real half of its fixed-point dot product, as a raw
    # mpf; the imaginary half, built here from the same integers, stays
    # inside the error budget 2^-(wp+14) of zero.  Both halves are summed
    # here one unit at a time, unfolded.  k < 40 prime to p, and K = p, 3p,
    # 5p for every m with sigma_m != 0, in the classes the series sums over
    wp = 160
    for ctx in (C5, C13, C17):
        p = ctx.p
        cms = c_sequence(ctx)
        sig = sigma_coeffs(ctx, 1, len(cms) - 1)
        cases = [(k, 0, variant) for k in range(1, 40) if k % p
                 for variant in ("plain", "dagger")]
        cases += [(K, m, variant) for K in (p, 3 * p, 5 * p)
                  for m in range(len(cms)) if sig[m]
                  for variant in ("plain", "dagger")]
        for k, m, variant in cases:
            residues = None if k % p else _chi_class(ctx, variant)
            den, pairs = _twisted_phases(p, variant, k, m, residues)
            phases = {h: Fraction(num, den) for h, num in pairs}
            bits, hs, zre, zim, sums = _phase_vector(p, k, variant, m, wp)
            assert list(hs) == list(phases)
            at = {h: i for i, h in enumerate(hs)}
            for i, h in enumerate(hs):
                j = at[-h % k]
                assert j == len(hs) - 1 - i, (p, k, m, variant, h)
                assert phases[hs[j]] == -phases[h] % 2, (p, k, m, variant, h)
                # each fixed-point value is within 2^0.1 units of the truth
                assert abs(zre[j] - zre[i]) <= 2 and abs(zim[j] + zim[i]) <= 2
            M = k if k % 2 == 0 else 2 * k
            cre, cim = _root_table(M, bits)
            for n in range(k):
                js = [(-n % k) * (M // k) * h % M for h in hs]
                re = sum(a * cre[j] - b * cim[j]
                         for j, a, b in zip(js, zre, zim))
                im = sum(a * cim[j] + b * cre[j]
                         for j, a, b in zip(js, zre, zim))
                got = _numeric_sum(ctx, k, n, m, variant, wp)
                # a real mpf (sign, man, exp, bc), not a complex pair
                assert got == from_man_exp(re, -2 * bits, wp, "n")
                assert sums[-n % k] == re
                # |im| / 2^(2 bits) <= 2^-(wp+14), in exact integers
                assert abs(im) << (wp + 14) <= 1 << (2 * bits), \
                    (p, k, n, m, variant)
            assert sorted(sums) == list(range(k))


def _uncached_sum(p, k, r, m, variant, wp):
    """The exact integer of _numeric_sum at residue r = -n mod k, from a
    freshly built phase vector and root table, no memo read, summed one
    unit at a time: the oracle for the h <-> -h fold."""
    bits, hs, zre, zim, _ = _phase_vector.__wrapped__(p, k, variant, m, wp)
    M = k if k % 2 == 0 else 2 * k
    cre, cim = _root_table.__wrapped__(M, bits)
    js = [r * (M // k) * h % M for h in hs]
    return bits, sum(a * cre[j] - b * cim[j] for j, a, b in zip(js, zre, zim))


def test_residue_slots_match_uncached_sums():
    # each slot of _phase_vector holds the sum of one residue r = -n mod k:
    # filled in a seeded order from a cold cache, then read back warm, every
    # slot and every returned mpf equals the uncached sum, at p = 17 for k
    # prime to p (m = 0, every unit; k = 1 and 2 have one unit, its own
    # negative, so an odd-length hs), k = 34 and 51 at m = 0 and K = 51 and
    # 85 at each m with sigma_m != 0 (in the class each variant sums over),
    # both variants
    wp = 160
    sig = sigma_coeffs(C17, 1, len(c_sequence(C17)) - 1)
    cases = [(k, 0, variant) for k in (1, 2, 4, 7, 34, 51, 60)
             for variant in ("plain", "dagger")]
    cases += [(K, m, variant) for K in (51, 85) for m in range(len(sig))
              if sig[m] for variant in ("plain", "dagger")]
    want = {case: [_uncached_sum(17, case[0], r, *case[1:], wp)
                   for r in range(case[0])] for case in cases}
    rng = random.Random(34)
    _phase_vector.cache_clear()
    for warm in (False, True):
        for case in cases:
            k, m, variant = case
            order = list(range(k))
            rng.shuffle(order)
            for r in order:
                bits, re = want[case][r]
                n = rng.randrange(1, 400) * k - r
                got = _numeric_sum(C17, k, n, m, variant, wp)
                assert got == from_man_exp(re, -2 * bits, wp, "n"), (case, r)
            sums = _phase_vector(17, k, variant, m, wp)[4]
            assert sums == dict(enumerate(re for _, re in want[case])), case


def test_bessel_kernel_matches_public_on_series_arguments(monkeypatch):
    # every Bessel argument criterion 5 forms (p = 17, n <= 200, k <= 222,
    # 128 bits, so wp = 160; the arguments do not depend on the sign or the
    # sums, which are stubbed out) goes to the private kernel, and there it
    # must give what the guarded public bessel_i1 gives.  The rows built
    # with the stub hold zeros where the Bessel values go, at criterion 5's
    # own settings, so the row memo is cleared before and after
    args = set()

    def record(x, prec):
        args.add((x, prec))
        return fzero

    _series_row.cache_clear()
    try:
        with monkeypatch.context() as mpatch:
            mpatch.setattr(series, "_bessel_i1_mpf", record)
            mpatch.setattr(series, "_numeric_sum", lambda *a: fzero)
            for n in range(1, 201):
                for _ in _series_terms(C17, "plain", n, 222, 160):
                    pass
    finally:
        _series_row.cache_clear()
    assert len(args) > 30000
    for x, prec in args:
        want = bessel_i1(mp.make_mpf(x), prec).value._mpf_
        assert _bessel_i1_mpf(x, prec) == want, x


def _literal_cis(num, den, bits):
    """(cos, sin) of pi*num/den by the libmpf calls, evaluated at bits+8 and
    floored to multiples of 2^-bits: the oracle for the int kernel."""
    c, s = mpf_cos_sin_pi(from_rational(num, den, bits + 8), bits + 8)
    return to_fixed(c, bits), to_fixed(s, bits)


def _series_cis_keys(monkeypatch, primes, k_max, wp):
    """Every (num, den, bits) a cold series builds at these primes and
    k_max, both signs, at working precision wp, with the Bessel values of
    its terms left out.  Fresh table caches stand in for the module's, so
    those are left as they were; the row memo, whose rows would hold the
    stubbed Bessel values, is cleared before and after."""
    keys = set()
    kernel = _fixed_cis.__wrapped__

    def record(*key):
        keys.add(key)
        return kernel(*key)

    with monkeypatch.context() as mpatch:
        mpatch.setattr(series, "_fixed_cis", record)
        mpatch.setattr(series, "_bessel_i1_mpf", lambda x, prec: fzero)
        for table in (_phase_vector, _root_table):
            mpatch.setattr(series, table.__name__,
                           lru_cache(maxsize=None)(table.__wrapped__))
        _series_row.cache_clear()
        try:
            for p in primes:
                for variant in ("plain", "dagger"):
                    for _ in _series_terms(make_context(p), variant, 1000,
                                           k_max, wp):
                        pass
        finally:
            _series_row.cache_clear()
    return keys


def test_fixed_cis_memo_matches_literal(monkeypatch):
    # the int kernel against the literal libmpf call: on a seeded grid
    # (den < 2500; num negative, zero and unreduced, so that many keys lie
    # just below a half-integer, where libmp's bitcount of the negative
    # rest is 0 and wp doubles; bits 24..430, so that bits >= 392 puts wp
    # past 400, where cos_sin_basecase sums its own series), and on every
    # key a cold series at p = 5, 13, 17 and k_max = 150 builds at 128 bits
    kernel = _fixed_cis.__wrapped__
    rng = random.Random(22)
    keys = _series_cis_keys(monkeypatch, (5, 13, 17), 150, 160)
    assert len(keys) > 10000
    for _ in range(12000):
        den = rng.randrange(1, 2500)
        keys.add((rng.randrange(-3 * den, 3 * den + 1), den,
                  rng.choice((24, 61, 128, 193, 392, 409, 430))))
    keys |= {(0, den, bits) for den in (1, 2, 7) for bits in (24, 430)}
    # found by search: on these the literal call's wp, from a bitcount of 0
    # for the negative rest, changes the result, so a kernel that took the
    # bit length of |rest| there would differ
    keys |= {(264, 831, 357), (4394, 2416, 48), (182, 655, 197),
             (2329, 1260, 207), (2343, 1261, 183), (2797, 2140, 297),
             (-624, 2160, 310)}
    below = [key for key in keys
             if Fraction(2 * abs(key[0]), key[1]) % 1 > Fraction(1, 2)]
    assert len(below) > 5000
    assert sum(bits >= 392 for _, _, bits in below) > 1000
    for num, den, bits in keys:
        assert kernel(num, den, bits) == _literal_cis(num, den, bits), \
            (num, den, bits)
    # the memo, asking for each phase at several bits in turn; from_rational
    # rounds correctly, so an unreduced twin of a phase gives the same
    # integers in every bit
    for den in range(1, 31):
        for num in range(-den, 2 * den + 1):
            for bits in (24, 61, 128, 193):
                want = _literal_cis(num, den, bits)
                assert _fixed_cis(num, den, bits) == want, (num, den, bits)
                assert kernel(2 * num, 2 * den, bits) == want, (num, den, bits)


def test_phase_vectors_and_root_tables_match_literal_rebuild():
    # _phase_vector and _root_table against a per-unit rebuild through the
    # literal libmpf cis: k <= 60 prime to p, and K = p, 3p for every m
    # with sigma_m != 0, both variants.  Built from a cleared memo, they
    # evaluate each distinct (reduced phase, bits) once, so the root tables
    # share entries with each other and with the phase vectors
    wp = 96
    cases = []
    for ctx in (C5, C13, C17):
        p = ctx.p
        cms = c_sequence(ctx)
        sig = sigma_coeffs(ctx, 1, len(cms) - 1)
        cases += [(ctx, k, variant, 0) for k in range(1, 61) if k % p
                  for variant in ("plain", "dagger")]
        cases += [(ctx, K, variant, m) for K in (p, 3 * p)
                  for m in range(len(cms)) if sig[m]
                  for variant in ("plain", "dagger")]
    _fixed_cis.cache_clear()
    keys = set()
    for ctx, k, variant, m in cases:
        residues = None if k % ctx.p else _chi_class(ctx, variant)
        den, pairs = _twisted_phases(ctx.p, variant, k, m, residues)
        phases = [Fraction(num, den) for _, num in pairs]
        bits = wp + 16 + len(pairs).bit_length()
        cis = [_literal_cis(ph.numerator, ph.denominator, bits)
               for ph in phases]
        want = (bits, tuple(h for h, _ in pairs), tuple(c for c, _ in cis),
                tuple(s for _, s in cis), {})
        got = _phase_vector.__wrapped__(ctx.p, k, variant, m, wp)
        assert got == want, (ctx.p, k, variant, m)
        M = k if k % 2 == 0 else 2 * k
        low = [_literal_cis(2 * j, M, bits) for j in range(M // 2 + 1)]
        roots = [low[j] if 2 * j <= M else (low[M - j][0], -low[M - j][1])
                 for j in range(M)]
        assert _root_table.__wrapped__(M, bits) == tuple(zip(*roots)), M
        keys |= {(ph, bits) for ph in phases}
        keys |= {(Fraction(2 * j, M), bits) for j in range(M // 2 + 1)}
    assert _fixed_cis.cache_info().misses == len(keys)


def test_root_tables_mirror_exactly():
    # the identities _numeric_sum's h <-> -h fold rests on, for every table
    # (M, bits) a k_max = 222 series at p = 17 reads at wp = 96 and 160:
    # omega^(M-j) has exactly the cosine of omega^j and its negated sine,
    # and the two self-mirrored roots j = 0 and M/2 have a sine of exactly 0
    def bits(k, wp):
        # where p | k the sum runs over one class, half the units
        units = sum(math.gcd(h, k) == 1 for h in range(k)) // (
            1 if k % 17 else 2)
        return wp + 16 + units.bit_length()

    for k in (1, 2, 4, 17, 34, 51):
        assert bits(k, 96) == _phase_vector(17, k, "plain", 0, 96)[0], k
    ks = [j for _, mods in _term_moduli(17, 222) for j in mods]
    keys = {(k if k % 2 == 0 else 2 * k, bits(k, wp))
            for k in ks + list(range(17, 223, 34)) for wp in (96, 160)}
    assert len(keys) > 300
    for key in keys:
        cre, cim = _root_table(*key)
        M = key[0]
        assert len(cre) == len(cim) == M
        assert cim[0] == cim[M // 2] == 0, key
        for j in range(1, M):
            assert cre[M - j] == cre[j] and cim[M - j] == -cim[j], key


# Every cache cache_stats() reports, in the column order of OCCUPANCY.
CACHES = ("series._phase_vector", "series._root_table", "series._weight",
          "charsums._lambda_parts", "dedekind._chi_table", "series._fixed_cis",
          "series._theta_product", "context.make_context",
          "arith._prime_factors", "series._series_row")


def _series_load(k_max, signs=(1, -1)):
    cfg = SeriesEvalConfig(k_max=k_max, precision=128)
    for sign in signs:
        rademacher_eval(C17, sign, 1000, cfg)


def _chi_load():
    dedekind_s_chi(C17, 3, 40)
    dedekind_t_chi(C17, 5, 40)


# What each load leaves in the caches, from cleared caches; 0 marks a cache
# the load does not touch.  The series loads are p = 17, n = 1000, 128 bits,
# both signs unless named.  Each cache holds one entry per miss, unless the
# last field, which pins the named stats of the caches it names, says
# otherwise.  The row memo is built by the first sign and handed to the
# other, which takes it out: a both-sign load leaves it empty, after one
# miss and one hit.
HANDED_OFF = {"series._series_row": {"hits": 1, "misses": 1}}
OCCUPANCY = [
    ("series, k_max = 150", lambda: _series_load(150),
     (370, 110, 64, 181, 0, 8161, 0, 1, 2, 0), HANDED_OFF),
    ("series, k_max = 222", lambda: _series_load(222),
     (548, 163, 64, 267, 0, 17859, 0, 1, 2, 0), HANDED_OFF),
    ("series, plus only, k_max = 150", lambda: _series_load(150, (1,)),
     (185, 110, 32, 181, 0, 7447, 0, 1, 2, 1), {}),
    # each FEQ point reads its twin products twice, plain and dagger; S+-
    # and U+- add one entry each, and no hit
    ("feq suite, full", lambda: verify.suite_feq("full"),
     (0, 0, 0, 12, 0, 0, 30, 3, 6, 0),
     {"series._theta_product": {"hits": 18}}),
    # the chi table's memo serves the sums that read it for every h
    ("s_chi and t_chi at k = 40", _chi_load,
     (0, 0, 0, 0, 1, 0, 0, 0, 0, 0), {"dedekind._chi_table": {"hits": 1}}),
]


def test_cache_occupancy_from_cleared_caches():
    # the one place cache occupancy is stated: a cache added to legpart
    # fails here until it is counted, and an entry evicted shows as
    # size < misses
    assert set(CACHES) == set(legpart.cache_stats())
    for name, load, sizes, pins in OCCUPANCY:
        for key in CACHES:
            mod, func = key.split(".")
            getattr(importlib.import_module(f"legpart.{mod}"),
                    func).cache_clear()
        load()
        stats = legpart.cache_stats()
        for key, size in zip(CACHES, sizes):
            got = stats[key]
            want = {"size": size, "misses": size, **pins.get(key, {})}
            assert {stat: got[stat] for stat in want} == want, (name, key, got)
            assert got["size"] < got["maxsize"], (name, key, got)


def test_series_path_caches_are_bounded():
    # every cache cache_stats() finds, so that one added anywhere is held to
    # a bound
    stats = legpart.cache_stats()
    for key, got in stats.items():
        assert type(got["maxsize"]) is int and got["maxsize"] > 0, key
    assert set(CACHES) <= set(stats)
    # the residue slots of _numeric_sum, at most k per _phase_vector entry,
    # live in its entries, so its bound holds them too: one slot per residue
    # asked, and a cleared entry takes its slots with it
    _phase_vector.cache_clear()
    sums = _phase_vector(17, 7, "plain", 0, 96)[4]
    for n in (3, 10, 4):
        _numeric_sum(C17, 7, n, 0, "plain", 96)
    assert sorted(sums) == [3, 4]
    _phase_vector.cache_clear()
    assert _phase_vector(17, 7, "plain", 0, 96)[4] == {}


def test_cache_stats_covers_every_lru_cache():
    # every function a legpart module's source decorates with lru_cache, or
    # with the series row memo _SignHandoff, is in cache_stats(), which
    # reports nothing else, with the numbers of the cache's own cache_info
    declared = set()
    for info in pkgutil.iter_modules(legpart.__path__):
        mod = importlib.import_module(f"legpart.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.FunctionDef) and any(
                    memo in ast.unparse(dec) for dec in node.decorator_list
                    for memo in ("lru_cache", "_SignHandoff")):
                declared.add(f"{info.name}.{node.name}")
    assert {"series._fixed_cis", "series._weight", "charsums._lambda_parts",
            "dedekind._chi_table", "context.make_context",
            "arith._prime_factors", "series._series_row"} <= declared
    series._weight.cache_clear()
    for _ in range(3):
        series._weight(17, 3, "plain", 64)
    stats = legpart.cache_stats()
    assert set(stats) == declared
    assert stats["series._weight"] == {"size": 1, "maxsize": 2048,
                                       "hits": 2, "misses": 1}
    for key, got in stats.items():
        mod, name = key.split(".")
        info = getattr(importlib.import_module(f"legpart.{mod}"),
                       name).cache_info()
        assert got == {"size": info.currsize, "maxsize": info.maxsize,
                       "hits": info.hits, "misses": info.misses}, key


def _unread_parameters() -> set:
    """module.function.parameter for each parameter of a function or lambda
    in legpart's source that its body never reads."""
    unread = set()
    for info in pkgutil.iter_modules(legpart.__path__):
        mod = importlib.import_module(f"legpart.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                      if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", f"<lambda@{node.lineno}>")
            unread |= {f"{info.name}.{name}.{p}" for p in params
                       if p not in read}
    return unread


def test_no_function_reads_less_than_it_takes():
    # no option is accepted and then ignored
    assert _unread_parameters() == set()
