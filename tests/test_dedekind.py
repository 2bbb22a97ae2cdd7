"""Tests for Dedekind sums, twists, and reciprocity laws."""

import math
import random
from fractions import Fraction

import pytest

from legpart.charsums import lambda_exponent
from legpart.context import make_context
from legpart.dedekind import (
    _chi_table,
    _dedekind_s_12k,
    _floor_sum,
    _s_chi_cleared,
    dedekind_s,
    dedekind_s_chi,
    dedekind_s_tilde,
    dedekind_t,
    dedekind_t_chi,
    lattice_floor_sum,
    verify_reciprocity_classical,
    verify_reciprocity_chi,
)


def test_classical_s_examples():
    for h in (0, 1, 2, 9):
        assert dedekind_s(h, 1) == 0
    assert dedekind_s(1, 3) == Fraction(1, 18)
    assert dedekind_s(2, 6) == Fraction(1, 18)


def test_euclid_s_matches_literal_sum():
    # k = 1, gcd(h,k) > 1, negative h and h >= k all included
    for k in range(1, 61):
        for h in range(-2 * k - 3, 2 * k + 4):
            got = _dedekind_s_12k(h, k)
            assert isinstance(got, int)
            assert got == 12 * k * dedekind_s(h, k), (h, k)
    rng = random.Random(40961)
    for _ in range(300):
        k = rng.randint(1, 2000)
        h = rng.randint(-3000, 3000)
        g = rng.choice((1, 1, 2, 6, 17))
        want = 12 * g * k * dedekind_s(h, k)
        assert _dedekind_s_12k(g * h, g * k) == want, (g, h, k)


def test_classical_t_examples():
    assert dedekind_t(1, 1) == 0
    assert dedekind_t(1, 3) == 0
    assert dedekind_t(2, 3) == 2


def test_s_t_linkage_formula():
    # s(h,k) = h(k-1)(2-1/k)/6 - t(h,k)/k - (k-1)/4 + (d-1)/4 with d=(h,k),
    # coprimality not required
    for k in range(1, 25):
        for h in range(0, k + 5):
            d = math.gcd(h, k) if h else k
            lhs = dedekind_s(h, k)
            rhs = (Fraction(h * (k - 1), 6) * (2 - Fraction(1, k))
                   - Fraction(dedekind_t(h, k), k)
                   - Fraction(k - 1, 4) + Fraction(d - 1, 4))
            assert lhs == rhs, (h, k)


def test_classical_scaling():
    rng = random.Random(81233)
    for _ in range(120):
        k = rng.randint(1, 40)
        h = rng.randint(0, 3 * k)
        q = rng.choice((2, 3, 5))
        assert dedekind_s(q * h, q * k) == dedekind_s(h, k)
        d = math.gcd(h, k) if h else k
        extra = Fraction(k * q * (q - 1), 12) * (
            4 * h * k * (q + 1) - 6 * h - 3 * (k - 1) + 3 * (d - 1))
        assert dedekind_t(q * h, q * k) == q * dedekind_t(h, k) + extra


def test_classical_reciprocity_examples():
    assert verify_reciprocity_classical(1, 1)
    assert verify_reciprocity_classical(3, 5)
    assert verify_reciprocity_classical(7, 11)


def test_classical_reciprocity_grid():
    for k in range(1, 30):
        for h in range(1, k + 1):
            if math.gcd(h, k) == 1:
                assert verify_reciprocity_classical(h, k)


def test_s_chi_examples():
    c5 = make_context(5)
    c17 = make_context(17)
    assert dedekind_s_chi(c5, 1, 1) == 0
    assert dedekind_s_chi(c17, 1, 2) == dedekind_s_chi(c17, 2, 4)
    v = dedekind_s_chi(c5, 1, 2)
    assert v == Fraction(1, 2) * c5.b2 - Fraction(1, 2) * dedekind_t_chi(c5, 1, 2)


def _s_chi_weights_literal(chi, k):
    """The defining O(pk) loop of W_k, the oracle for the closed forms of
    _chi_table: mu runs over 0 < mu < phi k, grouped by mu mod k."""
    p = len(chi)
    L = (1 if k % p == 0 else p) * k
    w = [0] * k
    for mu in range(1, L):
        c = chi[mu % p]
        if c:
            w[mu % k] += c * (2 * mu - L)
    return tuple(w)


def _t_chi_offset_literal(chi, k):
    """B_k as its defining double sum over mu = r + jk."""
    p = len(chi)
    phi = 1 if k % p == 0 else p
    return sum(j * (r + j * k) * chi[(r + j * k) % p]
               for r in range(k) for j in range(phi))


def test_chi_table_matches_literal_loops():
    # the suffix sums and the moment of the literal weights, and B_k as its
    # defining double sum
    for p in (5, 13, 17):
        chi = make_context(p).chi
        for k in [*range(1, 300), 10 * p, 20 * p, 442, 699]:
            w = _s_chi_weights_literal(chi, k)
            tails, moment, b = _chi_table.__wrapped__(chi, k)
            assert tails == tuple(sum(w[j:]) for j in range(k)), (p, k)
            assert moment == sum(r * w[r] for r in range(k)), (p, k)
            assert b == _t_chi_offset_literal(chi, k), (p, k)


def test_floor_sum_matches_literal_sum():
    # every 0 <= a < k, so both sides of the mirror a -> k - a, against
    # sum_{0<r<k} floor(a r / k) W_k[r] over the literal weights
    for p in (5, 13, 17):
        chi = make_context(p).chi
        for k in [*range(1, 80), 3 * p, 10 * p, 301]:
            w = _s_chi_weights_literal(chi, k)
            table = _chi_table(chi, k)
            for a in range(k):
                want = sum((a * r // k) * w[r] for r in range(1, k))
                assert _floor_sum(table, a) == want, (p, k, a)


def test_s_chi_numerators_match_regrouped_sum():
    # every argument, including a = 0, non-units, a < 0 and a >= k, against
    # the literal definition, which depends on a mod k only and so runs
    # once per residue
    for p in (5, 13, 17):
        ctx = make_context(p)
        for k in [*range(1, 61), 3 * p, 4 * p, 10 * p, 301]:
            scale = 4 * k * (1 if k % p == 0 else p) * k
            want = [scale * _s_chi_literal(ctx, a, k) for a in range(k)]
            table = _chi_table(ctx.chi, k)
            for a in range(-k - 2, 2 * k + 3):
                got = _s_chi_cleared(table, a)
                assert isinstance(got, int) and got == want[a % k], (p, a, k)


def _s_chi_literal(ctx, h, k):
    """The defining O(pk) loop of s_chi, kept as the oracle for the
    regrouped sum: mu runs over 0 < mu < phi k, phi = p unless p | k."""
    p = ctx.p
    L = (1 if k % p == 0 else p) * k
    total = 0
    for mu in range(1, L):
        c = ctx.chi[mu % p]
        if c:
            a = (h * mu) % k
            if a:
                t = (2 * a - k) * (2 * mu - L)
                total += t if c > 0 else -t
    return Fraction(total, 4 * k * L)


def test_s_chi_matches_literal_definition():
    for p in (5, 13, 17):
        ctx = make_context(p)
        for k in [*range(1, 61), p, 2 * p, 3 * p, 6 * p]:
            # h negative, >= k and sharing factors with k included
            for h in range(-3, k + 9):
                assert dedekind_s_chi(ctx, h, k) == _s_chi_literal(ctx, h, k), (p, h, k)
    ctx = make_context(17)
    half = Fraction(1, 2)
    for k in range(1, 41):
        for h in range(k):
            if math.gcd(h, k) != 1:
                continue
            s1 = _s_chi_literal(ctx, h, k)
            s2 = _s_chi_literal(ctx, 2 * h, k)
            tail = dedekind_s(2 * h, k) - dedekind_s(2 * h * 17, k)
            plain = s1 - half * s2 + half * tail
            dagger = half * s2 - s1 + half * tail
            assert lambda_exponent(ctx, h, k, "plain") == plain, (h, k)
            assert lambda_exponent(ctx, h, k, "dagger") == dagger, (h, k)
    assert isinstance(_chi_table.cache_info().maxsize, int)


def test_t_chi_examples():
    c5 = make_context(5)
    assert dedekind_t_chi(c5, 0, 3) == 0
    assert dedekind_t_chi(c5, 1, 1) == Fraction(4, 5)
    assert dedekind_t_chi(c5, 2, 2) == Fraction(8, 5)


def _t_chi_literal(ctx, h, k):
    """The defining O(phi k) loop of t_chi, kept as the oracle for the
    regrouped sum: mu runs over 0 <= mu < phi k, phi = p unless p | k."""
    p = ctx.p
    phi = 1 if k % p == 0 else p
    total = 0
    for mu in range(phi * k):
        c = ctx.chi[mu % p]
        if c:
            t = mu * ((h * mu) // k)
            total += t if c > 0 else -t
    return Fraction(total, phi)


def test_t_chi_matches_literal_loop():
    for p in (5, 13, 17):
        ctx = make_context(p)
        for k in [*range(1, 121), p, 3 * p, 10 * p, 20 * p]:
            # h = 0, h < 0, h >= k, and h sharing a factor with k or p
            hs = {*range(-4, 9), k - 1, k, k + 1, 2 * k + 3, -k - 2, p, 2 * p}
            for h in sorted(hs):
                got = dedekind_t_chi(ctx, h, k)
                assert got == _t_chi_literal(ctx, h, k), (p, h, k)


def test_twisted_scaling_and_linkage():
    rng = random.Random(55019)
    for p in (5, 13, 17):
        ctx = make_context(p)
        for _ in range(40):
            k = rng.randint(1, 40)
            h = rng.randint(1, k + 8)
            q = rng.choice((2, 3, 5))
            assert dedekind_s_chi(ctx, q * h, q * k) == dedekind_s_chi(ctx, h, k)
            assert dedekind_t_chi(ctx, q * h, q * k) == q * dedekind_t_chi(ctx, h, k)
            # the linkage s_chi = (h/k) B2 - t_chi/k
            lhs = dedekind_s_chi(ctx, h, k)
            rhs = Fraction(h, k) * ctx.b2 - Fraction(1, k) * dedekind_t_chi(ctx, h, k)
            assert lhs == rhs, (p, h, k)


def test_s_tilde_parity_examples():
    c17 = make_context(17)
    v = dedekind_s_tilde(c17, 1, 3)
    assert v.denominator == 1 and int(v) % 2 == 0
    v = dedekind_s_tilde(c17, 3, 5)
    assert v.denominator == 1 and int(v) % 2 == 1
    # at p = 5 the parity law breaks down: the same shape of input gives a
    # non-integral value, so the claim is only tested at the larger primes
    assert dedekind_s_tilde(make_context(5), 2, 3) == Fraction(3, 5)
    assert dedekind_s_tilde(make_context(5), 1, 2) == Fraction(4, 5)


def test_s_tilde_parity_grid():
    for p in (13, 17):
        ctx = make_context(p)
        for b in range(2, 32):
            for a in range(1, 51):
                if math.gcd(a, b) != 1 or a % p == 0:
                    continue
                v = dedekind_s_tilde(ctx, a, b)
                assert v.denominator == 1, (p, a, b, v)
                want = 0 if ctx.chi[a % p] == 1 else 1
                assert int(v) % 2 == want, (p, a, b, v)


def test_s_tilde_rejects_bad_input():
    ctx = make_context(5)
    with pytest.raises(ValueError):
        dedekind_s_tilde(ctx, 1, 1)
    with pytest.raises(ValueError):
        dedekind_s_tilde(ctx, 2, 4)


def test_entry_points_reject_bools_and_floats():
    # each int argument refuses a bool or a float, and the error names it
    ctx = make_context(17)
    calls = [
        ("h", lambda v: dedekind_s(v, 3)),
        ("k", lambda v: dedekind_s(1, v)),
        ("h", lambda v: dedekind_t(v, 3)),
        ("k", lambda v: dedekind_t(1, v)),
        ("h", lambda v: dedekind_s_chi(ctx, v, 3)),
        ("k", lambda v: dedekind_s_chi(ctx, 1, v)),
        ("h", lambda v: dedekind_t_chi(ctx, v, 3)),
        ("k", lambda v: dedekind_t_chi(ctx, 1, v)),
        ("a", lambda v: dedekind_s_tilde(ctx, v, 3)),
        ("b", lambda v: dedekind_s_tilde(ctx, 1, v)),
        ("a", lambda v: lattice_floor_sum(ctx, v, 0)),
        ("y", lambda v: lattice_floor_sum(ctx, 3, v)),
        ("h", lambda v: verify_reciprocity_classical(v, 3)),
        ("k", lambda v: verify_reciprocity_classical(2, v)),
        ("h", lambda v: verify_reciprocity_chi(ctx, v, 3)),
        ("k", lambda v: verify_reciprocity_chi(ctx, 2, v)),
    ]
    for name, call in calls:
        for v in (True, 2.5, 3.0):
            with pytest.raises(ValueError, match=f"^{name} must be an int"):
                call(v)


def test_lattice_sum_residue_law():
    # S(y) = -abar * (p*B2/2) mod p universally; for p != 5 the right side
    # is 0 mod p, at p = 5 it is -2*abar
    ys = [Fraction(0), Fraction(1, 2), Fraction(2, 7), Fraction(3), Fraction(5, 4)]
    for p in (5, 13, 17):
        ctx = make_context(p)
        half = Fraction(p) * ctx.b2 / 2
        assert half.denominator == 1
        for a in range(1, 20):
            if a % p == 0:
                continue
            abar = pow(a, -1, p)
            for y in ys:
                S = lattice_floor_sum(ctx, a, y)
                assert S % p == (-abar * int(half)) % p, (p, a, y, S)
                if p != 5:
                    assert S % p == 0


def test_lattice_sum_symmetry_and_parity():
    c17 = make_context(17)
    y = Fraction(1, 7)
    assert lattice_floor_sum(c17, 3, 1 - y) == lattice_floor_sum(c17, 3, y)
    assert lattice_floor_sum(c17, 3, 0) % 2 == 1  # (chi_3 - 1)/2 mod 2
    for p in (5, 13, 17):
        ctx = make_context(p)
        for a in range(1, 20):
            if a % p == 0:
                continue
            for j in range(1, 7):
                y = Fraction(j, 7)
                if (a * y).denominator == 1:
                    continue  # the symmetry needs a*y nonintegral
                assert lattice_floor_sum(ctx, a, 1 - y) == lattice_floor_sum(ctx, a, y)
            # parity at the two special points
            if a % 2 == 1:
                assert lattice_floor_sum(ctx, a, Fraction(1, 2)) % 2 == 0
            want = 0 if ctx.chi[a % p] == 1 else 1
            assert lattice_floor_sum(ctx, a, 0) % 2 == want


def test_lattice_sum_shift_identity():
    # for y = c/a: S(1 - y) = S(y) - sum_mu mu * chi(a*mu + c)
    for p in (5, 13, 17):
        ctx = make_context(p)
        for a in range(2, 12):
            if a % p == 0:
                continue
            for c in range(1, a):
                if math.gcd(c, a) != 1:
                    continue
                y = Fraction(c, a)
                corr = sum(mu * ctx.chi[(a * mu + c) % p] for mu in range(1, p))
                assert (lattice_floor_sum(ctx, a, 1 - y)
                        == lattice_floor_sum(ctx, a, y) - corr), (p, a, c)


def test_chi_reciprocity_examples():
    assert verify_reciprocity_chi(make_context(5), 3, 2)
    assert verify_reciprocity_chi(make_context(17), 5, 17)
    assert verify_reciprocity_chi(make_context(13), 7, 39)


def test_chi_reciprocity_grid():
    rng = random.Random(60711)
    for p in (5, 13, 17):
        ctx = make_context(p)
        # coprime-to-p moduli
        for _ in range(25):
            k = rng.randint(1, 30)
            if k % p == 0:
                continue
            h = rng.randint(2, 40)
            if math.gcd(h, k) != 1 or h % p == 0 or h == 1:
                continue
            assert verify_reciprocity_chi(ctx, h, k), (p, h, k)
        # multiples of p
        for mult in (1, 3):
            K = mult * p
            for h in range(2, 30):
                if math.gcd(h, K) == 1:
                    assert verify_reciprocity_chi(ctx, h, K), (p, h, K)
