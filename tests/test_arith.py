"""Tests for the exact arithmetic kernels."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from legpart.arith import (
    DEFAULT_ORDER_CAP,
    CyclotomicSum,
    OrderCapError,
    _prime_factors,
    bessel_i1,
    cyclo_add,
    cyclo_add_phase,
    cyclo_from_phases,
    cyclo_is_zero,
    cyclo_neg,
    cyclo_to_complex,
    cyclo_zero,
    default_precision,
    sawtooth,
)


def _mobius(m: int) -> int:
    mu = 1
    for _, e in _prime_factors(m):
        if e > 1:
            return 0
        mu = -mu
    return mu


def cyclotomic_polynomial(M: int) -> tuple:
    """Coefficients of Phi_M(x), constant term first.

    Computed by the divisor product Phi_M(x) = prod_{d | M} (x^d - 1)^mu(M/d):
    multiply out the mu = +1 factors, then divide the mu = -1 ones back out
    exactly.
    """
    poly = [1]
    negs = []
    for d in range(1, M + 1):
        if M % d:
            continue
        mu = _mobius(M // d)
        if mu == 1:
            poly = _mul_xd_minus_1(poly, d)
        elif mu == -1:
            negs.append(d)
    for d in negs:
        poly = _div_xd_minus_1(poly, d)
    return tuple(poly)


def _mul_xd_minus_1(poly, d):
    out = [0] * (len(poly) + d)
    for i, v in enumerate(poly):
        if v:
            out[i] -= v
            out[i + d] += v
    return out


def _div_xd_minus_1(poly, d):
    # exact division by x^d - 1; the remainder is asserted away
    n = len(poly) - 1
    q = [0] * (n - d + 1)
    for j in range(n, d - 1, -1):
        q[j - d] = poly[j] + (q[j] if j <= n - d else 0)
    for j in range(d):
        want = -(q[j] if j <= n - d else 0)
        if poly[j] != want:
            raise ArithmeticError("division by x^d - 1 left a remainder")
    return q


def reduce_mod_cyclotomic(s: CyclotomicSum) -> tuple:
    """Remainder of the coefficient polynomial mod Phi_order(x) (long division).

    Slow but independent route to the same decision as cyclo_is_zero; the
    oracle the zero test is cross-checked against.
    """
    phi = cyclotomic_polynomial(s.order)
    dphi = len(phi) - 1
    r = list(s.coeffs)
    for i in range(len(r) - 1, dphi - 1, -1):
        lead = r[i]
        if lead:
            base = i - dphi
            for t in range(dphi + 1):
                r[base + t] -= lead * phi[t]
    del r[dphi:]
    return tuple(r)


def test_sawtooth_pinned_values():
    assert sawtooth(0) == 0
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)
    assert sawtooth(7) == 0
    assert sawtooth(Fraction(1, 2)) == 0


def test_sawtooth_periodic_and_odd():
    rng = random.Random(20817)
    for _ in range(300):
        num = rng.randint(-400, 400)
        den = rng.randint(1, 60)
        x = Fraction(num, den)
        n = rng.randint(-5, 5)
        assert sawtooth(x + n) == sawtooth(x)
        if x.denominator > 1:
            assert sawtooth(-x) == -sawtooth(x)
        else:
            assert sawtooth(x) == 0


def test_cyclo_add_phase_examples():
    acc = cyclo_zero()
    acc = cyclo_add_phase(acc, 0)
    assert cyclo_to_complex(acc, 64).value == 1
    acc = cyclo_add_phase(acc, 1)
    assert cyclo_is_zero(acc)
    full = cyclo_from_phases([Fraction(2 * j, 17) for j in range(17)])
    assert cyclo_is_zero(full)


def test_weights_must_be_ints():
    # a float weight would leave the zero test deciding on floats
    one = cyclo_from_phases([0])
    for w in (2.5, 1.0, True, Fraction(1), "1"):
        with pytest.raises(ValueError):
            cyclo_from_phases([0], [w])
        with pytest.raises(ValueError):
            cyclo_add_phase(one, 1, w)
    assert cyclo_is_zero(cyclo_add_phase(one, 0, -1))
    assert cyclo_from_phases([0, 1], [3, -2]).coeffs == (5, 0)


def test_cyclo_is_zero_examples():
    sixth = cyclo_from_phases([Fraction(2 * j, 6) for j in range(6)])
    assert cyclo_is_zero(sixth)
    single = cyclo_from_phases([Fraction(2, 5)])
    assert not cyclo_is_zero(single)


def test_cyclo_to_complex_examples():
    zero = cyclo_from_phases([0, 1])
    v = cyclo_to_complex(zero, 128)
    assert abs(v.value) < mp.mpf(2) ** -100
    one = cyclo_from_phases([0])
    assert cyclo_to_complex(one, 64).value == 1
    cube = cyclo_from_phases([0, Fraction(2, 3), Fraction(4, 3)])
    assert abs(cyclo_to_complex(cube, 128).value) < mp.mpf(2) ** -100


def test_cyclo_canonical_half_fold():
    s = cyclo_from_phases([Fraction(1, 2), Fraction(3, 2)])  # i + (-i)
    assert cyclo_is_zero(s)
    # support always lives in the lower half after canonicalization
    t = cyclo_from_phases([Fraction(5, 3)])
    assert all(j < t.order // 2 or c == 0 for j, c in enumerate(t.coeffs))


def test_cyclo_neg_and_add():
    a = cyclo_from_phases([0, Fraction(1, 3)])
    b = cyclo_neg(a)
    assert cyclo_is_zero(cyclo_add(a, b))


def test_order_cap_enforced():
    with pytest.raises(OrderCapError):
        cyclo_from_phases([Fraction(1, DEFAULT_ORDER_CAP)])
    s = cyclo_from_phases([Fraction(1, 97)])
    assert s.order == 2 * 97


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    assert len(cyclotomic_polynomial(105)) - 1 == 48


def test_zero_test_matches_polynomial_reduction():
    # the fast basis reduction and the long-division remainder must make
    # the same call on random sums
    rng = random.Random(91724)
    orders = [12, 30, 68, 90, 204, 510, 2040]
    for _ in range(60):
        order = rng.choice(orders)
        terms = rng.randint(1, 12)
        phases = []
        weights = []
        for _ in range(terms):
            phases.append(Fraction(rng.randint(0, 2 * order - 1), order))
            weights.append(rng.randint(-3, 3))
        if rng.random() < 0.5:
            # plant an exact zero: a full run of d-th roots for d | order
            d = rng.choice([d for d in (2, 3, 4, 5, 6) if order % d == 0])
            start = Fraction(rng.randint(0, 2 * order - 1), order)
            w = rng.randint(1, 3)
            for t in range(d):
                phases.append(start + Fraction(2 * t, d))
                weights.append(w)
        s = cyclo_from_phases(phases, weights)
        exact = cyclo_is_zero(s)
        rem = reduce_mod_cyclotomic(s)
        assert exact == (not any(rem))
        numeric = abs(cyclo_to_complex(s, 128).value)
        assert exact == (numeric < mp.mpf(2) ** -100 * (1 + s.weight()))


def test_bessel_pinned_values():
    assert bessel_i1(0).value == 0
    v = bessel_i1(1, prec=80)
    with mp.workprec(120):
        want = mp.mpf("0.56515910399248502720769602760986")
        assert abs(v.value - want) < mp.mpf(2) ** -60
    x = Fraction(1, 2 ** 20)
    r = bessel_i1(x, prec=96)
    with mp.workprec(96):
        assert abs(2 * r.value / (mp.mpf(1) / 2 ** 20) - 1) < mp.mpf(2) ** -30


def test_bessel_matches_mpmath():
    for x in (Fraction(1, 2), 1, 2, 5, 20, 75):
        got = bessel_i1(x, prec=128).value
        with mp.workprec(160):
            want = mp.besseli(1, mp.mpf(x.numerator if isinstance(x, Fraction) else x)
                              / (x.denominator if isinstance(x, Fraction) else 1))
        assert abs(got - want) / want < mp.mpf(2) ** -110


def test_bessel_precision_doubling():
    for x in (Fraction(1, 2), 1, 2, 5):
        lo = bessel_i1(x, prec=64).value
        hi = bessel_i1(x, prec=128).value
        assert abs(lo - hi) < mp.mpf(2) ** (8 - 64)


def test_bessel_rejects_negative():
    with pytest.raises(ValueError):
        bessel_i1(-1)


def test_bessel_rejects_non_finite():
    for x in (mp.inf, mp.nan):
        with pytest.raises(ValueError):
            bessel_i1(x, prec=64)


def test_precision_must_be_an_int_of_at_least_8_bits():
    one = cyclo_from_phases([0])
    for prec in (True, False, 4, 7, 64.0, "128"):
        with pytest.raises(ValueError):
            bessel_i1(1, prec)
        with pytest.raises(ValueError):
            cyclo_to_complex(one, prec)
    assert bessel_i1(1, 8).prec == 8
    assert cyclo_to_complex(one, 8).value == 1


def _literal_bessel_i1(x, prec):
    """The ascending series in mpf arithmetic at prec+24 bits, term by term:
    the oracle for the fixed-point loop in bessel_i1."""
    with mp.workprec(prec + 24):
        if isinstance(x, Fraction):
            xx = mp.mpf(x.numerator) / mp.mpf(x.denominator)
        else:
            xx = mp.mpf(x)
        if xx == 0:
            out = mp.mpf(0)
        else:
            half = xx / 2
            hsq = half * half
            term = half
            total = term
            cutoff = mp.mpf(2) ** (-(prec + 8))
            m = 0
            while True:
                m += 1
                term = term * hsq / (m * (m + 1))
                total += term
                if term < cutoff * total:
                    break
            out = total
    with mp.workprec(prec):
        return +out


def test_bessel_matches_literal_series_bitwise():
    rng = random.Random(20120523)
    # even integers make x/2 an integer: no shift in the recurrence
    args = [0, 1, 2, 3, 4, 12, 40, 96, 320, Fraction(1, 3),
            Fraction(355, 113), Fraction(7, 2 ** 40)]
    for _ in range(300):
        with mp.workprec(rng.choice((64, 160, 300))):
            args.append(mp.mpf(10) ** mp.mpf(rng.uniform(-12, 2.7)))
    for i, x in enumerate(args):
        prec = (64, 96, 128, 160, 192)[i % 5]
        got = bessel_i1(x, prec).value
        want = _literal_bessel_i1(x, prec)
        assert got._mpf_ == want._mpf_, (x, prec)


def test_default_precision_env(monkeypatch):
    monkeypatch.delenv("LEGPART_PRECISION", raising=False)
    assert default_precision() == 128
    monkeypatch.setenv("LEGPART_PRECISION", "256")
    assert default_precision() == 256
    monkeypatch.setenv("LEGPART_PRECISION", "junk")
    with pytest.raises(ValueError):
        default_precision()
    monkeypatch.setenv("LEGPART_PRECISION", "4")
    with pytest.raises(ValueError):
        default_precision()
