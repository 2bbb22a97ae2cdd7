"""Tests for the exact arithmetic kernels."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from legpart.arith import (
    DEFAULT_ORDER_CAP,
    CyclotomicSum,
    HPReal,
    OrderCapError,
    _bessel_i1_mpf,
    _prime_factors,
    bessel_i1,
    cyclo_add,
    cyclo_from_phases,
    cyclo_is_zero,
    cyclo_neg,
    cyclo_to_complex,
    sawtooth,
)
from legpart.charsums import lambda_k
from legpart.context import make_context, q_constants
from legpart.series import q_pochhammer


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


def test_weights_must_be_ints():
    # a float weight would leave the zero test deciding on floats
    one = cyclo_from_phases([0])
    for w in (2.5, 1.0, True, Fraction(1), "1"):
        with pytest.raises(ValueError):
            cyclo_from_phases([0], [w])
    assert cyclo_is_zero(cyclo_add(one, cyclo_from_phases([0], [-1])))
    assert cyclo_from_phases([0, 1], [3, -2]).coeffs == (5, 0)


def test_phases_must_be_ints_or_fractions():
    # True would be read as the phase 1, '1/3' parsed as a string, and 0.1
    # taken as its binary fraction, whose 2^55 denominator then trips the
    # order cap with a misleading OrderCapError
    one = cyclo_from_phases([0])
    for ph in (True, False, "1/3", 0.1, 1.0, mp.mpf(1), None):
        with pytest.raises(ValueError, match="phase must be an int or a "
                                             "Fraction"):
            cyclo_from_phases([0, ph])
    assert cyclo_from_phases([1, Fraction(-1)]).coeffs == (-2, 0)
    assert cyclo_is_zero(cyclo_add(one, cyclo_from_phases([Fraction(3)])))


def _literal_from_phases(phases, weights):
    """The phase-by-phase route: reduce each phase mod 2, take twice the lcm
    of the reduced denominators as the order, read each exponent off the
    reduced phase, then fold the upper half onto the lower with a sign."""
    reduced = [Fraction(ph) % 2 for ph in phases]
    den = 1
    for ph in reduced:
        den = math.lcm(den, ph.denominator)
    order = 2 * den
    c = [0] * order
    for ph, w in zip(reduced, weights):
        c[ph.numerator * (order // (2 * ph.denominator))] += w
    half = order // 2
    for j in range(half, order):
        c[j - half] -= c[j]
        c[j] = 0
    return CyclotomicSum(order, tuple(c))


def test_cyclo_from_phases_matches_literal_reduction():
    # negative phases and phases >= 2, ints, unreduced Fraction(6, 4)-style
    # inputs and explicit weights, over denominators whose lcm stays under
    # the order cap
    rng = random.Random(2417)
    dens = (1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 17, 34)
    assert cyclo_from_phases([]) == _literal_from_phases([], [])
    for trial in range(400):
        phases = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.25:
                phases.append(rng.randint(-7, 7))
            else:
                den, scale = rng.choice(dens), rng.randint(1, 4)
                phases.append(Fraction(scale * rng.randint(-9 * den, 9 * den),
                                       scale * den))
        if trial % 2:
            weights = [rng.randint(-5, 5) for _ in phases]
            got = cyclo_from_phases(phases, weights)
        else:
            weights = [1] * len(phases)
            got = cyclo_from_phases(phases)
        want = _literal_from_phases(phases, weights)
        # dataclass equality: the same order and the same coefficients
        assert got == want, (phases, weights)


def test_cyclo_is_zero_examples():
    sixth = cyclo_from_phases([Fraction(2 * j, 6) for j in range(6)])
    assert cyclo_is_zero(sixth)
    single = cyclo_from_phases([Fraction(2, 5)])
    assert not cyclo_is_zero(single)
    full = cyclo_from_phases([Fraction(2 * j, 17) for j in range(17)])
    assert cyclo_is_zero(full)


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
    # the empty sum is 0, whatever order it is held at
    acc = cyclo_add(cyclo_from_phases([]), cyclo_from_phases([0]))
    assert cyclo_to_complex(acc, 64).value == 1
    assert cyclo_is_zero(cyclo_add(acc, cyclo_from_phases([1])))


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


def test_bessel_rejects_bools_and_non_numbers():
    # x is a real number: True is not I_1's argument 1, nor '2' its 2
    for x in (True, False, "2", None, 2j):
        with pytest.raises(ValueError, match="^x must be a real number"):
            bessel_i1(x)
    assert bessel_i1(1.0).value == bessel_i1(1).value


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


def test_bessel_kernel_matches_public_on_seeded_grid():
    # the private kernel reads a raw mpf of at most prec + 24 bits, which
    # bessel_i1 would round to itself: mpfs drawn at prec, at prec + 24
    # bits and at fewer bits, over 21 binades, and zero; the literal mpf
    # series stays the oracle of both
    rng = random.Random(1205)
    checked = 0
    for prec in (8, 64, 128, 160, 192):
        xs = [mp.mpf(0)]
        for bits in (prec, prec + 24, max(8, prec // 3)):
            with mp.workprec(bits):
                xs += [mp.mpf(rng.getrandbits(bits) | 1) / 2 ** bits
                       * mp.mpf(2) ** rng.randint(-12, 8) for _ in range(40)]
        for x in xs:
            got = _bessel_i1_mpf(x._mpf_, prec)
            assert got == bessel_i1(x, prec).value._mpf_, (x, prec)
            assert got == _literal_bessel_i1(x, prec)._mpf_, (x, prec)
            checked += 1
    assert checked == 5 * 121


def test_default_precision_ignores_env(monkeypatch):
    # calls not given a precision run at 128 bits whatever the environment
    # holds; q_pochhammer has no precision argument, so its explicit run
    # carries 128 bits on HPReal arguments
    c17 = make_context(17)
    s = cyclo_from_phases([Fraction(1, 5), Fraction(2, 7)], [1, -2])

    def values(prec):
        z, q = (0.3, 0.5) if prec is None else (
            HPReal(mp.mpf(0.3), prec), HPReal(mp.mpf(0.5), prec))
        qc = q_constants(c17, prec)
        return [bessel_i1(Fraction(7, 3), prec), lambda_k(c17, 6, "plain", prec),
                cyclo_to_complex(s, prec), qc.q_r, qc.q_s, qc.q_big,
                q_pochhammer(z, q, 40)]

    explicit = values(128)
    for raw in ("40", "256", "junk"):
        monkeypatch.setenv("LEGPART_PRECISION", raw)
        for got, want in zip(values(None), explicit, strict=True):
            assert got.prec == 128, (raw, got)
            assert got.value == want.value, (raw, got)
