"""Tests for the per-prime context and its constants."""

import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import mpmath as mp
import pytest

import legpart

from legpart.context import (
    legendre,
    make_context,
    norm_mod,
    power_class,
    q_constants,
    quartic_class,
)


def b1_chi(ctx, y) -> Fraction:
    """Twisted first Bernoulli function: sum over 0 <= n < y of -chi[n],
    corrected by chi[y]/2 at integers; p-periodic and odd away from integers.

    Evaluated in O(1) from the cumulative character table.
    """
    y = Fraction(y) % ctx.p
    fl = y.numerator // y.denominator
    out = Fraction(-ctx.chi_cumsum[fl])
    if y.denominator == 1:
        out += Fraction(ctx.chi[fl % ctx.p], 2)
    return out


def scaled_bernoulli2(ctx, a: int) -> int:
    """6 {a}_p^2 - 6 p {a}_p + p^2, i.e. 6 p^2 B_2({a}_p / p)."""
    m = a % ctx.p
    return 6 * m * m - 6 * ctx.p * m + ctx.p * ctx.p


def test_make_context_residue_sets():
    c5 = make_context(5)
    assert c5.r_set == (1,) and c5.s_set == (2,)
    c17 = make_context(17)
    assert c17.r_set == (1, 2, 4, 8)
    assert c17.s_set == (3, 5, 6, 7)
    assert c17.epsilon == 0
    assert c17.g == 3  # the tau table is stated for this root


def test_make_context_rejects_bad_p():
    for bad in (2, 3, 7, 9, 15, 21):
        with pytest.raises(ValueError):
            make_context(bad)
    for bad in (17.0, True, False):
        with pytest.raises(TypeError):
            make_context(bad)


def test_context_invariants():
    # make_context reads chi, epsilon and chi_cumsum off one discrete-log
    # walk; the literal routes are the oracles here: Euler's criterion, the
    # half factorial against i_unit, and a running sum.  Every prime
    # p = 1 (mod 4) below 3000, built uncached so the shared memo is not
    # churned; the O(p^2) multiplicativity check only for p <= 41.
    for p in range(5, 3000, 4):
        if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        ctx = make_context.__wrapped__(p)
        q = ctx.q
        assert ctx.chi[0] == 0
        for a in range(1, p):
            assert ctx.chi[a] == (1 if pow(a, q, p) == 1 else -1), (p, a)
        assert len(ctx.r_set) == len(ctx.s_set) == (p - 1) // 4
        assert sorted(ctx.r_set + ctx.s_set) == list(range(1, q + 1))
        assert ctx.i_unit ** 2 % p == p - 1
        assert math.factorial(q) % p == (ctx.i_unit if ctx.epsilon == 0
                                         else p - ctx.i_unit), p
        run = 0
        for t in range(p):
            run += ctx.chi[t]
            assert ctx.chi_cumsum[t] == run, (p, t)
        assert ctx.kappa_sq == Fraction(2, 3) * (1 - Fraction(1, p))
        if p <= 41:
            for a in range(1, p):
                for b in range(1, p):
                    assert ctx.chi[a] * ctx.chi[b] == ctx.chi[a * b % p]


def test_legendre_examples():
    c17 = make_context(17)
    c5 = make_context(5)
    assert legendre(c17, 17) == 0
    assert legendre(c17, 2) == 1
    assert legendre(c5, 2) == -1
    assert legendre(c5, -1) == 1  # p = 1 mod 4


def test_quartic_class_examples():
    c17 = make_context(17)
    assert quartic_class(c17, 1) == "quartic"
    assert quartic_class(c17, 2) == "quadratic-nonquartic"
    assert quartic_class(c17, 3) == "nonquadratic"
    assert quartic_class(c17, 34) == "zero"


def test_quartic_class_partition_sizes():
    for p in (5, 13, 17, 29):
        ctx = make_context(p)
        tally = {"quartic": 0, "quadratic-nonquartic": 0, "nonquadratic": 0}
        for a in range(1, p):
            tally[quartic_class(ctx, a)] += 1
        assert tally["quartic"] == (p - 1) // 4
        assert tally["quadratic-nonquartic"] == (p - 1) // 4
        assert tally["nonquadratic"] == (p - 1) // 2


def test_power_class_consistency():
    ctx = make_context(13)
    for a in range(1, 13):
        j = power_class(ctx, a)
        assert pow(ctx.g, ctx.dlog[a], 13) == a
        assert ctx.dlog[a] % 4 == j


def test_b2_values():
    assert make_context(17).b2 == 8
    assert make_context(5).b2 == Fraction(4, 5)
    assert make_context(13).b2 == 4


def test_b2_congruences_all_small_primes():
    # integral away from 5, and 0 or 4 mod 8 according to p mod 8
    p = 5
    while p <= 1000:
        if p % 4 == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1)):
            b2 = make_context(p).b2
            if p == 5:
                assert b2 == Fraction(4, 5)
            else:
                assert b2.denominator == 1
                want = 0 if p % 8 == 1 else 4
                assert int(b2) % 8 == want, (p, b2)
        p += 4


def test_frac_and_norm_mod():
    assert norm_mod(7, 10) == 3
    assert norm_mod(5, 10) == 5
    assert norm_mod(0, 9) == 0
    assert norm_mod(-3, 10) == 3
    # a and k are ints, k >= 1: no ZeroDivisionError, no float distance
    for a, k, name in ((3, 0, "k"), (3.5, 2, "a"), (True, 5, "a")):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            norm_mod(a, k)


def test_b1_chi_values_and_symmetry():
    c5 = make_context(5)
    assert b1_chi(c5, 0) == 0
    assert b1_chi(c5, Fraction(3, 2)) == -1
    assert b1_chi(c5, Fraction(13, 2)) == -1
    for p in (5, 13, 17):
        ctx = make_context(p)
        for num in range(1, 40):
            for den in (2, 3, 4, 7):
                y = Fraction(num, den)
                if y.denominator == 1:
                    continue
                assert b1_chi(ctx, -y) == -b1_chi(ctx, y)
                assert b1_chi(ctx, y + p) == b1_chi(ctx, y)


def test_b1_chi_complete_sums_vanish():
    # sum over a full period of the twist argument kills the sum
    p = 5
    while p <= 200:
        if p % 4 == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1)):
            ctx = make_context(p)
            for k in range(1, 51):
                if k % p == 0:
                    continue
                for y in (Fraction(0), Fraction(1, 2), Fraction(1, 3),
                          Fraction(7, 4)):
                    total = sum(b1_chi(ctx, k * lam + y) for lam in range(p))
                    assert total == 0, (p, k, y)
        p += 4


def test_scaled_bernoulli2():
    c17 = make_context(17)
    assert scaled_bernoulli2(c17, 0) == 289
    assert scaled_bernoulli2(c17, 17) == 289
    total = sum(scaled_bernoulli2(c17, mu) for mu in range(1, c17.q + 1))
    assert total == -136 == -17 * c17.q


def test_q_constants_closed_forms():
    with mp.workprec(160):
        cases = {
            17: 33 + 8 * mp.sqrt(17),
            5: (3 + mp.sqrt(5)) / 2,
            13: (11 + 3 * mp.sqrt(13)) / 2,
        }
        for p, want in cases.items():
            qc = q_constants(make_context(p), 128)
            assert abs(qc.q_big.value - want) / want < mp.mpf(2) ** (8 - 128)
            rel = abs(qc.q_big.value * qc.q_s.value ** 2 - qc.q_r.value ** 2)
            assert rel < mp.mpf(2) ** (8 - 128) * qc.q_r.value ** 2
    for prec in (True, 4, 128.0):
        with pytest.raises(ValueError):
            q_constants(make_context(5), prec)


def test_class_functions_reject_non_int():
    c17 = make_context(17)
    for a in (True, False, 2.5, 3.0, "3", Fraction(3)):
        for fn in (legendre, power_class, quartic_class):
            with pytest.raises(ValueError):
                fn(c17, a)


def _literal_q_constants(ctx, prec):
    """The cosecant products as q_constants first computed them, multiplying
    by each reciprocal: the oracle for the shared division loop."""
    with mp.workprec(prec + 16):
        scale = mp.mpf(2) ** (-(ctx.p - 1) // 4)
        qr = scale
        for r in ctx.r_set:
            qr *= 1 / mp.sinpi(mp.mpf(r) / ctx.p)
        qs = scale
        for s in ctx.s_set:
            qs *= 1 / mp.sinpi(mp.mpf(s) / ctx.p)
        qbig = (qr / qs) ** 2
        with mp.workprec(prec):
            return +qr, +qs, +qbig


def test_q_constants_match_literal_products_bitwise():
    primes = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101)
    for p in primes:
        ctx = make_context(p)
        for prec in (8, 24, 53, 64, 96, 128, 160, 256, 333):
            qc = q_constants(ctx, prec)
            want = _literal_q_constants(ctx, prec)
            got = (qc.q_r.value, qc.q_s.value, qc.q_big.value)
            assert [x._mpf_ for x in got] == [x._mpf_ for x in want], (p, prec)


def _ctx_entry_points() -> dict:
    """Every public function of each legpart module whose first parameter
    is ctx, by name."""
    found = {}
    for info in pkgutil.iter_modules(legpart.__path__):
        mod = importlib.import_module(f"legpart.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and [*inspect.signature(obj).parameters][:1] == ["ctx"]):
                found[name] = obj
    return found


@pytest.mark.parametrize("ctx", [None, 17])
def test_public_entry_points_reject_a_non_context(ctx):
    # each checks ctx before anything else, so every other required
    # argument can be 1
    entry_points = _ctx_entry_points()
    # one from each module that has any, so the search reaches them all
    assert {"legendre", "dedekind_s_chi", "kloosterman_dagger",
            "rademacher_eval"} <= set(entry_points)
    for name, fn in entry_points.items():
        params = [*inspect.signature(fn).parameters.values()][1:]
        args = [1 for prm in params if prm.default is prm.empty]
        with pytest.raises(ValueError, match=r"ctx must be a PrimeContext"):
            fn(ctx, *args)


# the package's exports before they were read off the module lists
_EARLIER_EXPORTS = """
    CyclotomicSum HPComplex HPReal InconclusiveError OrderCapError
    PrimeContext QConstants RademacherResult SeriesEvalConfig
    SignedPartitionTable bessel_i1 c_sequence cache_stats
    check_congruence_mod16 check_congruence_modThK cyclo_add
    cyclo_from_phases cyclo_is_zero cyclo_to_complex dedekind_s
    dedekind_s_chi dedekind_s_tilde dedekind_t dedekind_t_chi kloosterman_L
    kloosterman_L_nmd kloosterman_L_plus kloosterman_dagger lambda_exponent
    lambda_k lattice_floor_sum legendre make_context oracle_table
    q_constants q_pochhammer rademacher_eval sawtooth scan_vanishing
    sigma_coeffs tau_count theta_products verify_functional_equation
    verify_reciprocity_chi verify_reciprocity_classical verify_tau_table
""".split()


def test_every_exported_name_resolves():
    # each library module's __all__ is the one declaration of its public
    # names: every public function or class it defines is listed, every
    # listed name resolves, and the package exports the lists end to end
    # plus cache_stats.  verify and cli declare none and are not exported.
    lib = [importlib.import_module(f"legpart.{name}")
           for name in ("arith", "context", "dedekind", "charsums", "series")]
    for mod in lib:
        public = {name for name, obj in vars(mod).items()
                  if not name.startswith("_")
                  and (inspect.isclass(obj)
                       or inspect.isfunction(inspect.unwrap(obj)))
                  and obj.__module__ == mod.__name__}
        assert public <= set(mod.__all__), (mod.__name__,
                                             public - set(mod.__all__))
        for name in mod.__all__:
            assert getattr(legpart, name) is getattr(mod, name), (
                mod.__name__, name)
    for name in ("verify", "cli"):
        assert not hasattr(importlib.import_module(f"legpart.{name}"),
                           "__all__")
    exported = [name for mod in lib for name in mod.__all__]
    assert legpart.__all__ == [*exported, "cache_stats"]
    assert len(set(legpart.__all__)) == len(legpart.__all__) == 55
    assert set(_EARLIER_EXPORTS) <= set(legpart.__all__)
    assert len(_EARLIER_EXPORTS) == 46
    star = {}
    exec("from legpart import *", star)
    assert set(star) - {"__builtins__"} == set(legpart.__all__)
