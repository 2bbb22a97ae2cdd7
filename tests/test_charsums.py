"""Tests for phase exponents, Kloosterman-type sums, and congruence checkers."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from legpart.arith import (cyclo_add, cyclo_from_phases, cyclo_is_zero,
                           cyclo_neg, cyclo_to_complex, sawtooth)
import legpart.charsums
from legpart.charsums import (
    _lambda_parts,
    _sawtooth_pair_sum,
    _twisted_phases,
    check_congruence_mod16,
    check_congruence_modThK,
    kloosterman_L,
    kloosterman_L_nmd,
    kloosterman_L_plus,
    kloosterman_dagger,
    lambda_exponent,
    lambda_k,
    phi_root,
    tau_count,
    verify_tau_table,
)
from legpart.context import make_context, q_constants
from legpart.dedekind import dedekind_s, dedekind_s_chi

C5 = make_context(5)
C13 = make_context(13)
C17 = make_context(17)


def test_lambda_exponent_examples():
    assert lambda_exponent(C17, 3, 1).value == 0
    v = 24 * 17 * lambda_exponent(C17, 1, 17).value
    assert v.denominator == 1 and int(v) % 16 == 8
    # the double-sawtooth route agrees with the Dedekind-sum route
    assert (phi_root(C5, 1, 3) - lambda_exponent(C5, 1, 3).value) % 2 == 0


def test_lambda_exponent_rejects():
    with pytest.raises(ValueError):
        lambda_exponent(C17, 2, 4)
    with pytest.raises(ValueError):
        lambda_exponent(C17, 1, 0)
    with pytest.raises(ValueError):
        lambda_exponent(C17, 1, 1, variant="nope")
    for h, k in ((True, 3), (1, True), (1.0, 3), (1, 3.0)):
        with pytest.raises(ValueError):
            lambda_exponent(C17, h, k)


def _literal_lambda_parts(ctx, h, k):
    """The phases (plain, dagger) of one unit h/k by the formulas in
    lambda_exponent: the oracle for the per-modulus rows."""
    s1 = dedekind_s_chi(ctx, h, k)
    s2 = dedekind_s_chi(ctx, 2 * h, k)
    tail = dedekind_s(2 * h, k) - dedekind_s(2 * h * ctx.p, k)
    half = Fraction(1, 2)
    return s1 - half * s2 + half * tail, half * s2 - s1 + half * tail


def test_lambda_parts_rows_match_per_unit_formula(monkeypatch):
    for ctx in (C5, C13, C17):
        p = ctx.p
        for k in [*range(1, 41), 3 * p, 4 * p, 5 * p]:
            row = _lambda_parts(p, k)
            assert len(row) == k
            for h, parts in enumerate(row):
                if math.gcd(h, k) != 1:
                    assert parts is None, (p, h, k)
                else:
                    assert parts == _literal_lambda_parts(ctx, h, k), (p, h, k)
    # the exact sums and the series' phase vectors read the rows, not the
    # per-unit accessor
    def refuse(*args, **kwargs):
        raise AssertionError("lambda_exponent on the twisted-sum path")

    monkeypatch.setattr(legpart.charsums, "lambda_exponent", refuse)
    for k in (1, 2, 3, 12, 17, 51):
        for variant in ("plain", "dagger"):
            got = dict(_twisted_phases(17, variant, k, 0, None))
            assert got == {h: parts[variant == "dagger"] % 2
                           for h, parts in enumerate(_lambda_parts(17, k))
                           if parts is not None}, (k, variant)
    assert kloosterman_L_plus(C17, 51, 8, 2).is_zero()
    assert not kloosterman_L(C17, 3, 1, "dagger").is_zero()


def test_phi_root_examples():
    assert phi_root(C5, 1, 1) == 0
    assert (phi_root(C5, 3, 6) - phi_root(C5, 1, 2)) % 2 == 0
    assert (phi_root(C17, 2, 17) - lambda_exponent(C17, 2, 17).value) % 2 == 0


def test_phi_root_rejects():
    with pytest.raises(ValueError):
        phi_root(C17, 1, 0)
    with pytest.raises(ValueError):
        phi_root(C17, 1, 1, variant="nope")
    for h, k in ((True, 3), (1, True), (1.0, 3), (1, 3.0)):
        with pytest.raises(ValueError):
            phi_root(C17, h, k)


def _literal_sawtooth_pair_sum(ctx, members, h, k):
    """The double sawtooth sum term by term in Fractions, scanning every
    mu mod lcm(k,p) for the classes +-a mod p."""
    p = ctx.p
    L = math.lcm(k, p)
    total = Fraction(0)
    for a in members:
        targets = {a % p, (p - a) % p}
        for mu in range(L):
            if mu % p in targets:
                total += sawtooth(Fraction(h * mu, k)) * sawtooth(Fraction(mu, L))
    return total


@pytest.mark.parametrize("ctx", (C5, C13, C17), ids=("p5", "p13", "p17"))
def test_phi_root_matches_literal_sawtooth_sums(ctx):
    # every h in -3..k+3, so negative h, h > k and non-coprime pairs too;
    # ((x)) is 1-periodic, so the literal sum at h equals the one at h mod k
    p = ctx.p
    memo = {}

    def literal(cls, h, k):
        members = ctx.r_set if cls == "r" else ctx.s_set
        key = (cls, h % k, k)
        if key not in memo:
            memo[key] = _literal_sawtooth_pair_sum(ctx, members, h % k, k)
        assert _sawtooth_pair_sum(ctx, members, h, k) == memo[key], (cls, h, k)
        return memo[key]

    for k in sorted(set(range(1, 41)) | {p, 2 * p, 3 * p}):
        for h in range(-3, k + 4):
            er, es = literal("r", h, k), literal("s", h, k)
            er2, es2 = literal("r", 2 * h, k), literal("s", 2 * h, k)
            assert phi_root(ctx, h, k) == (er + es2 - es) % 2, (h, k)
            assert phi_root(ctx, h, k, "dagger") == (er2 - er + es) % 2, (h, k)


def test_phase_routes_agree():
    # both variants, every prime, exact equality of the two evaluations
    rng = random.Random(44721)
    for ctx in (C5, C13, C17):
        pairs = [(h, k) for k in range(1, 31)
                 for h in range(1, k + 1) if math.gcd(h, k) == 1]
        sample = rng.sample(pairs, 40) if ctx.p > 5 else pairs
        for (h, k) in sample:
            for variant in ("plain", "dagger"):
                a = phi_root(ctx, h, k, variant)
                b = lambda_exponent(ctx, h, k, variant).value
                assert (a - b) % 2 == 0, (ctx.p, h, k, variant)


def test_phase_scaling_law():
    rng = random.Random(90121)
    for ctx in (C5, C17):
        for _ in range(15):
            k = rng.randint(1, 12)
            h = rng.randint(1, k)
            if math.gcd(h, k) != 1:
                continue
            q = rng.choice((2, 3, 4))
            assert (phi_root(ctx, q * h, q * k) - phi_root(ctx, h, k)) % 2 == 0


def test_lambda_k_pinned_values():
    assert lambda_k(C17, 17).value == 1
    assert lambda_k(C17, 34).value == 1
    with mp.workprec(160):
        qr = mp.sqrt(1 + 4 / mp.sqrt(17))
        assert abs(lambda_k(C17, 1).value - qr) < mp.mpf(2) ** -100
    # p = 1 mod 8: the weight only depends on the residue class of k
    assert abs(lambda_k(C17, 2).value - lambda_k(C17, 1).value) < mp.mpf(2) ** -100
    l3 = lambda_k(C17, 3)
    l6 = lambda_k(C17, 6)
    assert abs(l3.value - l6.value) < mp.mpf(2) ** -100
    # dagger swaps the classes; Q_r Q_s = 1/sqrt(p) gives the closed form
    with mp.workprec(160):
        qs = 1 / mp.sqrt(17 + 4 * mp.sqrt(17))
    dg = lambda_k(C17, 1, variant="dagger")
    qc = q_constants(C17, 128)
    assert abs(dg.value - qc.q_s.value) < mp.mpf(2) ** -100
    assert abs(dg.value - qs) < mp.mpf(2) ** -90
    for prec in (True, 4, 128.0):
        with pytest.raises(ValueError):
            lambda_k(C17, 3, "plain", prec)


def test_lambda_k_even_p5():
    # pinned by the even-k cosecant product and confirmed against the
    # modular transformation numerically; the doubling-law shortcut of the
    # source overshoots these by a power of Q
    qc = q_constants(C5, 128)
    l1 = lambda_k(C5, 1).value
    l2 = lambda_k(C5, 2).value
    l4 = lambda_k(C5, 4).value
    with mp.workprec(160):
        assert abs(l2 - l1 / qc.q_big.value) < mp.mpf(2) ** -90
        assert abs(l4 - l1 * mp.sqrt(qc.q_big.value)) < mp.mpf(2) ** -90
        # closed form sin(2 pi/5)/(2 sin^2(pi/5)) for the k=4 weight
        want = mp.sinpi(mp.mpf(2) / 5) / (2 * mp.sinpi(mp.mpf(1) / 5) ** 2)
        assert abs(l4 - want) < mp.mpf(2) ** -90


def test_kloosterman_L_examples():
    one = kloosterman_L(C17, 1, 5)
    assert cyclo_to_complex(one.sum, 64).value == 1
    L6 = kloosterman_L(C17, 6, 3)
    L3 = kloosterman_L(C17, 3, 3)
    assert cyclo_is_zero(cyclo_add(L6.sum, L3.sum))  # odd n: L6 = -L3
    assert kloosterman_L(C17, 4, 1).is_zero()
    with pytest.raises(ValueError):
        kloosterman_L(C17, 34, 1)


def test_kloosterman_doubling_grid():
    # L_{2k}(n) = (-1)^n L_k(n) for odd k coprime to p
    for variant in ("plain", "dagger"):
        for k in range(1, 26, 2):
            if k % 17 == 0:
                continue
            for n in range(1, 13):
                a = kloosterman_L(C17, 2 * k, n, variant=variant)
                b = kloosterman_L(C17, k, n, variant=variant)
                want = b.sum if n % 2 == 0 else cyclo_neg(b.sum)
                assert cyclo_is_zero(cyclo_add(a.sum, cyclo_neg(want))), \
                    (variant, k, n)


def test_kloosterman_quadrupling_grid():
    # multiples of 4 kill every odd-n sum
    for variant in ("plain", "dagger"):
        for k4 in range(4, 49, 4):
            if k4 % 17 == 0:
                continue
            for n in range(1, 12, 2):
                assert kloosterman_L(C17, k4, n, variant=variant).is_zero(), \
                    (variant, k4, n)


def test_kloosterman_L_plus_examples():
    assert kloosterman_L_plus(C17, 17, 2, 0).is_zero()
    assert not kloosterman_L_plus(C17, 17, 1, 0).is_zero()
    assert kloosterman_L_plus(C17, 51, 19, 2).is_zero()
    with pytest.raises(ValueError):
        kloosterman_L_plus(C17, 34, 1, 0)
    with pytest.raises(ValueError):
        kloosterman_L_plus(C17, 3, 1, 0)


def test_kloosterman_L_plus_vanishing_classes():
    # the quadratic-class sums with m in {0,2} vanish exactly on the four
    # flagged residue classes of n
    for K in (17, 51):
        for n in range(17):
            for m in (0, 2):
                got = kloosterman_L_plus(C17, K, n, m).is_zero()
                if n % 17 in (0, 2, 8, 10):
                    assert got, (K, n, m)


def test_kloosterman_L_nmd_examples():
    acc = None
    for d in range(1, 17):
        if C17.chi[d] == 1:
            part = kloosterman_L_nmd(C17, 17, 1, 0, d)
            acc = part.sum if acc is None else cyclo_add(acc, part.sum)
    plus = kloosterman_L_plus(C17, 17, 1, 0)
    assert cyclo_is_zero(cyclo_add(acc, cyclo_neg(plus.sum)))

    nmd = kloosterman_L_nmd(C5, 10, 1, 0, 1)
    terms = len([h for h in range(10) if math.gcd(h, 10) == 1 and h % 5 == 1])
    assert abs(complex(cyclo_to_complex(nmd.sum, 64).value)) <= terms + 1e-9
    t2 = len([h for h in range(10) if math.gcd(h, 10) == 1 and h % 5 == 2])
    t3 = len([h for h in range(10) if math.gcd(h, 10) == 1 and h % 5 == 3])
    assert t2 == t3


def test_kloosterman_trivial_bound():
    cases = [
        kloosterman_L(C17, 15, 7),
        kloosterman_L(C13, 9, 2, variant="dagger"),
        kloosterman_L_plus(C17, 51, 5, 1),
        kloosterman_L_nmd(C17, 34, 3, 1, 4),
        kloosterman_dagger(C17, 51, 3, m=1),
        kloosterman_dagger(C5, 15, 2, m=0),
    ]
    for s in cases:
        assert abs(complex(cyclo_to_complex(s.sum, 96).value)) \
            <= s.sum.weight() + 1e-9


def test_kloosterman_dagger_examples():
    D6 = kloosterman_dagger(C17, 6, 3)
    D3 = kloosterman_dagger(C17, 3, 3)
    assert cyclo_is_zero(cyclo_add(D6.sum, D3.sum))
    assert kloosterman_dagger(C17, 4, 1).is_zero()
    assert kloosterman_dagger(C17, 17, 11, m=0).is_zero()
    with pytest.raises(ValueError):
        kloosterman_dagger(C17, 6, 3, m=1)
    with pytest.raises(ValueError):
        kloosterman_dagger(C17, 17, 3)


def test_kloosterman_dagger_vanishing_classes():
    for K in (17, 51):
        for n in range(17):
            if n % 17 in (11, 12, 15, 16):
                assert kloosterman_dagger(C17, K, n, m=0).is_zero(), (K, n)
                assert kloosterman_dagger(C17, K, n, m=2).is_zero(), (K, n)


def _literal_twisted_sum(ctx, k, n, m, variant, keep):
    """The docstring definition, kept as the oracle for the shared builder:
    every unit h mod k (h=0 when k=1) with keep(h mod p), the exact phase,
    and the twist n h + m inv, inv = h^{-1} for even k, (2h)^{-1} for odd k."""
    phases = []
    for h in range(k):
        if math.gcd(h, k) != 1 or not keep(h % ctx.p):
            continue
        inv = pow(h if k % 2 == 0 else 2 * h, -1, k)
        phases.append(lambda_exponent(ctx, h, k, variant).value
                      - Fraction(2 * (n * h + m * inv), k))
    return cyclo_from_phases(phases)


def test_twisted_sums_match_literal_definition():
    for ctx in (C5, C17):
        p = ctx.p
        every = lambda r: True
        quadratic = lambda r: ctx.chi[r] == 1
        nonquadratic = lambda r: ctx.chi[r] == -1
        cases = []
        for k in (1, 2, 3, 4, 6, 9, 12):
            for n in (0, 1, 7, -2):
                for variant in ("plain", "dagger"):
                    cases.append((kloosterman_L(ctx, k, n, variant),
                                  (k, n, 0, variant, every)))
                cases.append((kloosterman_dagger(ctx, k, n),
                              (k, n, 0, "dagger", every)))
        for K in (p, 3 * p):
            for n in (0, 1, 7, -2, K + 3):
                for m in (0, 1, -3, K):
                    cases.append((kloosterman_L_plus(ctx, K, n, m),
                                  (K, n, m, "plain", quadratic)))
                    cases.append((kloosterman_dagger(ctx, K, n, m=m),
                                  (K, n, m, "dagger", nonquadratic)))
        for k in (p, 2 * p, 3 * p):
            for n in (0, 1, 7, -2, k + 3):
                for m in (0, 1, -3, k):
                    for d in (1, 2, p - 1):
                        for variant in ("plain", "dagger"):
                            cases.append((
                                kloosterman_L_nmd(ctx, k, n, m, d, variant),
                                (k, n, m, variant, lambda r, d=d: r == d)))
        for got, (k, n, m, variant, keep) in cases:
            want = _literal_twisted_sum(ctx, k, n, m, variant, keep)
            assert got.sum == want, (p, got.kind, got.params, variant)


def test_tau_count_examples():
    assert tau_count(C17, 1, 17, "es").count % 2 == 0
    assert tau_count(C17, 2, 17, "es").count % 2 == 1
    assert tau_count(C17, 1, 17, "os").count % 2 == 0
    with pytest.raises(ValueError):
        tau_count(C17, 1, 17, "xx")
    with pytest.raises(ValueError):
        tau_count(C17, 1, 34, "es")
    with pytest.raises(ValueError):
        tau_count(C17, 17, 51, "es")


def test_entry_points_reject_bools_and_floats():
    # every k, K, n, m, h and d is an int that is not a bool
    calls = [
        lambda v: lambda_k(C17, v),
        lambda v: kloosterman_L(C17, v, 1),
        lambda v: kloosterman_L(C17, 3, v),
        lambda v: kloosterman_L_plus(C17, v, 1, 0),
        lambda v: kloosterman_L_plus(C17, 17, v, 0),
        lambda v: kloosterman_L_plus(C17, 17, 1, v),
        lambda v: kloosterman_L_nmd(C17, 34, v, 0, 1),
        lambda v: kloosterman_L_nmd(C17, 34, 1, v, 1),
        lambda v: kloosterman_L_nmd(C17, 34, 1, 0, v),
        lambda v: kloosterman_dagger(C17, v, 1),
        lambda v: kloosterman_dagger(C17, 17, v, 0),
        lambda v: kloosterman_dagger(C17, 17, 1, v),
        lambda v: tau_count(C17, v, 17, "er"),
        lambda v: check_congruence_mod16(C17, v, 17),
        lambda v: check_congruence_modThK(C17, v, 17),
    ]
    for call in calls:
        for v in (True, 1.0, 3.0):
            with pytest.raises(ValueError):
                call(v)
    for v in (True, 17.0):
        with pytest.raises(ValueError):
            kloosterman_dagger(C17, v, 1, 0)
        with pytest.raises(ValueError):
            tau_count(C17, 1, v, "er")


def test_tau_complementarity_and_transfer():
    # nonquadratic h: the even-class counters have opposite parities; the
    # odd-class counters differ from the even ones by (p-1)/4
    for ctx in (C5, C13, C17):
        p = ctx.p
        t = ((p - 1) // 4) % 2
        for K in range(p, 15 * p + 1, 2 * p):
            for h in range(1, K):
                if math.gcd(h, K) != 1:
                    continue
                er = tau_count(ctx, h, K, "er").count
                es = tau_count(ctx, h, K, "es").count
                orr = tau_count(ctx, h, K, "or").count
                os = tau_count(ctx, h, K, "os").count
                if ctx.chi[h % p] == -1:
                    assert (er + es) % 2 == 1, (p, h, K)
                assert os % 2 == (t + es) % 2, (p, h, K)
                assert orr % 2 == (t + er) % 2, (p, h, K)


def test_tau_table_reports():
    for ctx, K_max in ((C17, 171), (C5, 105), (C13, 117)):
        rep = verify_tau_table(ctx, K_max)
        assert rep["ok"], rep["failures"][:3]
        assert rep["checks"] > 0


def test_tau_table_rejects_vacuous_bounds():
    # a bound below p checks no K, which must not read as a pass
    for K_max in (True, 16, 51.0):
        with pytest.raises(ValueError, match="K_max"):
            verify_tau_table(C17, K_max)
    assert verify_tau_table(C17, 17)["checks"] > 0


def test_congruence_mod16_examples():
    assert check_congruence_mod16(C17, 1, 17, "plain")
    assert check_congruence_mod16(C17, 5, 51, "plain")
    assert check_congruence_mod16(C17, 3, 17, "dagger")


def test_congruence_modThK_examples():
    assert check_congruence_modThK(C17, 2, 17, "plain")
    assert check_congruence_modThK(C17, 2, 51, "plain")
    assert check_congruence_modThK(C17, 3, 17, "dagger")


def test_congruence_suites_sampled():
    # the acceptance suite runs these exhaustively to K <= 20p; here a
    # seeded sample across primes, variants, and residue classes
    rng = random.Random(31811)
    for ctx in (C5, C13, C17):
        p = ctx.p
        Ks = [k * p for k in range(1, 20, 2)]
        for _ in range(60):
            K = rng.choice(Ks)
            h = rng.randint(1, K - 1)
            if math.gcd(h, K) != 1:
                continue
            for variant in ("plain", "dagger"):
                assert check_congruence_mod16(ctx, h, K, variant), \
                    (p, h, K, variant)
                assert check_congruence_modThK(ctx, h, K, variant), \
                    (p, h, K, variant)


def test_quartic_class_controls_mod16_residue():
    # quadratic h: cleared phase is 0 mod 16 when 2h is a quartic residue
    # and 8 when 2h is quadratic-nonquartic
    from legpart.context import quartic_class
    for K in (17, 51, 85):
        for h in range(1, K):
            if math.gcd(h, K) != 1 or C17.chi[h % 17] != 1:
                continue
            v = 24 * K * lambda_exponent(C17, h, K).value
            assert v.denominator == 1
            cls = quartic_class(C17, 2 * h)
            want = 0 if cls == "quartic" else 8
            assert int(v) % 16 == want, (h, K, cls)


def test_quartic_class_controls_mod16_residue_dagger():
    # nonquadratic h at p=17: 8 mod 16 when h/g is quartic, 0 when
    # quadratic-nonquartic
    from legpart.context import quartic_class
    ginv = pow(C17.g, -1, 17)
    for K in (17, 51):
        for h in range(1, K):
            if math.gcd(h, K) != 1 or C17.chi[h % 17] != -1:
                continue
            v = 24 * K * lambda_exponent(C17, h, K, "dagger").value
            assert v.denominator == 1
            cls = quartic_class(C17, ginv * h)
            want = 8 if cls == "quartic" else 0
            assert int(v) % 16 == want, (h, K, cls)
