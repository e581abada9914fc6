import numpy as np
import pytest

from opuc import (
    ComplexPoly,
    PoleEvaluationError,
    RationalFn,
    VerblunskySequence,
    as_rational_F,
    as_rational_f,
    inverse_schur_step,
    pole_set,
    recover_coefficients,
    szego_polys,
    tail_schur,
    wall_polys,
)
from opuc.poly import roots as poly_roots
from opuc.schur import khrushchev_split

from helpers import (
    draw_head,
    draw_tail,
    draw_wide,
    random_admissible,
    random_nonclassical,
    reference_backward_schur,
    reference_second_kind_polys,
    reference_szego_polys,
    same_bits,
)

# ---------------------------------------------------------------------------
# RationalFn


def test_rationalfn_normalizes_denominator_at_zero():
    f = RationalFn(ComplexPoly([2, 2]), ComplexPoly([2, 1]))
    assert f.den(0) == 1
    assert f.num.coeffs == (1, 1)
    assert f.den.coeffs == (1, 0.5)


def test_rationalfn_rejects_pole_at_origin():
    with pytest.raises(ValueError):
        RationalFn(ComplexPoly([1]), ComplexPoly([0, 1]))


def test_rationalfn_construction_finds_no_roots(root_calls):
    num = ComplexPoly([1, -2]) * ComplexPoly([1, -0.3])
    den = ComplexPoly([2, -4.0000000002]) * ComplexPoly([1, 0.4])
    f = RationalFn(num, den)
    assert f.den(0) == 1 and f.num.degree == 2 and f.den.degree == 2  # kept as given
    as_rational_F(VerblunskySequence([2.0, 0.5, -0.3]))
    assert root_calls == []


def test_rationalfn_keeps_distinct_roots():
    f = RationalFn(ComplexPoly([1, -2]), ComplexPoly([1, -0.5]))
    assert f.num.coeffs == (1, -2) and f.den.coeffs == (1, -0.5)


# ---------------------------------------------------------------------------
# tails


def test_tail_empty_is_zero_function():
    f = tail_schur(VerblunskySequence([]), 0)
    assert f.num.is_zero() and f.den.coeffs == (1,)


def test_tail_single_coefficient_is_constant():
    f = tail_schur(VerblunskySequence([0.5]), 0)
    assert f.num.coeffs == (0.5,) and f.den.coeffs == (1,)


def test_tail_two_coefficients():
    # symbolic Wall product for (0.5, 0.3): (0.5 + 0.3 z) / (1 + 0.15 z)
    f = tail_schur(VerblunskySequence([0.5, 0.3]), 0)
    assert f.num.coeffs == (0.5, 0.3)
    assert f.den.coeffs == (1, 0.15)


def test_tail_requires_classical_coefficients():
    with pytest.raises(ValueError):
        tail_schur(VerblunskySequence([2, 0.5]), 0)


def test_tail_is_strictly_schur_on_circle():
    rng = np.random.default_rng(23)
    zs = np.exp(1j * 2 * np.pi * np.arange(1024) / 1024)
    for _ in range(20):
        seq = VerblunskySequence(
            [complex(m * np.exp(1j * a)) for m, a in
             zip(rng.uniform(0, 0.95, 6), rng.uniform(0, 2 * np.pi, 6))])
        f = tail_schur(seq, 0)
        assert np.all(np.abs(f.num(zs) / f.den(zs)) < 1.0)


def test_backward_schur_matches_the_polynomial_reference_bit_for_bit():
    # tails from N up to 2 beyond the stored list, f and F, on 60 sequences
    # with exact zeros and moduli up to 1e150
    rng = np.random.default_rng(92)
    for _ in range(60):
        seq = draw_wide(rng)
        L = len(seq)
        pairs = [(as_rational_f(seq), reference_backward_schur(seq.alphas))]
        pairs += [(tail_schur(seq, n), reference_backward_schur(seq.alphas[n:]))
                  for n in range(seq.N, L + 3)]
        pairs.append((as_rational_F(seq),
                      RationalFn(reference_second_kind_polys(seq, L)[1],
                                 reference_szego_polys(seq, L)[1])))
        for got, want in pairs:
            assert same_bits(got.num, want.num) and same_bits(got.den, want.den), seq.alphas


# ---------------------------------------------------------------------------
# f and F


def test_eval_f_at_origin_is_first_coefficient():
    assert as_rational_f(VerblunskySequence([2, 0.5])).value(0) == 2


def test_eval_f_closed_form():
    # wall product gives f = (2 + 0.5 z) / (1 + z)
    f = as_rational_f(VerblunskySequence([2, 0.5]))
    assert abs(f.value(1) - 1.25) < 1e-15
    assert abs(f.value(1j) - (1.25 - 0.75j)) < 1e-15


def test_eval_F_normalized_at_origin():
    for alphas in ([2, 0.5], [0.3, -0.4j], []):
        assert as_rational_F(VerblunskySequence(alphas)).value(0) == 1


def test_eval_F_closed_form():
    # F = (1 + 2z)/(1 - 2z) at z = i equals (-3 + 4i)/5
    got = as_rational_F(VerblunskySequence([2])).value(1j)
    assert abs(got - (-0.6 + 0.8j)) < 1e-15


def test_eval_F_at_pole_raises():
    with pytest.raises(PoleEvaluationError):
        as_rational_F(VerblunskySequence([2])).value(0.5)


def _wall_gap(f, wp):
    """Largest coefficient gap between f = num/den and the Wall pair A/B,
    relative to the largest Wall coefficient."""
    scale = max(abs(c) for c in wp.A.coeffs + wp.B.coeffs)
    gap = max(abs(c) for c in (f.num - wp.A).coeffs + (f.den - wp.B).coeffs)
    return gap / scale


def test_tail_matches_the_wall_product():
    # the backward Schur recursion against the transfer-matrix product of the
    # tail alone, behind nonclassical heads, for tails up to length 48
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(60):
        head = draw_head(rng, int(rng.integers(0, 5)))
        tail = draw_tail(rng, int(rng.integers(1, 49)), max_mod=0.99)
        seq = VerblunskySequence(head + tail)
        n = len(head)
        worst = max(worst, _wall_gap(tail_schur(seq, n),
                                     wall_polys(VerblunskySequence(tail), len(tail) - 1)))
    assert worst < 1e-13


def test_f_matches_the_wall_product():
    # f = A_{L-1}/B_{L-1} from the backward recursion and from the product
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(60):
        head = draw_head(rng, int(rng.integers(1, 5)))
        seq = VerblunskySequence(head + draw_tail(rng, int(rng.integers(0, 44)), max_mod=0.99))
        f = as_rational_f(seq)
        assert f.num(0) == seq.alpha(0) and f.den(0) == 1
        worst = max(worst, _wall_gap(f, wall_polys(seq, len(seq) - 1)))
    assert worst < 1e-13


def test_f_builds_no_wall_product(wall_builds):
    as_rational_f(VerblunskySequence([2.0, 0.5j, -0.3]))
    tail_schur(VerblunskySequence([2.0, 0.5j, -0.3]), 1)
    assert wall_builds == []


def test_as_rational_F_single():
    F = as_rational_F(VerblunskySequence([2]))
    assert F.num.coeffs == (1, 2) and F.den.coeffs == (1, -2)


def test_as_rational_F_empty():
    F = as_rational_F(VerblunskySequence([]))
    assert F.num.coeffs == (1,) and F.den.coeffs == (1,)


def test_as_rational_F_assembled():
    F = as_rational_F(VerblunskySequence([2, 0.5]))
    assert F.num.coeffs == (1, 3, 0.5)      # (1 + 2z) + 0.5 z (z + 2)
    assert F.den.coeffs == (1, -1, -0.5)    # (1 - 2z) - 0.5 z (z - 2)


def test_split_denominator_is_phi_L_star():
    # Phi_N* B_t - z Phi_N A_t, the denominator of Khrushchev's formula, is
    # Phi_L* (L = len(seq)); F = Psi_L*/Phi_L* rests on this
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(40):
        seq = random_nonclassical(rng, require_growth_window=False)
        split = khrushchev_split(seq, seq.N)
        den = split.phistar * split.tail.den - (split.phi * split.tail.num).shifted(1)
        _, phistar_L = szego_polys(seq, len(seq))
        scale = max(abs(c) for c in phistar_L.coeffs)
        worst = max(worst, max(abs(c) for c in (den - phistar_L).coeffs) / scale)
    assert worst < 1e-13


def test_as_rational_F_degree_bound():
    rng = np.random.default_rng(31)
    for _ in range(20):
        seq = random_admissible(rng)
        F = as_rational_F(seq)
        assert F.num.degree <= len(seq) and F.den.degree <= len(seq)


def test_caratheodory_routes_agree():
    # (1 + z f)/(1 - z f) against the cleared rational form, away from poles
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(12):
        seq = random_nonclassical(rng, require_growth_window=False)
        F = as_rational_F(seq)
        f = as_rational_f(seq)
        bad = list(pole_set(seq))
        if f.den.degree >= 1:
            bad += poly_roots(f.den)
        count = tries = 0
        while count < 45 and tries < 2000:
            tries += 1
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) > 0.95 or any(abs(z - p) < 0.05 for p in bad):
                continue
            count += 1
            fv = f(z)
            route_moebius = (1 + z * fv) / (1 - z * fv)
            route_rational = F(z)
            worst = max(worst, abs(route_moebius - route_rational) / max(1.0, abs(route_rational)))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# inverse steps


def test_step_constant_two():
    step = inverse_schur_step(RationalFn(ComplexPoly([2]), ComplexPoly([1])))
    assert step.alpha == 2 and not step.unimodular
    assert step.next_fn.num.is_zero()


def test_step_identity_map():
    step = inverse_schur_step(RationalFn(ComplexPoly([0, 1]), ComplexPoly([1])))
    assert step.alpha == 0
    assert step.next_fn.num.coeffs == (1,) and step.next_fn.den.coeffs == (1,)


def test_step_zero_function():
    step = inverse_schur_step(RationalFn(ComplexPoly([0]), ComplexPoly([1])))
    assert step.alpha == 0 and step.next_fn.num.is_zero()


def test_step_unimodular_flagged():
    step = inverse_schur_step(RationalFn(ComplexPoly([1]), ComplexPoly([1])))
    assert step.unimodular and step.next_fn is None and step.alpha == 1


# ---------------------------------------------------------------------------
# recovery


def test_recover_geometric():
    fstar = RationalFn(ComplexPoly([1, 2]), ComplexPoly([1, -2]))
    res = recover_coefficients(fstar, 5)
    assert res.termination is None
    assert res.alphas == (2, 0, 0, 0, 0)


def test_recover_constant_one():
    res = recover_coefficients(RationalFn(ComplexPoly([1]), ComplexPoly([1])), 4)
    assert res.alphas == (0, 0, 0, 0)


def test_recover_classical_single():
    res = recover_coefficients(RationalFn(ComplexPoly([1, 0.5]), ComplexPoly([1, -0.5])), 3)
    assert res.alphas == (0.5, 0, 0)


def test_recover_unimodular_termination():
    # F = (1 + z)/(1 - z) seeds f_0 = 1, so the recursion must stop at once
    res = recover_coefficients(RationalFn(ComplexPoly([1, 1]), ComplexPoly([1, -1])), 6)
    assert res.termination == "unimodular"
    assert res.alphas == (1,)


def test_recover_rejects_vanishing_normalization():
    with pytest.raises(ValueError):
        recover_coefficients(RationalFn(ComplexPoly([0, 1]), ComplexPoly([1])), 3)


def test_round_trip_reproduces_coefficients():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        seq = random_admissible(rng, head_max=6, tail_max=6)
        if len(seq) == 0:
            continue
        res = recover_coefficients(as_rational_F(seq), len(seq))
        assert res.termination is None
        worst = max(worst, max(abs(a - b) for a, b in zip(res.alphas, seq.alphas)))
    assert worst < 1e-9


def test_recovery_scale_invariant():
    rng = np.random.default_rng(43)
    for _ in range(10):
        seq = random_admissible(rng, head_max=4, tail_max=4)
        if len(seq) == 0:
            continue
        F = as_rational_F(seq)
        base = recover_coefficients(F, len(seq)).alphas
        for c in (2.5, -0.125):
            scaled = RationalFn(c * F.num, F.den)
            got = recover_coefficients(scaled, len(seq)).alphas
            assert max(abs(a - b) for a, b in zip(base, got)) < 1e-10
