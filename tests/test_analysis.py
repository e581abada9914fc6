import cmath
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opuc.analysis
from opuc import (
    AmbiguousRootError,
    ComplexPoly,
    CrossCheckError,
    QuadratureError,
    VerblunskySequence,
    as_rational_F,
    boyd_integral,
    circle_quadrature,
    moments,
    omega,
    pole_set,
    re_F_khrushchev,
    szego_polys,
    szego_verify,
    tail_schur,
    zero_count_trace,
    zero_migration,
)
from opuc.analysis import NEAR_ROOT_BAND
from opuc.poly import RootFindingError, roots as poly_roots, split_by_circle

from helpers import (
    NEAR_COMMON_ROOT_ALPHAS,
    draw_near_circle,
    draw_near_circle_tail,
    draw_tail,
    draw_wide,
    horner_on_circle,
    near_circle_coefficient,
    independent_phi_N_star_count,
    independent_star_counts,
    random_classical,
    random_nonclassical,
)

# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_constant():
    # one level: g is sampled once, at the m angles 2 pi k / m
    sampled = []

    def ones(t):
        sampled.append(t)
        return np.ones_like(t)

    assert circle_quadrature(ones, 64) == 1.0
    assert len(sampled) == 1
    assert np.array_equal(sampled[0], 2 * np.pi * np.arange(64) / 64)


def test_quadrature_cosine():
    assert abs(circle_quadrature(np.cos, 64)) < 1e-15


def test_quadrature_log_modulus_outside_root():
    # oracle: mean of log|1 - 2 e^{i t}|^2 is 2 log 2 (the root 1/2 lies
    # inside), on the grid the sizing rule gives for that root
    m = opuc.analysis._trapezoid_points([0.5])
    value = circle_quadrature(lambda t: np.log(np.abs(1 - 2 * np.exp(1j * t)) ** 2), m)
    assert m == 64 and abs(value - 2 * math.log(2)) < 1e-14


def test_quadrature_reports_the_point_cap():
    # a root 2e-6 off the circle asks for more than 2^20 points: refused
    cap = "the trapezoid rule needs more than 1048576 points: a root lies about 2.0e-06 off"
    with pytest.raises(QuadratureError, match=cap):
        opuc.analysis._trapezoid_points([1 + 2e-6])


@pytest.mark.parametrize("m", [0, -1])
def test_quadrature_refuses_a_grid_of_no_points(m):
    with pytest.raises(ValueError, match=f"got m = {m}$"):
        circle_quadrature(np.cos, m)


def test_quadrature_error_when_never_finite():
    with pytest.raises(QuadratureError, match="integrand not finite on the 64-point grid"):
        circle_quadrature(lambda t: np.full_like(t, np.nan), 64)


def test_quadrature_refuses_a_singular_sample():
    # log|1 - e^{it}| is -inf exactly at t = 0, a grid point: refused, with
    # no half-step retry and no numpy warning (the suite turns warnings
    # into errors)
    with pytest.raises(QuadratureError, match="not finite on the 128-point grid"):
        circle_quadrature(lambda t: np.log(np.abs(1 - np.exp(1j * t))), 128)


@pytest.mark.parametrize("r", [0.9, 1.1])
def test_quadrature_levels_equal_the_full_grid_mean(r):
    def g(t):
        return np.log(np.abs(1 - r * np.exp(1j * t)) ** 2)

    for m in (64 << k for k in range(9)):
        assert abs(circle_quadrature(g, m) - np.mean(g(2 * np.pi * np.arange(m) / m))) < 1e-15


@pytest.mark.parametrize("roots, points", [
    ([], 64), ([0.5], 64), ([0.9], 512), ([1.1], 512), ([1 / 1.1], 512),
    ([1 / 1.1] * 10 ** 4, 512),
], ids=["none", "0.5", "0.9", "1.1", "1/1.1", "10^4 at 1/1.1"])
def test_trapezoid_points_come_from_the_roots(roots, points):
    # every root left in Q lies at least NEAR_ROOT_BAND = 0.1 off the circle,
    # so no case needs more than 512 points
    assert opuc.analysis._trapezoid_points(roots) == points


def _far_roots(**bounds):
    return st.complex_numbers(allow_nan=False, allow_infinity=False, **bounds).filter(
        lambda r: abs(abs(r) - 1.0) >= NEAR_ROOT_BAND)  # _khrushchev_split's far roots


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_far_roots(max_magnitude=1.0 - NEAR_ROOT_BAND),
                          _far_roots(min_magnitude=1.0 + NEAR_ROOT_BAND,
                                     max_magnitude=1e308)), max_size=1000))
def test_trapezoid_points_never_exceed_512_off_the_near_root_band(roots):
    # the ceiling README states for szego_verify's grid, whose sizing sees
    # only roots at least NEAR_ROOT_BAND off the circle; the 2^20 refusal
    # guards direct calls
    # (moduli stop at 1e308, as poly.roots returns only finite ones and abs
    # of a draw near the largest double overflows)
    assert opuc.analysis._trapezoid_points(roots) <= 512


@pytest.mark.parametrize("m", [64, 128])
def test_trapezoid_error_of_a_log_root_term_is_exact(m):
    # over the m-th roots of unity prod (r - z) = r^m - 1: the m-point mean
    # of log|z - r|^2 is (2/m) log|1 - r^m| for r inside the disk, whose
    # exact mean is 0; the sizing rule rests on this identity
    r = 0.5 + 0.3j
    zs = np.exp(2j * np.pi * np.arange(m) / m)
    assert abs(np.mean(np.log(np.abs(zs - r) ** 2)) - 2 / m * math.log(abs(1 - r ** m))) < 1e-15


# ---------------------------------------------------------------------------
# Khrushchev values


def test_khrushchev_single_big_coefficient():
    # omega_0 = -3, f_1 = 0, |1 - 2i|^2 = 5
    got = re_F_khrushchev(VerblunskySequence([2]), 1, math.pi / 2)
    assert abs(got - (-0.6)) < 1e-14


def test_khrushchev_single_classical():
    got = re_F_khrushchev(VerblunskySequence([0.5]), 1, 0.0)
    assert abs(got - 3.0) < 1e-13


def test_khrushchev_lebesgue():
    for theta in (0.0, 1.0, 2.5):
        assert re_F_khrushchev(VerblunskySequence([]), 0, theta) == 1.0


def test_khrushchev_matches_direct_on_grid():
    rng = np.random.default_rng(53)
    thetas = 2 * np.pi * np.arange(256) / 256
    zs = np.exp(1j * thetas)
    for _ in range(6):
        seq = random_nonclassical(rng, require_growth_window=False)
        F = as_rational_F(seq)
        direct = (F.num(zs) / F.den(zs)).real
        scale = np.maximum(1.0, np.abs(direct))
        for n in range(seq.N, len(seq) + 1):
            formula = np.array([re_F_khrushchev(seq, n, t) for t in thetas[:32]])
            assert np.max(np.abs(formula - direct[:32]) / scale[:32]) < 1e-10


def test_khrushchev_array_matches_scalar():
    seq = VerblunskySequence([2.0, 0.5j, -0.3])
    thetas = 2 * np.pi * np.arange(16) / 16
    values = re_F_khrushchev(seq, seq.N, thetas)
    assert values.shape == thetas.shape
    assert values.tolist() == [re_F_khrushchev(seq, seq.N, float(t)) for t in thetas]


def _mp_re_F(alphas, thetas) -> list[mpmath.mpf]:
    """Re(Psi_L*/Phi_L*) at ``thetas`` at 40 digits, both polynomials from
    the recurrence in mpmath (Psi's with the coefficients negated)."""
    with mpmath.workdps(40):
        one, zero = mpmath.mpc(1), mpmath.mpc(0)
        phi, phistar, psi, psistar = [one], [one], [one], [one]
        for a in alphas:
            a = mpmath.mpc(a.real, a.imag)
            zphi, padded = [zero] + phi, phistar + [zero]
            phi = [p - mpmath.conj(a) * q for p, q in zip(zphi, padded)]
            phistar = [q - a * p for p, q in zip(zphi, padded)]
            zpsi, padded = [zero] + psi, psistar + [zero]
            psi = [p + mpmath.conj(a) * q for p, q in zip(zpsi, padded)]
            psistar = [q + a * p for p, q in zip(zpsi, padded)]
        zs = [mpmath.expj(mpmath.mpf(float(t))) for t in thetas]
        return [mpmath.re(mpmath.polyval(psistar[::-1], z) / mpmath.polyval(phistar[::-1], z))
                for z in zs]


# three roots of Phi_L* near the circle, and none: both checks run on every case
_CHECKED = ([2.0, 0.95, -0.95j, 0.9], [2.0, 0.5j, -0.3, 0.2])


def _worst_khrushchev_miss(seq, n, thetas) -> float:
    got = re_F_khrushchev(seq, n, thetas)
    return max(float(abs(g - r) / abs(r)) for g, r in zip(got, _mp_re_F(seq.alphas, thetas)))


def test_khrushchev_matches_40_digits():
    # where |B_t|^2 - |A_t|^2 would cancel far below its terms: tails of
    # 31-61 coefficients of modulus 0.7, and factors 1 - |alpha_j|^2 near
    # 1e-8, whose miss is the rounding of 1 - h h (_log_omega)
    thetas = 2 * np.pi * np.arange(8) / 8 + 0.3
    rng = np.random.default_rng(0)
    for head, L in (([2.0], 32), ([2.0, -1.5j], 48), ([1.5, 0.3, -2j], 64)):
        tail = 0.7 * np.exp(2j * np.pi * rng.uniform(size=L - len(head)))
        seq = VerblunskySequence(head + tail.tolist())
        assert _worst_khrushchev_miss(seq, seq.N, thetas) < 1e-12
    draws = random.Random(3)
    for _ in range(20):
        seq = draw_near_circle_tail(draws)
        assert _worst_khrushchev_miss(seq, seq.N, thetas) < 1e-8
    # short sequences through the tail at every index from N to L
    for alphas in (*_CHECKED, [2.0, 0.5], [2.0], [0.5]):
        seq = VerblunskySequence(alphas)
        for n in range(seq.N, len(seq) + 1):
            assert _worst_khrushchev_miss(seq, n, thetas) < 1e-13, (alphas, n)


# ---------------------------------------------------------------------------
# poles


def test_pole_set_single():
    assert np.allclose(pole_set(VerblunskySequence([2])), [0.5])


def test_pole_set_classical_empty():
    assert pole_set(VerblunskySequence([0.7, 0.2])) == []


def test_pole_set_two_coefficients():
    # denominator 1 - z - 0.5 z^2 has roots -1 +- sqrt(3); only sqrt(3) - 1 is inside
    got = pole_set(VerblunskySequence([2, 0.5]))
    assert len(got) == 1
    assert abs(got[0] - (math.sqrt(3) - 1)) < 1e-12


def test_pole_set_guard_band_refuses():
    with pytest.raises(AmbiguousRootError, match="denominator roots in the circle guard band"):
        pole_set(guard_band_sequence())


def phi2_sequence(r1: complex, r2: complex) -> VerblunskySequence:
    """The pair (alpha_0, alpha_1) whose Phi_2 has the zeros r1 and r2, by
    inverting one recurrence step to read the coefficients off."""
    phi2 = ComplexPoly([r1 * r2, -(r1 + r2), 1])
    alpha1 = -phi2(0).conjugate()
    num = phi2 + alpha1.conjugate() * phi2.reverse(2)
    w = 1 - abs(alpha1) ** 2
    phi1 = ComplexPoly([c / w for c in num.coeffs[1:]])
    alpha0 = -phi1(0).conjugate()
    return VerblunskySequence([alpha0, alpha1])


def guard_band_sequence() -> VerblunskySequence:
    """Admissible pair whose Phi_2* has a zero 5e-9 inside the circle: one
    zero of Phi_2 is prescribed just outside it."""
    return phi2_sequence(1.2 * cmath.exp(0.7j), (1 + 5e-9) * cmath.exp(4.0j))


def test_pole_set_merges_the_split_double_zero_of_phi_2_star():
    # Phi_2 = (z - R)^2: the root finder splits the double zero 1/conj(R) of
    # Phi_2* into two values 3e-8 apart, which _cluster_poles merges
    R = 1.5 * cmath.exp(0.9j)
    seq = phi2_sequence(R, R)
    found = poly_roots(szego_polys(seq, 2)[1])
    assert len(found) == 2 and 1e-9 < abs(found[0] - found[1]) < 1e-7
    poles = pole_set(seq)
    assert len(poles) == 2 and poles[0] == poles[1]
    assert abs(poles[0] - 1 / R.conjugate()) < 1e-14
    assert szego_verify(seq).rel_error < 1e-12


def test_pole_set_guard_band_at_default_guard():
    with pytest.raises(AmbiguousRootError) as err:
        pole_set(guard_band_sequence())
    assert any(abs(abs(z) - 1) < 1e-8 for z in err.value.ambiguous)


def test_verify_refuses_guard_band_case():
    with pytest.raises(AmbiguousRootError):
        szego_verify(guard_band_sequence())


# ---------------------------------------------------------------------------
# identity sides


def test_lhs_values():
    assert szego_verify(VerblunskySequence([2, 0.5])).lhs == -2.25
    assert szego_verify(VerblunskySequence([0.5])).lhs == 0.75
    assert szego_verify(VerblunskySequence([])).lhs == 1.0


def test_rhs_single_big():
    # epsilon = -1, pole product 4, integral log(3/4)
    rep = szego_verify(VerblunskySequence([2]))
    assert rep.epsilon == -1
    assert abs(rep.log_integral - math.log(0.75)) < 1e-11
    assert abs(rep.rhs - (-3.0)) < 1e-10


def test_rhs_single_classical():
    rep = szego_verify(VerblunskySequence([0.5]))
    assert rep.poles == ()
    assert abs(rep.log_integral - math.log(0.75)) < 1e-11
    assert abs(rep.rhs - 0.75) < 1e-12


def test_rhs_empty():
    rep = szego_verify(VerblunskySequence([]))
    assert rep.rhs == 1.0 and rep.log_integral == 0.0


def test_verify_two_coefficients():
    rep = szego_verify(VerblunskySequence([2, 0.5]))
    assert rep.lhs == -2.25
    assert rep.rel_error < 1e-8


def test_verify_keeps_tail_polynomials_exact():
    # F's denominator has a root at -17.39 within 3e-11 of a numerator root;
    # rebuilding the tail from its roots after cancelling that pair cost
    # the report digits (rel_error 4.8e-11)
    rep = szego_verify(VerblunskySequence(NEAR_COMMON_ROOT_ALPHAS))
    assert len(rep.poles) == 2
    assert rep.rel_error < 1e-13


def test_verify_builds_tail_once(tail_builds):
    rep = szego_verify(VerblunskySequence([2.0, 0.95, -0.95j, 0.9]))
    assert rep.quad_points == 512  # the most the sizing rule asks for
    assert tail_builds == [1]


@pytest.mark.parametrize("run", [
    lambda seq: szego_verify(seq),
    lambda seq: re_F_khrushchev(seq, 1, np.linspace(0.0, 6.0, 7)),
    lambda seq: boyd_integral(seq, 1),
], ids=["szego_verify", "re_F_khrushchev", "boyd_integral"])
def test_tails_build_no_wall_product(wall_builds, run):
    # the Wall transfer-matrix product is the reference route only: tails
    # come from the backward Schur recursion
    run(VerblunskySequence([2.0, 0.95, -0.9j, 0.8]))
    assert wall_builds == []


def test_verify_keeps_pole_next_to_a_tiny_numerator_root():
    # the pole near 2e-10 sits 2.7e-10 from a zero of F's numerator
    rep = szego_verify(VerblunskySequence([1e10, 0.5]))
    assert len(rep.poles) == 1
    assert rep.rel_error < 1e-12


@pytest.mark.parametrize("alphas", [[0.2, 0.3, 1e8], [0.5, 0.5, 1e9]])
def test_verify_keeps_every_zero_of_phi_L_star(alphas):
    # the smallest of the 3 in-disk zeros of Phi_3* lies within 2e-14 |r| of
    # a zero of Psi_3*; the two are not common (Phi_3 Psi_3* + Phi_3* Psi_3 =
    # 2 z^3 omega_2 is merely tiny there), so it is a pole of F
    rep = szego_verify(VerblunskySequence(alphas))
    assert len(rep.poles) == 3
    assert rep.rel_error < 1e-12


def test_verify_resolves_poles_of_very_different_sizes():
    # the two poles sit near 2.2e-13 and 9.8e-4; the companion matrix does not
    # resolve the zeros of Phi_5* to the residual bound, so Aberth runs
    # from the Newton-polygon circles
    rep = szego_verify(VerblunskySequence(
        [1018.945, 209564.108, 22144176.191, -0.048j, -0.529j]))
    assert len(rep.poles) == 2
    assert rep.rel_error < 1e-12


def test_verify_keeps_distinct_tiny_poles_apart():
    # the in-disk zeros of Phi_6* are near 1.1e-13, 5.1e-8 and 3.9e-4: the
    # two smallest are far apart relative to their size, so neither merges
    rep = szego_verify(VerblunskySequence(
        [1627634.166 - 9236284.072j, -0.562 + 1.696j, 5436200.594 + 180392.656j,
         496033.785 - 1553071.937j, -158.615 + 450.824j, -0.212 + 6.081j]))
    assert len(set(rep.poles)) == 3
    assert rep.rel_error < 1e-12


def test_poles_find_roots_once_when_N_is_L(root_calls):
    # the last stored coefficient is outside the disk, so Phi_N* is Phi_L*
    seq = VerblunskySequence([0.5, 0.3j, 2.0])
    szego_verify(seq)
    assert root_calls == [3]
    root_calls.clear()
    pole_set(seq)
    assert root_calls == [3]


def test_verify_finds_roots_once(root_calls):
    # the zeros of Phi_L* (the poles); the zero-count rule bounds their number
    seq = VerblunskySequence([2.0, 0.5j, -0.3, 0.2])
    szego_verify(seq)
    assert root_calls == [4]


@pytest.mark.parametrize("run, degrees", [
    (lambda seq: pole_set(seq), [3]),
    (lambda seq: moments(seq, len(seq), 10), [3]),
], ids=["pole_set", "moments"])
def test_poles_find_roots_once(root_calls, run, degrees):
    run(VerblunskySequence([2.0, 0.5j, -0.3]))
    assert root_calls == degrees


def test_verify_refusal_builds_no_tail(tail_builds):
    # a zero of Phi_2* lies 5e-9 inside the circle: the roots are found
    # first, so the refusal comes before the tail and the split
    with pytest.raises(AmbiguousRootError, match="denominator roots in the circle guard band"):
        szego_verify(guard_band_sequence())
    assert tail_builds == []


@pytest.mark.parametrize("run", [szego_verify, pole_set], ids=["szego_verify", "pole_set"])
def test_a_spurious_pole_exceeds_the_zero_count_rule(spurious_root, run):
    # Phi_N* = 1 + 2z has one zero in the disk (the rule: N = 1, and alpha_0
    # reflects); a spurious in-disk root of Phi_L* makes two poles
    with pytest.raises(CrossCheckError, match="2 poles exceed the 1 in-disk zeros of Phi_N"):
        run(VerblunskySequence([-2.0, 0.5j, -0.3, 0.2]))


@pytest.mark.parametrize("run", [szego_verify, pole_set], ids=["szego_verify", "pole_set"])
def test_a_missing_pole_falls_short_of_the_zero_count_rule(monkeypatch, run):
    # alpha_0 = 2 reflects, so Phi_1* = 1 - 2z has its zero 1/2 in the disk;
    # a root finder that drops it leaves one pole too few
    find = opuc.analysis.poly_roots
    monkeypatch.setattr(opuc.analysis, "poly_roots",
                        lambda p: [r for r in find(p) if abs(r) >= 1.0])
    with pytest.raises(CrossCheckError, match="0 poles fall short of the 1 in-disk zeros of Phi_N"):
        run(VerblunskySequence([2.0]))


def test_verify_subtracts_a_root_next_to_the_circle():
    # L = 24 with a root of Phi_L* 7.2e-8 off the circle: unsubtracted, the
    # trapezoid rule needs about 1/margin points
    seq = draw_near_circle(np.random.default_rng(4), 24, 1e-8, 1e-6)
    rep = szego_verify(seq)
    assert rep.rel_error < 1e-8
    assert rep.quad_points <= 512
    near = [r for r in poly_roots(as_rational_F(seq).den) if abs(abs(r) - 1.0) < NEAR_ROOT_BAND]
    assert rep.subtracted == tuple(near)
    assert min(abs(abs(r) - 1.0) for r in rep.subtracted) < 1e-6


def _mp_log_integral(alphas) -> mpmath.mpf:
    """(1/2pi) int log|Re F| at 50 digits, Re F = omega_{L-1} / |Phi_L*|^2 on
    the circle, by tanh-sinh quadrature split at the angles of the roots
    of Phi_L* near the circle (over [0, 2pi] when there are none)."""
    with mpmath.workdps(50):
        phi, phistar, w = [mpmath.mpc(1)], [mpmath.mpc(1)], mpmath.mpf(1)
        for a in alphas:
            a = mpmath.mpc(a.real, a.imag)
            zphi, padded = [mpmath.mpc(0)] + phi, phistar + [mpmath.mpc(0)]
            phi = [p - mpmath.conj(a) * q for p, q in zip(zphi, padded)]
            phistar = [q - a * p for p, q in zip(zphi, padded)]
            w *= 1 - abs(a) ** 2
        high_first = phistar[::-1]
        cuts = sorted(float(mpmath.arg(r)) % (2.0 * math.pi)
                      for r in mpmath.polyroots(high_first, maxsteps=200, extraprec=200)
                      if abs(abs(r) - 1) < NEAR_ROOT_BAND)

        def log_re_F(t):
            return mpmath.log(abs(w)) - 2 * mpmath.log(abs(mpmath.polyval(high_first,
                                                                          mpmath.expj(t))))

        ends = cuts + [cuts[0] + 2 * mpmath.pi] if cuts else [0, 2 * mpmath.pi]
        return mpmath.quad(log_re_F, ends) / (2 * mpmath.pi)


def test_subtracted_log_integral_matches_50_digits():
    # the second draw has a root of Phi_L* 7.2e-8 off the circle, the worst
    # conditioning for dividing it out at the points: a grid point near it
    # leaves Phi_L*(z) small against its rounding
    for seq in (draw_near_circle(np.random.default_rng(2), 8, 1e-4, 1e-3),
                draw_near_circle(np.random.default_rng(4), 24, 1e-8, 1e-6)):
        rep = szego_verify(seq)
        assert rep.subtracted
        assert abs(rep.log_integral - float(_mp_log_integral(seq.alphas))) < 1e-12


def test_verify_divides_many_near_roots_out_at_the_points():
    # L = 48 with 34 roots of Phi_L* near the circle: dividing them out of the
    # coefficients, smallest modulus first, left rel_error 6.1e-13; taking
    # log|z - r|^2 off log|Phi_L*|^2 at each point leaves 1.2e-14.
    # ``subtracted`` keeps the root finder's order
    seq = draw_near_circle(np.random.default_rng(2), 48, 1e-6, 1e-3)
    rep = szego_verify(seq)
    near = [r for r in poly_roots(as_rational_F(seq).den) if abs(abs(r) - 1.0) < NEAR_ROOT_BAND]
    assert len(near) == 34 and rep.subtracted == tuple(near)
    assert rep.rel_error < 1e-13


def test_verify_without_near_roots_matches_50_digits():
    # no root of Phi_L* within NEAR_ROOT_BAND of the circle: nothing is
    # subtracted and log|Phi_L*|^2 is integrated whole
    rng = np.random.default_rng(53)
    seqs = [VerblunskySequence([2.0]), VerblunskySequence([2.0, 0.5j, -0.3, 0.2])]
    while len(seqs) < 8:
        seq = random_nonclassical(rng, require_growth_window=False)
        if min(abs(abs(r) - 1.0) for r in poly_roots(as_rational_F(seq).den)) >= NEAR_ROOT_BAND:
            seqs.append(seq)
    for seq in seqs:
        rep = szego_verify(seq)
        assert rep.subtracted == ()
        assert abs(rep.log_integral - float(_mp_log_integral(seq.alphas))) < 1e-12


def test_verify_refuses_a_phi_L_star_that_misses_the_split(monkeypatch):
    # hand the split 1.001 Phi_L*, which its D misses
    split = opuc.analysis._khrushchev_split

    def scaled(seq, n, pairs, *args):
        phi_L, phistar_L = pairs[len(seq)]
        return split(seq, n, {**pairs, len(seq): (phi_L, 1.001 * phistar_L)}, *args)

    monkeypatch.setattr(opuc.analysis, "_khrushchev_split", scaled)
    for alphas in _CHECKED:
        with pytest.raises(CrossCheckError, match=(
                r"\|D\| from the split and \|Phi_L\*\| from the recurrence differ")):
            szego_verify(VerblunskySequence(alphas))


def test_verify_takes_the_tail_term_without_cancellation():
    # |B_t|^2 reaches 1.3e8 omega_t on the circle: sampled, |B_t|^2 - |A_t|^2
    # carried enough rounding noise to need 16384 points for a 1.4e-9 answer
    seq = VerblunskySequence([3.0, 0.2j] + [0.9 * np.exp(0.7j * k * k) for k in range(9)])
    rep = szego_verify(seq)
    assert rep.subtracted
    assert rep.quad_points == 64
    assert rep.rel_error < 1e-13


def test_verify_refuses_a_tail_off_its_wall_identity(monkeypatch):
    # hand the split 1.001 omega_t, which |B_t|^2 - |A_t|^2 misses: the
    # tail's log omega_t is the only ``_log_omega`` that ``opuc.analysis``
    # takes before the split's checks
    log_omega = opuc.analysis._log_omega

    def skewed(alphas):
        sign, log = log_omega(alphas)
        return sign, log + math.log(1.001)

    monkeypatch.setattr(opuc.analysis, "_log_omega", skewed)
    for alphas in _CHECKED:
        with pytest.raises(CrossCheckError, match="over the tail"):
            szego_verify(VerblunskySequence(alphas))


@pytest.mark.parametrize("alphas", _CHECKED)
def test_verify_makes_no_horner_loop(horner_calls, alphas):
    # the split and Q are sampled by one FFT; these roots need no Horner either
    szego_verify(VerblunskySequence(alphas))
    assert horner_calls == []


def test_verify_takes_the_points_z_from_its_one_fft(monkeypatch):
    # the near roots' |z - r| need z on the m angles: the FFT that samples
    # the split gives it on every call, with near roots or none, so no
    # np.exp runs on an m-point array
    exp, sizes = np.exp, []

    def recording_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    for alphas, near, points in ((_CHECKED[0], 3, 512), (_CHECKED[1], 0, 128)):
        sizes.clear()
        rep = szego_verify(VerblunskySequence(alphas))
        assert len(rep.subtracted) == near and rep.quad_points == points
        assert rep.quad_points not in sizes


@pytest.mark.parametrize("alphas", _CHECKED)
def test_verify_samples_phi_L_star_and_z_in_its_one_fft(monkeypatch, alphas):
    # |D| is checked against Phi_L*'s own values, from the same FFT as the split
    on_circle, calls = opuc.analysis._on_circle, []

    def recording(rows, m):
        calls.append([tuple(row) for row in rows])
        return on_circle(rows, m)

    monkeypatch.setattr(opuc.analysis, "_on_circle", recording)
    seq = VerblunskySequence(alphas)
    szego_verify(seq)
    assert len(calls) == 1
    assert tuple(as_rational_F(seq).den.coeffs) in calls[0] and (0j, 1.0) in calls[0]


def test_verify_answers_as_horner_at_the_same_angles(monkeypatch):
    rng = np.random.default_rng(29)
    cases = [random_nonclassical(rng, require_growth_window=False) for _ in range(40)]
    cases += [random_classical(rng) for _ in range(10)]
    cases += [VerblunskySequence(alphas) for alphas in _CHECKED]
    reports = [szego_verify(seq) for seq in cases]
    assert sum(bool(rep.subtracted) for rep in reports) >= 5
    monkeypatch.setattr(opuc.analysis, "_on_circle", horner_on_circle)
    for seq, rep in zip(cases, reports):
        ref = szego_verify(seq)
        assert rep.quad_points == ref.quad_points
        assert abs(rep.rhs - ref.rhs) <= 1e-13 * abs(ref.rhs), seq.alphas


@pytest.mark.parametrize("alphas, points", [([2.0, 0.5], 128), ([2.0, 0.5j, -0.3, 0.2], 128)])
def test_verify_samples_the_split_once_on_its_quadrature_angles(split_samples, alphas, points):
    # one trapezoid level, sized from the roots of Phi_L*, and the split on its angles
    rep = szego_verify(VerblunskySequence(alphas))
    assert rep.quad_points == points
    assert split_samples == [rep.quad_points]


_CIRCLE_MEANS = [
    lambda seq: boyd_integral(seq, seq.N),
    lambda seq: boyd_integral(seq, min(seq.N + 1, len(seq))),
]
_CIRCLE_MEAN_IDS = ["boyd_at_N", "boyd_after_N"]


@pytest.mark.parametrize("alphas", [*_CHECKED, [0.5, 0.3], [2.0, 0.5]])
@pytest.mark.parametrize("run", _CIRCLE_MEANS, ids=_CIRCLE_MEAN_IDS)
def test_circle_means_make_no_horner_loop(horner_calls, run, alphas):
    # every polynomial value on a uniform grid comes from one FFT per grid
    run(VerblunskySequence(alphas))
    assert horner_calls == []


@pytest.mark.parametrize("run", _CIRCLE_MEANS, ids=_CIRCLE_MEAN_IDS)
def test_circle_means_answer_as_horner_at_the_same_angles(monkeypatch, run):
    rng = np.random.default_rng(31)
    cases = [random_nonclassical(rng, require_growth_window=False) for _ in range(15)]
    cases += [VerblunskySequence(alphas) for alphas in _CHECKED]
    values = [run(seq) for seq in cases]
    monkeypatch.setattr(opuc.analysis, "_on_circle", horner_on_circle)
    for seq, value in zip(cases, values):
        ref = run(seq)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), seq.alphas


@pytest.mark.parametrize("alphas", [[2.0, 0.5j, -0.3], [0.5, 2.0], []])
def test_verify_runs_one_szego_recurrence(szego_runs, alphas):
    # Phi_N, Phi_N* and Phi_L* come from one run of L steps, also when N = L
    szego_verify(VerblunskySequence(alphas))
    assert szego_runs == [len(alphas)]


def test_pole_set_builds_no_tail(tail_builds):
    assert len(pole_set(VerblunskySequence([2.0, 0.5j, -0.3]))) == 1
    assert tail_builds == []


def test_verify_classical_pair():
    rep = szego_verify(VerblunskySequence([0.3, -0.4j]))
    assert abs(rep.lhs - 0.91 * 0.84) < 1e-15
    assert rep.poles == ()
    assert rep.rel_error < 1e-10


def test_verify_report_invariant():
    rep = szego_verify(VerblunskySequence([2]))
    pole_product = math.prod(abs(p) ** -2 for p in rep.poles)
    assert math.isclose(rep.rhs, rep.epsilon * pole_product * math.exp(rep.log_integral),
                        rel_tol=1e-12)
    assert rep.rel_error == abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs), 1e-300)


def test_verify_reads_both_sides_from_the_same_factors_near_the_circle():
    # factors 1 - |alpha_j|^2 of 2.5e-8 to 2e-6: reading |alpha_j|^2 one way
    # in the lhs and another in the rhs misses by up to 6.2e-9 here (median
    # 1.9e-10); one reading on both sides leaves the quadrature's and the
    # roots' error
    rng, answered, refused = random.Random(3), [], 0
    for _ in range(300):
        seq = draw_near_circle_tail(rng)
        try:
            answered.append((szego_verify(seq).rel_error, seq.alphas))
        except AmbiguousRootError:  # a root of Phi_L* within 1e-8 of the circle
            refused += 1
    assert (len(answered), refused) == (225, 75)
    worst = max(answered, key=lambda case: case[0])
    assert worst[0] < 1e-12, worst


# ---------------------------------------------------------------------------
# Boyd


def test_boyd_constant_tail():
    assert abs(boyd_integral(VerblunskySequence([0.5]), 0) - math.log(0.75)) < 1e-12


def test_boyd_empty_tail():
    assert boyd_integral(VerblunskySequence([]), 0) == 0.0


def test_boyd_two_coefficients():
    want = math.log(0.75 * 0.91)
    assert abs(boyd_integral(VerblunskySequence([0.5, 0.3]), 0) - want) < 1e-11


def test_boyd_is_quiet_on_an_overflowing_head():
    # the head 1e200 overflows samples of Phi_1 and Phi_1*, which the
    # integral never needs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = boyd_integral(VerblunskySequence([1e200, 0.5]), 1)
    assert abs(value - math.log(0.75)) < 1e-12


def test_boyd_builds_only_the_tail(szego_runs, tail_builds, root_calls):
    # N is validated without building the tail; the mean of log|B_t|^2 is 0
    # by Jensen's formula, so no roots size a grid
    boyd_integral(VerblunskySequence([2.0, 0.5, 0.3]), 1)
    assert szego_runs == [] and tail_builds == [] and root_calls == []


@pytest.mark.parametrize("N, message", [(-1, "tail start must be nonnegative"),
                                        (0, "tail coefficient at index 0 has modulus >= 1")])
def test_boyd_refuses_a_tail_as_tail_schur_does(N, message):
    seq = VerblunskySequence([2.0, 0.5])
    for run in (tail_schur, boyd_integral):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(seq, N)


def test_boyd_matches_product_on_random_tails():
    rng = np.random.default_rng(59)
    for _ in range(15):
        seq = VerblunskySequence(draw_tail(rng, int(rng.integers(1, 7)), 0.85))
        want = sum(math.log(1 - abs(a) ** 2) for a in seq.alphas)
        assert abs(boyd_integral(seq, 0) - want) < 1e-9


@pytest.mark.parametrize("seed, max_mod", [(5, 0.95), (6, 0.99)])
def test_boyd_matches_product_on_draws_near_the_circle(seed, max_mod):
    # |B_t|^2 - |A_t|^2 would lose up to a factor 1.5e5 on these draws; the
    # integral is the product's logarithm exactly, with nothing sampled
    rng = np.random.default_rng(seed)
    for _ in range(40):
        seq = VerblunskySequence(draw_tail(rng, 6, max_mod))
        want = math.fsum(math.log1p(-h * h) for h in map(abs, seq.alphas))
        assert boyd_integral(seq, 0) == want, seq.alphas


@pytest.mark.parametrize("alphas", [
    [0.99] * 6, [0.999] * 4, [0.9999] * 2, [0.999] * 8, [1 - 1e-6] * 2])
def test_boyd_answers_a_cancelling_difference(alphas):
    # (|B_t|^2 + |A_t|^2) / (|B_t|^2 - |A_t|^2) reaches 3e13, 8e12, 2e8 and
    # more than 1 / eps: the difference would keep too few digits or none.
    # A trapezoid mean of the product form would need 16,384 to 524,288
    # points, and more than 2^20 for [1 - 1e-6] * 2, whose B_t has a root
    # 2e-6 off the circle; the fsum needs none
    want = math.fsum(math.log1p(-h * h) for h in map(abs, alphas))
    assert boyd_integral(VerblunskySequence(alphas), 0) == want


def test_boyd_keeps_a_difference_that_cancels_less():
    # [0.999] * 2 would lose a factor 2e6 to |B_t|^2 - |A_t|^2
    want = 2 * math.log1p(-0.999 * 0.999)
    assert boyd_integral(VerblunskySequence([0.999] * 2), 0) == want


def test_boyd_equals_omega_near_the_circle():
    # the integral and omega read the same factors 1 - h h, so only exp's
    # rounding is left
    rng = random.Random(8)
    for _ in range(200):
        seq = VerblunskySequence([near_circle_coefficient(rng) for _ in range(rng.randint(1, 4))])
        want = omega(seq, len(seq) - 1)
        assert abs(math.exp(boyd_integral(seq, 0)) - want) <= 1e-13 * want, seq.alphas


def _mp_boyd(alphas, pieces: int) -> mpmath.mpf:
    """(1/2pi) * integral of log(1 - |A_t/B_t|^2) over the circle for the
    real tail ``alphas``, by 40-digit mpmath.quad on ``pieces`` pieces of
    [0, pi] (for real alphas the integrand is even in theta); A_t/B_t comes
    from the backward Schur step on the coefficients as given."""
    with mpmath.workdps(40):
        al = [mpmath.mpf(a) for a in alphas]

        def g(t):
            z, num, den = mpmath.expj(t), mpmath.mpc(0), mpmath.mpc(1)
            for a in reversed(al):
                num, den = a * den + z * num, den + a * z * num
            return mpmath.log(1 - abs(num / den) ** 2)

        return mpmath.quad(g, mpmath.linspace(0, mpmath.pi, pieces + 1)) / mpmath.pi


@pytest.mark.parametrize("alphas, pieces", [([0.5, 0.3], 1), ([0.9] * 3, 1), ([0.99] * 6, 32)])
def test_boyd_matches_a_40_digit_quadrature(alphas, pieces):
    # B_t's roots for [0.99] * 6 lie 1.7e-3 to 6.7e-3 off the circle, so the
    # quadrature needs pieces; the fsum misses the integral by at most the
    # rounding of its log1p terms (6.5e-15 there, on a value of -23.5)
    ref = _mp_boyd(alphas, pieces)
    value = boyd_integral(VerblunskySequence(alphas), 0)
    assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# zero counts and migration


def test_trace_two_coefficients():
    rows = zero_count_trace(VerblunskySequence([2, 0.5]), 2)
    assert (rows[0].predicted, rows[0].actual) == (0, 0)
    assert (rows[1].predicted, rows[1].actual) == (1, 1)


def test_trace_classical_steps_add_one():
    rows = zero_count_trace(VerblunskySequence([0.5, 0.5, 0.5]), 3)
    assert [r.actual for r in rows] == [1, 2, 3]
    assert all(r.predicted == r.actual for r in rows)


def test_trace_refuses_a_negative_n_max():
    assert zero_count_trace(VerblunskySequence([2, 0.5]), 0) == []
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        zero_count_trace(VerblunskySequence([2, 0.5]), -3)


def test_trace_runs_one_recurrence(szego_runs):
    rows = zero_count_trace(VerblunskySequence([2, 0.5, 0.3j, 0.2]), 12)
    assert szego_runs == [12]
    assert [r.k for r in rows] == list(range(1, 13))
    assert all(r.predicted == r.actual for r in rows)


def test_trace_star_counts():
    rows = zero_count_trace(VerblunskySequence([2]), 1)
    assert rows[0].actual_star == 1  # 1 - 2z has its zero at 0.5


def test_trace_finds_the_roots_of_each_phi_k_once(root_calls):
    zero_count_trace(VerblunskySequence([2, 0.5, 0.3j, 0.2]), 12)
    assert root_calls == list(range(1, 13))


def test_trace_a_zero_of_phi_k_at_the_origin_is_no_star_zero():
    # Phi_2 = z^2 - 2z has zeros 0 and 2; Phi_2* = 1 - 2z, of degree 1, has one
    rows = zero_count_trace(VerblunskySequence([2, 0]), 2)
    assert [(r.actual, r.actual_star) for r in rows] == [(0, 1), (1, 1)]
    assert all(r.actual_star == r.predicted_star for r in rows)


def test_trace_reflected_star_counts_match_independent_roots():
    # the nonclassical suite, then |alpha| = 10^U(-3, 3) or U(0, 3), L = 1-15,
    # a tenth of the entries exactly 0
    rng = np.random.default_rng(29)
    cases = [random_nonclassical(rng, require_growth_window=False) for _ in range(20)]
    while len(cases) < 220:
        L = int(rng.integers(1, 16))
        mods = np.where(rng.random(L) < 0.5, 10.0 ** rng.uniform(-3, 3, L), rng.uniform(0, 3, L))
        mods[rng.random(L) < 0.1] = 0.0
        alphas = mods * np.exp(2j * np.pi * rng.uniform(size=L))
        if np.all(np.abs(mods - 1.0) > 1e-3):
            cases.append(VerblunskySequence(alphas.tolist()))
    for seq in cases:
        n = max(len(seq), 12)
        rows = zero_count_trace(seq, n)
        assert [r.actual_star for r in rows] == independent_star_counts(seq, n), seq.alphas
        assert [r.actual_star for r in rows] == [r.predicted_star for r in rows]


def test_migration_runs_one_recurrence(szego_runs):
    rows = zero_migration(VerblunskySequence([2.0, 0.5]), [2, 3, 5])
    # every Phi_n* and Phi_2*, whose in-disk zeros are the poles, from one run of 5 steps
    assert szego_runs == [5]
    assert [row.n for row in rows] == [2, 3, 5]


def _replace_degree_one_roots(monkeypatch, root) -> None:
    find = opuc.analysis.poly_roots
    monkeypatch.setattr(opuc.analysis, "poly_roots",
                        lambda p: [root] if p.degree == 1 else find(p))


@pytest.mark.parametrize("root, run, poly", [
    (1.0 - 5e-9, lambda: zero_count_trace(VerblunskySequence([0.5]), 1), "Phi_1"),
    (1.0, lambda: zero_migration(VerblunskySequence([0.5, 0.3]), [1]), r"Phi_1\*"),
], ids=["trace", "migration"])
def test_star_zeros_in_the_guard_band_are_refused(monkeypatch, root, run, poly):
    # the zero of Phi_1 replaced by one in the band, whose reflection, the
    # zero of Phi_1*, lies in it too (the trace splits Phi_1's zeros once);
    # the zero of Phi_1* replaced by one on the circle
    _replace_degree_one_roots(monkeypatch, root)
    with pytest.raises(AmbiguousRootError, match=f"zeros of {poly} in the circle guard band"):
        run()


def test_trace_counts_a_zero_just_outside_the_band_for_phi_k_star(monkeypatch):
    # 1 + 1e-8 lies outside the band, so it counts for Phi_1* although its
    # reflection 1 - 1e-8 + 1e-16 lies in the band: both counts come from
    # one split of Phi_1's zeros and cannot contradict each other.  The
    # patched root is no root of Phi_1 = z - 0.5, so the rule's (1, 0) differs
    _replace_degree_one_roots(monkeypatch, 1.0 + 1e-8)
    row, = zero_count_trace(VerblunskySequence([0.5]), 1)
    assert (row.actual, row.actual_star) == (0, 1)
    assert (row.predicted, row.predicted_star) == (1, 0)


def test_migration_finds_each_root_set_once(root_calls):
    # Phi_3* is Phi_L*, whose roots give the poles: they serve the row n = 3 too
    rows = zero_migration(VerblunskySequence([2, 0.5, 0.3j]), [1, 3])
    assert root_calls == [3, 1]
    assert [row.n for row in rows] == [1, 3]


def test_migration_head_only():
    # alpha = (2): Phi_m* = 1 - 2z for every m >= 1; the zero IS the pole
    rows = zero_migration(VerblunskySequence([2]), range(1, 5))
    for row in rows:
        assert len(row.zeros) == 1
        assert abs(row.zeros[0] - 0.5) < 1e-15
        assert row.pole_dist[0] < 1e-12


def test_migration_head_and_tail():
    rows = zero_migration(VerblunskySequence([2, 0.5]), [2, 3, 5])
    for row in rows:
        assert len(row.zeros) == 1
        assert abs(row.zeros[0] - (math.sqrt(3) - 1)) < 1e-12
        assert row.pole_dist[0] < 1e-12


def test_migration_classical_zero_free():
    rows = zero_migration(VerblunskySequence([0.5, 0.3]), range(1, 6))
    for row in rows:
        assert row.zeros == ()


# ---------------------------------------------------------------------------
# moments


def test_moments_powers_of_two():
    rep = moments(VerblunskySequence([2]), 1, 5)
    assert rep.moments == (2, 4, 8, 16, 32)
    assert rep.growth_rate == 2.0
    assert rep.predicted_rate == 2.0


def test_moments_classical_decay():
    rep = moments(VerblunskySequence([0.5]), 1, 4)
    assert np.allclose(rep.moments, [0.5 ** j for j in range(1, 5)])
    assert rep.growth_rate < 1.0
    assert rep.predicted_rate == 1.0


def test_moments_lebesgue():
    rep = moments(VerblunskySequence([]), 0, 3)
    assert rep.moments == (0, 0, 0)


def test_moments_stable_beyond_stored_length():
    # with an implicit zero tail the ratio Psi*/Phi* freezes at the stored length
    seq = VerblunskySequence([2, 0.5])
    base = moments(seq, 2, 12)
    for m in (3, 4, 7):
        rep = moments(seq, m, 12)
        assert rep.moments == base.moments


@pytest.mark.parametrize("m, runs", [(1, [3, 1]), (3, [3, 3]), (5, [5, 5])])
def test_moments_run_one_szego_and_one_second_kind_recurrence(szego_runs, m, runs):
    # Phi_m* and Phi_L*, whose in-disk zeros are the poles, from one run;
    # Psi_m* from the second-kind run on -alpha_j
    moments(VerblunskySequence([2.0, 0.5j, -0.3]), m, 10)
    assert szego_runs == runs


def test_moments_overflow_raises():
    # the pole near 2e-200 makes c_j grow like 5e199^j: c_2 exceeds the largest double
    with pytest.raises(OverflowError, match="moments from c_2 on overflow float64"):
        moments(VerblunskySequence([1e200, 0.5]), 2, 10)


# ---------------------------------------------------------------------------
# log split


def test_log_split_jensen_piece_directly():
    # exp of the mean of log|1 - z - 0.5 z^2|^2 equals 1/(sqrt(3)-1)^2, on
    # the grid sized from the roots -1 +- sqrt(3)
    m = opuc.analysis._trapezoid_points([math.sqrt(3) - 1, -1 - math.sqrt(3)])
    value = circle_quadrature(
        lambda t: np.log(np.abs(1 - np.exp(1j * t) - 0.5 * np.exp(2j * t)) ** 2), m)
    assert abs(math.exp(value) - 1 / (math.sqrt(3) - 1) ** 2) < 1e-13


# ---------------------------------------------------------------------------
# structure across random cases


def test_sign_theorem_on_random_cases():
    rng = np.random.default_rng(61)
    thetas = 2 * np.pi * np.arange(512) / 512
    zs = np.exp(1j * thetas)
    for _ in range(10):
        seq = random_nonclassical(rng, require_growth_window=False)
        F = as_rational_F(seq)
        eps = 1 if omega(seq, seq.N - 1) > 0 else -1
        assert np.all(eps * (F.num(zs) / F.den(zs)).real > 0)


def test_pole_count_bounded_by_star_zeros():
    rng = np.random.default_rng(67)
    for _ in range(10):
        seq = random_nonclassical(rng, require_growth_window=False)
        _, phistar = szego_polys(seq, seq.N)
        star_zeros = len(split_by_circle(poly_roots(phistar))[0])
        assert len(pole_set(seq)) <= star_zeros


def test_zero_count_rule_matches_the_roots_of_phi_N_star():
    # the bound on the poles is N minus the rule's count for Phi_N; it must be
    # the in-disk count of Phi_N*'s own roots, on the nonclassical suite and
    # on wide draws (moduli up to 1e150, exact zeros) whose roots resolve
    rng = np.random.default_rng(83)
    suite = [random_nonclassical(rng, require_growth_window=False) for _ in range(30)]
    wide, checked = [draw_wide(rng) for _ in range(400)], []
    for seq in suite + wide:
        try:
            want = independent_phi_N_star_count(seq)
        except (RootFindingError, AmbiguousRootError):
            assert seq in wide  # no suite case is left out
            continue
        checked.append(seq.N)
        assert seq.N - opuc.analysis._disk_counts(seq.alphas, seq.N)[seq.N] == want, seq.alphas
    assert sum(n >= 2 for n in checked) >= 150  # Phi_N* of degree 2 or more


def test_classical_suite_verifies_tightly():
    rng = np.random.default_rng(71)
    for _ in range(10):
        rep = szego_verify(random_classical(rng))
        assert rep.poles == () and rep.rel_error < 1e-10
