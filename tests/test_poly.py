import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opuc import VerblunskySequence, pole_set, szego_polys
from opuc.poly import (
    ComplexPoly,
    RootFindingError,
    from_roots,
    roots,
    series_div,
    split_by_circle,
)

from helpers import random_nonclassical, reference_roots

# ---------------------------------------------------------------------------
# construction / evaluation


def test_eval_constant():
    assert ComplexPoly([1])(5) == 1


def test_eval_quadratic_at_one():
    # z^2 - z - 0.5 at z = 1
    assert ComplexPoly([-0.5, -1, 1])(1) == -0.5


def test_eval_at_i():
    # 1 - 2z at z = i
    assert ComplexPoly([1, -2])(1j) == 1 - 2j


def test_eval_on_array():
    p = ComplexPoly([1, -2])
    zs = np.array([1j, 1.0, 0.0])
    np.testing.assert_allclose(p(zs), [1 - 2j, -1, 1])


def test_array_eval_matches_scalar_recurrence_bit_for_bit():
    # the in-place Horner loop does the same arithmetic as acc = acc * z + c
    rng = np.random.default_rng(5)
    cs = rng.normal(size=12) + 1j * rng.normal(size=12)
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 257)) * rng.uniform(0.5, 2.0, 257)
    acc = np.full(zs.shape, cs[-1], dtype=complex)
    for c in cs[-2::-1]:
        acc = acc * zs + c
    assert np.array_equal(ComplexPoly(cs)(zs), acc)


def test_trailing_exact_zeros_trimmed_but_near_zeros_kept():
    assert ComplexPoly([1, 2, 0.0]).coeffs == (1, 2)
    assert ComplexPoly([1, 2, 1e-300]).coeffs == (1, 2, 1e-300)


def test_formal_degree_below_actual_rejected():
    with pytest.raises(ValueError):
        ComplexPoly([1, 2, 3], formal_degree=1)


def test_zero_polynomial():
    p = ComplexPoly([])
    assert p.coeffs == (0j,)
    assert p.is_zero() and p.degree == -1


# ---------------------------------------------------------------------------
# reversal


def test_reverse_constant():
    assert ComplexPoly([1]).reverse(0).coeffs == (1,)


def test_reverse_real_linear():
    # z - 2 at degree 1 -> 1 - 2z
    assert ComplexPoly([-2, 1]).reverse(1).coeffs == (1, -2)


def test_reverse_complex_linear():
    # 3 + iz at degree 1 -> conj-flip: -i + 3z
    assert ComplexPoly([3, 1j]).reverse(1).coeffs == (-1j, 3)


def test_reverse_requires_degree_at_least_actual():
    with pytest.raises(ValueError):
        ComplexPoly([1, 2, 3]).reverse(1)


complexes = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=8), st.integers(0, 4))
def test_reverse_involution(cs, extra):
    p = ComplexPoly(cs)
    n = max(p.degree, 0) + extra
    assert p.reverse(n).reverse(n) == p


@settings(max_examples=60, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=8), st.floats(0, 2 * math.pi))
def test_reverse_preserves_modulus_on_circle(cs, theta):
    p = ComplexPoly(cs)
    z = complex(math.cos(theta), math.sin(theta))
    n = max(p.degree, 0)
    lhs = abs(p.reverse(n)(z))
    rhs = abs(p(z))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# arithmetic


def test_mul():
    assert (ComplexPoly([1, 1]) * ComplexPoly([1, -1])).coeffs == (1, 0, -1)


def test_add():
    assert (ComplexPoly([1]) + ComplexPoly([0, 1])).coeffs == (1, 1)


def test_scale():
    assert (ComplexPoly([1, 2]) * -0.5).coeffs == (-0.5, -1)


def test_sub_cancels_exactly():
    p = ComplexPoly([1, 2, 3])
    assert (p - p).is_zero()


def test_shifted():
    assert ComplexPoly([1, 2]).shifted(2).coeffs == (0, 0, 1, 2)


# ---------------------------------------------------------------------------
# roots


def test_roots_quadratic():
    # oracle: quadratic formula for z^2 - z - 0.5 gives (1 +- sqrt(3)) / 2
    expected = sorted([(1 + math.sqrt(3)) / 2, (1 - math.sqrt(3)) / 2])
    got = sorted(r.real for r in roots(ComplexPoly([-0.5, -1, 1])))
    assert np.allclose(got, expected, atol=1e-12)


def test_roots_linear():
    assert roots(ComplexPoly([1, -2])) == [0.5]


def test_roots_deflates_origin_exactly():
    assert roots(ComplexPoly([0, 0, 0, 1])) == [0j, 0j, 0j]


def test_roots_of_zero_poly_rejected():
    with pytest.raises(ValueError):
        roots(ComplexPoly([0]))


def test_roots_residuals_meet_contract(aberth_runs):
    rng = np.random.default_rng(3)
    for _ in range(30):
        deg = int(rng.integers(2, 14))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = ComplexPoly(cs)
        for r in roots(p):
            assert abs(p(r)) <= 1e-12 * p.magnitude_bound(r)
    assert aberth_runs == []  # the companion-matrix roots met the bound


def test_roots_keeps_a_multiple_root_with_its_multiplicity(aberth_runs):
    # the companion matrix splits the triple root into three roots ~5e-6 apart;
    # a Newton step would move each a third of the way to 0.5, more than the
    # tenth of the gap a step may take, so the split roots stay as they are
    got = sorted(roots(from_roots([0.5, 0.5, 0.5, -2])), key=lambda z: z.real)
    assert abs(got[0] + 2) < 1e-14
    assert all(abs(r - 0.5) < 1e-4 for r in got[1:])
    assert aberth_runs == []


def test_roots_restarts_aberth_only_on_a_companion_miss(aberth_runs):
    roots(ComplexPoly([1.3748121654206392e-266, 0, 1, 1]))
    assert aberth_runs == [3]


def test_roots_of_phi_L_star_match_50_digit_roots():
    # oracle: mpmath's roots of the same float64 coefficients at 50 digits;
    # an Aberth iteration stopped at the residual bound was up to 3e-12 off
    rng = np.random.default_rng(6)
    for _ in range(100):
        seq = random_nonclassical(rng, head_max=3, tail_max=5, require_growth_window=False)
        _, phistar = szego_polys(seq, len(seq))
        got = roots(phistar)
        with mpmath.workdps(50):
            ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(phistar.coeffs)],
                                   maxsteps=200, extraprec=200)
        assert len(got) == len(ref)
        for r in map(complex, ref):
            assert min(abs(g - r) for g in got) <= 1e-13 * abs(r)


def test_roots_resolves_clusters_of_very_different_sizes():
    # z^3 + z^2 + 1.37e-266 has roots near -1 and +-1.17e-133 i: the
    # companion matrix resolves the small pair only to absolute accuracy,
    # so Aberth restarts from the Newton-polygon circles
    p = ComplexPoly([1.3748121654206392e-266, 0, 1, 1])
    got = sorted(roots(p), key=abs)
    assert abs(got[2] + 1) < 1e-15
    for r in got[:2]:
        assert abs(abs(r.imag) / 1.1725238442866052e-133 - 1) < 1e-12
        assert abs(p(r)) <= 1e-12 * p.magnitude_bound(r)


def test_roots_keep_the_tiny_pair_apart_from_minus_one():
    # z^3 + z^2 + 1.37e-266 has the roots -1 and +-i sqrt(1.37e-266).  Aberth
    # started from the companion roots (-1, 0, 0) ends on -1 three times, and
    # -1 meets the residual bound, so residuals alone cannot reject that
    # answer: a restart from the companion roots must keep the pair apart
    p = ComplexPoly([1.37e-266, 0, 1, 1])
    assert abs(p(-1)) <= 1e-12 * p.magnitude_bound(-1)
    got = sorted(roots(p), key=abs)
    assert abs(got[2] + 1) < 1e-15
    for r in got[:2]:
        assert abs(abs(r) / math.sqrt(1.37e-266) - 1) < 1e-12
    assert abs(got[0] - got[1]) > 1.9 * abs(got[0])


def _mp_scaled_residual(cs, r) -> float:
    """|p(r)| / sum_k |c_k| |r|**k in 40-digit arithmetic, which never overflows."""
    with mpmath.workdps(40):
        z = mpmath.mpc(r.real, r.imag)
        val, scale = mpmath.mpc(0), mpmath.mpf(0)
        for c in reversed(cs):
            val = val * z + mpmath.mpc(c.real, c.imag)
            scale = scale * abs(z) + abs(mpmath.mpc(c.real, c.imag))
        return float(abs(val) / scale)


def test_roots_meet_the_bound_or_refuse_on_wide_coefficients():
    # coefficients 10^U(-150, 150): Horner overflows at huge roots, and a NaN
    # residual once let a whole companion root set through unchecked
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(60):
            deg = int(rng.integers(2, 20))
            cs = 10.0 ** rng.uniform(-150, 150, deg + 1) * np.exp(2j * np.pi * rng.uniform(size=deg + 1))
            try:
                got = roots(ComplexPoly(cs))
            except RootFindingError:
                continue
            assert len(got) == deg
            assert max(_mp_scaled_residual(cs, r) for r in got) <= 1e-11


def _bits(rts) -> np.ndarray:
    return np.asarray(rts, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("cs", [
    [1e-300, 1, 1e30],            # the constant underflows in the scaling: a root at 0
    [1e-300, 2, 3, 1e30],
    [1e-300, 0, 1e30],            # every coefficient but the leading one underflows
])
def test_roots_match_the_np_roots_reference_when_low_coefficients_underflow(cs):
    p = ComplexPoly(cs)
    assert np.array_equal(_bits(roots(p)), _bits(reference_roots(p)))


def test_roots_match_the_np_roots_reference_bit_for_bit():
    # degree 2-39, a third of the draws with coefficient scales 10^U(-8, 8);
    # where the reference refuses, every root found meets the bound
    rng = np.random.default_rng(10)
    answered = 0
    for _ in range(600):
        deg = int(rng.integers(2, 40))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if rng.random() < 1 / 3:
            cs = cs * 10.0 ** rng.uniform(-8.0, 8.0, deg + 1)
        p = ComplexPoly(cs)
        try:
            ref = reference_roots(p)
        except RootFindingError:
            try:
                got = roots(p)
            except RootFindingError:
                continue
            answered += 1
            assert max(_mp_scaled_residual(cs, r) for r in got) <= 1e-11
            continue
        assert np.array_equal(_bits(roots(p)), _bits(ref))
    assert answered >= 1


def test_roots_of_a_polynomial_whose_scale_overflows_at_a_huge_root():
    # sum_k |c_k| |z|**k overflows at the root near r0; in complex arithmetic
    # the overflow met an imaginary 0 as inf * 0 = NaN, the 1/z fallback never
    # ran and the polynomial was refused ("root residuals up to inf")
    r0 = -4e10 + 4.5e10j
    rts = [r0] + [0.9 * complex(math.cos(t), math.sin(t))
                  for t in 2 * math.pi * np.arange(35) / 35]
    p = from_roots(rts)
    with pytest.raises(RootFindingError):
        reference_roots(p)
    got = roots(p)
    assert len(got) == 36
    assert max(_mp_scaled_residual(p.coeffs, r) for r in got) <= 1e-11
    assert min(abs(r - r0) for r in got) <= 1e-12 * abs(r0)


def test_pole_set_refuses_instead_of_miscounting_huge_roots():
    # Phi_5* has roots near 1e-143 and 1e+180 among others; the companion
    # roots missed the bound unnoticed and pole_set raised CrossCheckError
    with pytest.raises(RootFindingError):
        pole_set(VerblunskySequence([1e180, 0.3, 1e-143, 1e-287, 1e-83]))


@pytest.mark.parametrize("cs", [
    [1.0, math.inf, 1.0],                   # not finite
    [1.0, math.nan, 1.0],
    [1e300, 1.0, 1e-30],                    # the leading coefficient underflows to 0
    [1.0, -2.0 + 2e-320, -1e-320],          # Phi_2* of [2.0, 1e-320]: the companion overflows
], ids=["inf", "nan", "underflow", "subnormal-lead"])
def test_roots_out_of_range_is_a_quiet_refusal(cs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError):
            roots(ComplexPoly(cs))


def test_roots_reconstruction_matches_monic_input():
    # oracle: multiply the monic factors back together with numpy
    rng = np.random.default_rng(11)
    for _ in range(25):
        deg = int(rng.integers(2, 21))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        cs[-1] += 2.0  # keep the leading coefficient well away from zero
        p = ComplexPoly(cs)
        rebuilt = np.poly(np.array(roots(p)))[::-1]  # monic, constant first
        monic = np.array(p.coeffs) / p.coeffs[-1]
        scale = max(1.0, np.abs(monic).max())
        assert np.max(np.abs(rebuilt - monic)) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(st.lists(complexes, min_size=2, max_size=7),
       st.complex_numbers(min_magnitude=0.3, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False))
def test_roots_reconstruction_property(cs, lead):
    p = ComplexPoly(list(cs) + [lead])
    rebuilt = np.poly(np.array(roots(p)))[::-1]
    monic = np.array(p.coeffs) / p.coeffs[-1]
    scale = max(1.0, float(np.abs(monic).max()))
    assert np.max(np.abs(rebuilt - monic)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# power-series division


def test_series_div_geometric():
    # oracle: (1 + 2z)/(1 - 2z) = 1 + 2 * sum (2z)^j = 1 + 4z + 8z^2 + 16z^3 + ...
    got = series_div(ComplexPoly([1, 2]), ComplexPoly([1, -2]), 3)
    assert got == [1, 4, 8, 16]


def test_series_div_trivial():
    assert series_div(ComplexPoly([1]), ComplexPoly([1]), 2) == [1, 0, 0]


def test_series_div_geometric_ones():
    assert series_div(ComplexPoly([1]), ComplexPoly([1, -1]), 3) == [1, 1, 1, 1]


def test_series_div_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        series_div(ComplexPoly([1]), ComplexPoly([0, 1]), 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=6),
       st.lists(complexes, min_size=0, max_size=5), st.integers(0, 12))
def test_series_div_convolution_recovers_numerator(num_cs, den_tail, order):
    num = ComplexPoly(num_cs)
    den = ComplexPoly([1.0] + den_tail)
    q = series_div(num, den, order)
    conv = np.convolve(q, np.array(den.coeffs))[: order + 1]
    want = np.array(list(num.coeffs) + [0] * (order + 1))[: order + 1]
    scale = max(1.0, float(np.abs(want).max()), float(np.abs(q).max()))
    assert np.max(np.abs(conv - want)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# disk classification


def test_split_by_circle_plain():
    assert split_by_circle([0.5, 2.0]) == ([0.5], [], [2.0])


def test_split_by_circle_guard_band_is_ambiguous():
    # the band is DEFAULT_DISK_GUARD = 1e-8 on each side of the circle
    band = [1 - 5e-9 + 0j, 1 + 5e-9j]
    assert split_by_circle([1 - 2e-8, *band, 1 + 2e-8]) == ([1 - 2e-8], band, [1 + 2e-8])


def test_split_by_circle_empty():
    assert split_by_circle([]) == ([], [], [])


def test_from_roots_expands():
    p = from_roots([1.0, -1.0])
    assert p.coeffs == (-1, 0, 1)
