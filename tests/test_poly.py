import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opuc.poly
from opuc import VerblunskySequence, pole_set, szego_polys
from opuc.poly import (
    DEFAULT_ROOT_TOL,
    ComplexPoly,
    RootFindingError,
    _horner,
    _newton_polygon_start,
    _on_circle,
    roots,
    series_div,
    split_by_circle,
)

from helpers import (
    draw_head,
    draw_near_circle,
    draw_tail,
    from_roots,
    random_nonclassical,
    reference_discs_disjoint,
    reference_roots,
    reference_scaled_residuals,
)

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


@pytest.mark.parametrize("m, degree", [(64, 40), (64, 64), (64, 131), (16, 35)])
def test_on_circle_matches_40_digit_values_and_horner(m, degree):
    # degree below m, at m and at 2m + 3 (folded twice), coefficients over 16
    # decades; each stage of the FFT rounds partial sums of |c_k|-weighted
    # unit terms, so its error is bounded by 4 (log2 m + 1) eps sum |c_k|, the
    # + 1 for folding; Horner's by 4 degree eps sum |c_k|
    rng = np.random.default_rng(degree)
    c = ((rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
         * 10.0 ** rng.uniform(-8, 8, degree + 1))
    vals = _on_circle([c, c[:3]], m)
    assert vals.shape == (2, m)
    zs = np.exp(2j * np.pi * np.arange(m) / m)
    eps_sum = np.finfo(float).eps * np.abs(c).sum()
    fft_bound = 4 * (math.log2(m) + 1) * eps_sum
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(x.real, x.imag) for x in reversed(c)]
        exact = [complex(mpmath.polyval(coeffs, w)) for w in mpmath.unitroots(m)]
    assert np.max(np.abs(vals[0] - exact)) <= fft_bound
    assert np.max(np.abs(vals[0] - _horner(c, zs))) <= fft_bound + 4 * degree * eps_sum
    np.testing.assert_allclose(vals[1], c[0] + c[1] * zs + c[2] * zs ** 2,
                               rtol=0, atol=8 * np.finfo(float).eps * np.abs(c[:3]).sum())


def test_trailing_exact_zeros_trimmed_but_near_zeros_kept():
    assert ComplexPoly([1, 2, 0.0]).coeffs == (1, 2)
    assert ComplexPoly([1, 2, 1e-300]).coeffs == (1, 2, 1e-300)


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
    # the companion roots miss on this trap, and one Aberth run from the
    # Newton-polygon circles answers
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


@pytest.mark.parametrize("L, seed", [(48, 4), (64, 41)])
def test_roots_of_near_circle_phi_L_star_match_60_digit_roots(L, seed, start_sweeps,
                                                              companion_eigvals):
    # the near-circle sweep's longest Phi_L*, roots 1e-6..1e-2 off the circle;
    # oracle: mpmath's roots of the same float64 coefficients at 60 digits.
    # The Aberth start certifies them without the companion matrix, within 25
    # sweeps (7-19 on the benchmark's near-circle cases); a start that decays
    # into its 50-sweep cap and the companion route would be slower than the
    # companion route alone
    _, phistar = szego_polys(draw_near_circle(np.random.default_rng(seed), L, 1e-6, 1e-2), L)
    start_sweeps.clear()  # the draw found roots too
    companion_eigvals.clear()
    got = roots(phistar)
    assert companion_eigvals == []
    assert 1 <= len(start_sweeps) <= 25
    # each sweep takes only the roots still moving, so the count never rises,
    # and some roots stop before the last sweep
    active = [m for _, m in start_sweeps]
    assert active[0] == L and active[-1] < L
    assert all(a >= b for a, b in zip(active, active[1:]))
    with mpmath.workdps(60):
        ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(phistar.coeffs)],
                               maxsteps=200, extraprec=60)
    assert len(got) == len(ref) == L
    for r in map(complex, ref):
        assert min(abs(g - r) for g in got) <= 1e-12 * abs(r)


def test_roots_take_the_aberth_start_from_degree_40(start_sweeps, companion_eigvals):
    rng = np.random.default_rng(3)
    for deg in (39, 40):
        p = ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        got = roots(p)
        assert len(got) == deg
        assert max(_mp_scaled_residual(p.coeffs, r) for r in got) <= 1e-11
    assert companion_eigvals == [39]
    assert {deg for deg, _ in start_sweeps} == {40}


def _circle(m: int, radius: float) -> list[complex]:
    return [radius * complex(math.cos(t), math.sin(t)) for t in 2 * math.pi * np.arange(m) / m]


def _coincident_start(c):
    z = _newton_polygon_start(c)
    z[1] = z[0]
    return z


HAND_OVER_CASES = {
    # two coincident start points: the first correction is not finite
    "correction not finite": (lambda: from_roots(_circle(41, 0.9)), 1),
    # the start needs 5 sweeps on these roots, and the cap is lowered to 3
    "sweep cap": (lambda: from_roots(_circle(41, 0.9)), 3),
    # a triple root: its three approximations stop at their rounding floor,
    # some way apart, and their discs overlap
    "triple root": (lambda: from_roots([0.5] * 3 + _circle(40, 0.9)), 15),
    # a double root: every residual meets the bound, two discs overlap
    "discs": (lambda: from_roots([0.5] * 2 + _circle(40, 0.9)), None),
}


@pytest.mark.parametrize("reason", list(HAND_OVER_CASES))
def test_roots_hand_over_from_the_aberth_start_to_the_companion_route(
        reason, monkeypatch, start_sweeps, companion_eigvals):
    # each way the start can miss ends on the companion route, with the
    # answer of the companion route alone, bit for bit
    build, sweeps = HAND_OVER_CASES[reason]
    p = build()
    if reason == "correction not finite":
        monkeypatch.setattr(opuc.poly, "_newton_polygon_start", _coincident_start)
    if reason == "sweep cap":
        monkeypatch.setattr(opuc.poly, "_MAX_SWEEPS", 3)
    discs: list[bool] = []
    check = opuc.poly._discs_disjoint

    def recorded(*args):
        discs.append(check(*args))
        return discs[-1]

    monkeypatch.setattr(opuc.poly, "_discs_disjoint", recorded)
    got = roots(p)
    assert companion_eigvals == [p.degree]
    if sweeps is not None:
        assert len(start_sweeps) == sweeps
    assert discs == ([False] if reason in ("triple root", "discs") else [])
    monkeypatch.setattr(opuc.poly, "_START_MIN_DEGREE", math.inf)
    assert np.array_equal(_bits(got), _bits(roots(p)))
    assert np.array_equal(_bits(got), _bits(reference_roots(p)))


def test_roots_take_the_start_beside_a_root_near_1e9(start_sweeps, companion_eigvals):
    # each root stops at its own tolerance 1e-10 max(1, |z_i|): a stop test
    # relative to the largest root would end the sweeps once the root near 1e9
    # converged, with residuals up to 2.8e-2 left on the circle
    p = from_roots([6e8 + 8e8j] + _circle(41, 0.9))
    got = roots(p)
    assert companion_eigvals == []
    assert 1 <= len(start_sweeps) <= 25
    assert len(got) == 42
    assert max(_mp_scaled_residual(p.coeffs, r) for r in got) <= 1e-12
    c = np.asarray(p.coeffs) / np.abs(p.coeffs).max()
    assert reference_discs_disjoint(c, np.asarray(got))
    assert min(abs(r - (6e8 + 8e8j)) for r in got) <= 1e-12 * 1e9


def _long_phi_L_star(L: int, draw: int) -> ComplexPoly:
    """Phi_L* of the ``draw``-th sweep draw (head L/4, classical tail) from
    ``default_rng(7)``."""
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        seq = VerblunskySequence(draw_head(rng, L // 4) + draw_tail(rng, L - L // 4))
    return szego_polys(seq, L)[1]


@pytest.mark.parametrize("L, draw", [(192, 1), (192, 3), (256, 0), (256, 1), (256, 2), (256, 3)])
def test_long_phi_L_star_hand_over_before_the_sweep_cap(L, draw, start_sweeps,
                                                         companion_eigvals):
    # the float64 coefficients fix some of these roots only to 6e-10..3e-6,
    # where the corrections stall above 1e-10 max(1, |z_i|) and would run the
    # start into its 50-sweep cap; each such root stops at its rounding floor
    # instead, so the start ends once the others have converged (16-41
    # sweeps).  Its discs overlap (ROADMAP item 6): the companion route answers
    p = _long_phi_L_star(L, draw)
    start_sweeps.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = roots(p)
    assert companion_eigvals == [L]
    assert len(start_sweeps) < opuc.poly._MAX_SWEEPS
    assert len(got) == L


def test_roots_of_random_degree_40_to_80_polynomials(companion_eigvals):
    # coefficients normal, every other draw scaled by 10^U(-8, 8): every draw
    # is answered, the start answers all 60 (a stop test relative to the
    # largest root left five of the scaled ones to the companion route), and
    # each of its answers meets the residual bound with disjoint discs
    rng = np.random.default_rng(40)
    started = 0
    for i in range(60):
        deg = int(rng.integers(40, 81))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if i % 2:
            cs = cs * 10.0 ** rng.uniform(-8.0, 8.0, deg + 1)
        companion_eigvals.clear()
        got = np.asarray(roots(ComplexPoly(cs)))
        assert len(got) == deg
        if not companion_eigvals:
            started += 1
            c = cs / np.abs(cs).max()
            out = np.abs(got) > 1.0  # there the ratio from the reversed coefficients at 1/z
            resid = np.concatenate([reference_scaled_residuals(c, got[~out]),
                                    reference_scaled_residuals(c[::-1], 1.0 / got[out])])
            assert resid.max() <= DEFAULT_ROOT_TOL
            assert reference_discs_disjoint(c, got)
    assert started == 60


@pytest.mark.parametrize("L", [128, 256])
def test_roots_of_long_phi_L_star(L, companion_eigvals):
    # Phi_L* of a sweep draw (head L/4, classical tail), whose coefficients
    # span about 1e-15..1 at L = 256: the powers of a root outside the disk
    # overflowed the sweep until it took them at 1/z.  At L = 128 the start
    # certifies its roots.  At L = 256 the float64 coefficients fix some
    # roots only to about 1e-7 while roots lie 1e-4 apart, and Smith's radius
    # is 4 n^2 eps sum_k |c_k||z|^k / |p'|, so the discs overlap and the
    # companion route answers
    rng = np.random.default_rng(7)
    seq = VerblunskySequence(draw_head(rng, L // 4) + draw_tail(rng, L - L // 4))
    _, phistar = szego_polys(seq, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = roots(phistar)
    assert len(got) == L
    assert max(_mp_scaled_residual(phistar.coeffs, r) for r in got) <= 1e-11
    if L == 128:
        assert companion_eigvals == []
        c = np.asarray(phistar.coeffs) / np.abs(phistar.coeffs).max()
        assert reference_discs_disjoint(c, np.asarray(got))


def test_roots_answer_the_draws_the_companion_route_missed(aberth_runs):
    # five draws of degree 26-39 whose companion roots miss the bound;
    # Aberth from the Newton-polygon circles answers each, with disjoint discs.
    # Oracle: mpmath's roots of the same coefficients at 50 digits
    rng = np.random.default_rng(0)
    draws = {}
    for i in range(2652):
        deg = int(rng.integers(2, 40))
        cs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if rng.random() < 1 / 3:
            cs = cs * 10.0 ** rng.uniform(-8.0, 8.0, deg + 1)
        if i in (715, 1390, 1545, 1974, 2651):
            draws[i] = cs
    for cs in draws.values():
        got = roots(ComplexPoly(cs))
        assert len(got) == len(cs) - 1
        assert max(_mp_scaled_residual(cs, r) for r in got) <= 1e-11
        with mpmath.workdps(50):
            ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(cs)],
                                   maxsteps=400, extraprec=200)
        for r in map(complex, ref):
            assert min(abs(g - r) for g in got) <= 1e-12 * abs(r)
    assert aberth_runs == [len(cs) - 1 for cs in draws.values()]


def test_roots_resolves_clusters_of_very_different_sizes():
    # z^3 + z^2 + 1.37e-266 has roots near -1 and +-1.17e-133 i: the
    # companion matrix resolves the small pair only to absolute accuracy,
    # so Aberth runs from the Newton-polygon circles.  Its stop test is
    # relative to each root: an absolute 1e-10 below |z| = 1 stopped the
    # pair at its start points
    p = ComplexPoly([1.3748121654206392e-266, 0, 1, 1])
    got = sorted(roots(p), key=abs)
    assert abs(got[2] + 1) < 1e-15
    for r in got[:2]:
        assert abs(abs(r.imag) / 1.1725238442866052e-133 - 1) < 1e-12
        assert abs(p(r)) <= 1e-12 * p.magnitude_bound(r)


def test_roots_keep_the_tiny_pair_apart_from_minus_one():
    # z^3 + z^2 + 1.37e-266 has the roots -1 and +-i sqrt(1.37e-266).  Aberth
    # started from the companion roots (-1, 0, 0) would end on -1 three
    # times, and -1 meets the residual bound, so residuals alone cannot
    # reject that answer: the Newton-polygon start puts the pair on its own
    # circle and keeps it apart
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


def test_roots_keep_every_root_when_the_constant_underflows():
    # the constant 3.8e-285 underflows to 0 in the max-normalisation, and the
    # companion roots miss: the Aberth restart once started at the first
    # nonzero coefficient, so it answered 3 roots, one of them (9.1e-218) no
    # root, and lost the one near 2.4e72.  The flushed constant is a root at
    # 0 (for the root near -c_0/c_1 = 9.4e-310, which 80-digit polyroots also
    # gives as 0); the Aberth run finds the other three.  Oracle: mpmath's roots
    # of the same coefficients at 80 digits
    cs = [3.8e-285, -3.9e24 - 1.1e24j, -8e69 + 5.9e69j, -2.2e128 - 1.2e128j, 9e55]
    got = roots(ComplexPoly(cs))
    assert len(got) == 4 and got[-1] == 0
    with mpmath.workdps(80):
        ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in map(complex, reversed(cs))],
                               maxsteps=500, extraprec=800)
    for r in map(complex, ref):
        assert min(abs(g - r) for g in got) <= 1e-12 * abs(r)


def test_roots_answer_the_degree_or_refuse_when_the_constant_underflows():
    # coefficient moduli 10^U(-200, 200), the constant 10^U(-320, -250) and
    # the leading one 10^U(50, 300), so the constant underflows in the
    # scaling: 3 of these 300 draws once came back short of the degree
    rng = np.random.default_rng(1)
    for _ in range(300):
        deg = int(rng.integers(2, 12))
        cs = 10.0 ** rng.uniform(-200, 200, deg + 1) * np.exp(2j * np.pi * rng.uniform(size=deg + 1))
        cs[0] = 10.0 ** rng.uniform(-320, -250)
        cs[-1] = 10.0 ** rng.uniform(50, 300)
        p = ComplexPoly(cs)
        try:
            assert len(roots(p)) == p.degree
        except RootFindingError:
            pass


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


def test_roots_match_the_np_roots_reference_bit_for_bit(aberth_runs):
    # degree 2-39, a third of the draws with coefficient scales 10^U(-8, 8).
    # Where the companion roots meet the bound, roots answers as the
    # reference bit for bit.  Where they miss (draw 415), the library's
    # Aberth run and the reference's Horner iteration stop at different
    # points, so that answer is checked against 50-digit roots instead (it
    # is off by 1.5e-16, the reference by 1.3e-16); where the reference
    # refuses, every root found meets the bound
    rng = np.random.default_rng(10)
    answered = restarted = 0
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
        aberth_runs.clear()
        got = roots(p)
        if aberth_runs:
            restarted += 1
            with mpmath.workdps(50):
                mp = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(cs)],
                                      maxsteps=400, extraprec=200)
            for r in map(complex, mp):
                assert min(abs(g - r) for g in got) <= 1e-14 * abs(r)
            continue
        assert np.array_equal(_bits(got), _bits(ref))
    assert answered >= 1
    assert restarted == 1


HUGE_ROOT = -4e10 + 4.5e10j


def _huge_root_poly() -> ComplexPoly:
    """A root near HUGE_ROOT and 35 on the circle of radius 0.9: the sum
    sum_k |c_k| |z|**k overflows at the huge root."""
    return from_roots([HUGE_ROOT] + [0.9 * complex(math.cos(t), math.sin(t))
                                     for t in 2 * math.pi * np.arange(35) / 35])


def _assert_huge_root_resolved(p: ComplexPoly, got: list[complex]) -> None:
    assert len(got) == 36
    assert max(_mp_scaled_residual(p.coeffs, r) for r in got) <= 1e-11
    assert min(abs(r - HUGE_ROOT) for r in got) <= 1e-12 * abs(HUGE_ROOT)


def test_roots_of_a_polynomial_whose_scale_overflows_at_a_huge_root():
    # in complex arithmetic the overflow met an imaginary 0 as inf * 0 = NaN,
    # the 1/z fallback never ran and the polynomial was refused ("root
    # residuals up to inf")
    p = _huge_root_poly()
    with pytest.raises(RootFindingError):
        reference_roots(p)
    _assert_huge_root_resolved(p, roots(p))


def test_roots_make_no_horner_call(horner_calls):
    # the Newton step and the residual come from one matrix of powers, a fixed
    # number of numpy calls at every degree; a row whose scale overflows takes
    # its residual from a matrix of powers of 1/r and the reversed coefficients
    rng = np.random.default_rng(3)
    assert len(roots(ComplexPoly(rng.normal(size=41) + 1j * rng.normal(size=41)))) == 40
    p = _huge_root_poly()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = roots(p)
    assert horner_calls == []
    _assert_huge_root_resolved(p, got)


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
    [math.nan, 1.0],                        # not finite at degree 1
    [1.0, math.inf],
    [math.inf, 1.0],
], ids=["inf", "nan", "underflow", "subnormal-lead", "nan-linear", "inf-lead-linear",
        "inf-linear"])
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


def test_series_div_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        series_div(ComplexPoly([1]), ComplexPoly([1, -1]), -1)


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
