import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opuc.opuc_core
from opuc import (
    ComplexPoly,
    CrossCheckError,
    GuardViolationError,
    VerblunskySequence,
    omega,
    omega_log_sign,
    second_kind_polys,
    szego_polys,
    verify_identities,
    wall_polys,
)

from helpers import (
    draw_near_circle,
    draw_wide,
    random_admissible,
    reference_second_kind_polys,
    reference_szego_polys,
    same_bits,
)

# ---------------------------------------------------------------------------
# sequence type


def test_guard_rejects_unit_circle_coefficient():
    with pytest.raises(GuardViolationError) as err:
        VerblunskySequence([1.0])
    assert err.value.index == 0
    assert "index 0 on unit circle" in str(err.value)


def test_guard_rejects_near_unit_modulus():
    with pytest.raises(GuardViolationError):
        VerblunskySequence([0.3, (1 + 1e-9) * 1j])


def test_empty_sequence_is_valid():
    seq = VerblunskySequence([])
    assert len(seq) == 0 and seq.N == 0 and seq.alpha(7) == 0


def test_split_index():
    assert VerblunskySequence([2, 0.5]).N == 1
    assert VerblunskySequence([0.5, 3, 0.2, 0.1]).N == 2
    assert VerblunskySequence([0.5, 0.5]).N == 0


# ---------------------------------------------------------------------------
# recurrences


def test_szego_free_case():
    phi, phistar = szego_polys(VerblunskySequence([]), 3)
    assert phi.coeffs == (0, 0, 0, 1)
    assert phistar.coeffs == (1,)
    assert phistar == phi.reverse(3)


def test_szego_one_step():
    a = 0.3 - 0.4j
    phi, phistar = szego_polys(VerblunskySequence([a]), 1)
    assert phi.coeffs == (-a.conjugate(), 1)
    assert phistar.coeffs == (1, -a)


def test_szego_two_steps():
    # two hand applications of the recurrence from alpha = (2, 0.5)
    phi, phistar = szego_polys(VerblunskySequence([2, 0.5]), 2)
    assert phi.coeffs == (-0.5, -1, 1)
    assert phistar.coeffs == (1, -1, -0.5)


def test_second_kind_flips_signs():
    psi, psistar = second_kind_polys(VerblunskySequence([2]), 1)
    assert psi.coeffs == (2, 1)
    assert psistar.coeffs == (1, 2)
    psi, psistar = second_kind_polys(VerblunskySequence([]), 2)
    assert psi.coeffs == (0, 0, 1) and psistar.coeffs == (1,)
    psi, psistar = second_kind_polys(VerblunskySequence([0.5]), 1)
    assert psi.coeffs == (0.5, 1) and psistar.coeffs == (1, 0.5)


def test_monic_degree_and_star_normalization_up_to_40():
    rng = np.random.default_rng(5)
    seq = random_admissible(rng, head_max=6, tail_max=6)
    for n in range(41):
        phi, phistar = szego_polys(seq, n)
        assert phi.degree == n and phi.coeffs[-1] == 1
        assert phistar(0) == 1
        psi, _ = second_kind_polys(seq, n)
        assert psi.degree == n and psi.coeffs[-1] == 1


def test_recurrences_match_the_polynomial_reference_bit_for_bit():
    # 60 sequences with exact zeros and moduli up to 1e150 (so some runs
    # overflow to inf and NaN), at every index up to 3 beyond the stored list
    rng = np.random.default_rng(91)
    for _ in range(60):
        seq = draw_wide(rng)
        for n in range(len(seq) + 4):
            for got, want in zip(szego_polys(seq, n) + second_kind_polys(seq, n),
                                 reference_szego_polys(seq, n)
                                 + reference_second_kind_polys(seq, n)):
                assert same_bits(got, want), (seq.alphas, n)


@pytest.mark.parametrize("L", [16, 32, 64])
def test_recurrences_match_the_polynomial_reference_at_the_sweep_lengths(L):
    # a near-circle sweep case; the run carries Phi_k alone and reverses it
    # into Phi_k*, and every coefficient, signed zeros included, is the
    # coupled recurrence's
    seq = draw_near_circle(np.random.default_rng(L), L, 1e-8, 1e-3)
    for n in sorted({seq.N, L // 2, L, L + 3}):
        for got, want in zip(szego_polys(seq, n) + second_kind_polys(seq, n),
                             reference_szego_polys(seq, n)
                             + reference_second_kind_polys(seq, n)):
            assert repr(got) == repr(want), (L, n)


def test_negative_index_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        szego_polys(VerblunskySequence([0.5]), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        second_kind_polys(VerblunskySequence([0.5]), -1)


def test_star_polynomial_is_exact_reversal():
    rng = np.random.default_rng(6)
    seq = random_admissible(rng)
    for n in range(12):
        phi, phistar = szego_polys(seq, n)
        assert phistar == phi.reverse(n)  # bitwise: both recurrences mirror


# ---------------------------------------------------------------------------
# omega


def test_omega_values():
    assert omega(VerblunskySequence([2]), 0) == -3
    assert omega(VerblunskySequence([2, 0.5]), 1) == -2.25
    assert omega(VerblunskySequence([0.5]), 0) == 0.75
    assert omega(VerblunskySequence([]), 9) == 1


def test_omega_log_sign_consistent():
    seq = VerblunskySequence([2, 0.5, 0.3j])
    sign, logmag = omega_log_sign(seq, 2)
    val = omega(seq, 2)
    assert sign == (1 if val > 0 else -1)
    assert math.isclose(math.exp(logmag), abs(val), rel_tol=1e-13)


def test_omega_log_sign_counts_the_negative_factors():
    sign, logmag = omega_log_sign(VerblunskySequence([2, 2j, 0.5]), 2)
    assert sign == 1 and math.isclose(logmag, math.log(6.75), rel_tol=1e-15)
    assert omega_log_sign(VerblunskySequence([2, 0.5]), 1)[0] == -1
    assert omega_log_sign(VerblunskySequence([2, 0.5]), -1) == (1, 0.0)


def test_a_factor_the_guard_admits_is_not_zero():
    # |alpha_1| - 1 = -1.1e-16 passes a guard of 1e-300; x^2 + y^2 rounds to
    # 1.0 there, while h * h with h = |alpha_1| is 1 - 2^-52
    seq = VerblunskySequence([2.0, 0.5321609527832336 + 0.8466432072206337j], guard_unit=1e-300)
    val = omega(seq, 1)
    sign, logmag = omega_log_sign(seq, 1)
    assert val < 0 and sign == -1
    assert math.isclose(logmag, -34.945041100449046, rel_tol=1e-15)
    assert math.isclose(math.exp(logmag), -val, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# wall polynomials


def test_wall_single_matrix():
    wp = wall_polys(VerblunskySequence([2]), 0)
    assert wp.A.coeffs == (2,) and wp.B.coeffs == (1,)


def test_wall_two_matrices():
    # hand product of M_0 M_1 for alpha = (2, 0.5); at z = 1,
    # |B|^2 - |A|^2 = 4 - 6.25 = -2.25 = omega_1
    wp = wall_polys(VerblunskySequence([2, 0.5]), 1)
    assert wp.A.coeffs == (2, 0.5)
    assert wp.B.coeffs == (1, 1)
    assert abs(wp.B(1)) ** 2 - abs(wp.A(1)) ** 2 == omega(VerblunskySequence([2, 0.5]), 1)


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.0, max_magnitude=0.9,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=0.0, max_magnitude=0.9,
                          allow_nan=False, allow_infinity=False))
def test_wall_symbolic_two_step(a, b):
    # symbolic 2x2 product: A_1 = a + b z, B_1 = 1 + conj(a) b z
    wp = wall_polys(VerblunskySequence([a, b]), 1)
    want_a = ComplexPoly([a, b])
    want_b = ComplexPoly([1, a.conjugate() * b])
    assert max(abs(c) for c in (wp.A - want_a).coeffs) < 1e-14
    assert max(abs(c) for c in (wp.B - want_b).coeffs) < 1e-14


def test_wall_accepts_index_beyond_storage():
    wp = wall_polys(VerblunskySequence([]), 0)
    assert wp.A.is_zero() and wp.B.coeffs == (1,)


@pytest.mark.parametrize("check", [wall_polys, verify_identities])
def test_wall_refuses_a_negative_index(check):
    with pytest.raises(ValueError, match="index must be nonnegative"):
        check(VerblunskySequence([2, 0.5]), -1)


@pytest.mark.parametrize("check", [wall_polys, verify_identities])
def test_wall_refuses_a_pinter_nevai_miss(monkeypatch, check):
    # a Phi_{n+1} scaled by 1.001 misses B_n* z - A_n* by 1e-3 of its scale
    run = opuc.opuc_core.szego_polys

    def scaled(seq, n):
        phi, phistar = run(seq, n)
        return 1.001 * phi, phistar

    monkeypatch.setattr(opuc.opuc_core, "szego_polys", scaled)
    with pytest.raises(CrossCheckError, match="Pinter-Nevai dev"):
        check(VerblunskySequence([2, 0.5]), 1)


# ---------------------------------------------------------------------------
# identity suite


def test_identities_small_case():
    rep = verify_identities(VerblunskySequence([2, 0.5]), 1, grid=256)
    assert rep.wall_on_circle < 1e-12
    assert rep.pinter_nevai < 1e-12
    assert rep.liouville < 1e-12


@pytest.mark.parametrize("n", [0, 1, 3])
def test_identities_run_each_recurrence_once(szego_runs, n):
    # Phi_{n+1}, Phi_{n+1}* for the Wall pair's Pinter-Nevai check and the
    # Liouville identity from one run; Psi_{n+1}, Psi_{n+1}* from one more
    verify_identities(VerblunskySequence([2, 0.5j, -0.3]), n, grid=16)
    assert szego_runs == [n + 1, n + 1]


@pytest.mark.parametrize("grid", [0, -3])
def test_identities_refuse_an_empty_grid(grid):
    with pytest.raises(ValueError, match="grid must be at least 1"):
        verify_identities(VerblunskySequence([2, 0.5]), 1, grid=grid)


def test_identities_free_case_liouville():
    # Phi_1 Psi_1* + Phi_1* Psi_1 = 2z when all coefficients vanish
    seq = VerblunskySequence([])
    phi, phistar = szego_polys(seq, 1)
    psi, psistar = second_kind_polys(seq, 1)
    assert (phi * psistar + phistar * psi).coeffs == (0, 2)
    rep = verify_identities(seq, 0, grid=16)
    assert rep.liouville == 0


def test_identities_constant_wall_gap():
    # constants A = 0.5, B = 1 give |B|^2 - |A|^2 = 0.75 everywhere
    wp = wall_polys(VerblunskySequence([0.5]), 0)
    zs = np.exp(1j * 2 * np.pi * np.arange(16) / 16)
    np.testing.assert_allclose(np.abs(wp.B(zs)) ** 2 - np.abs(wp.A(zs)) ** 2, 0.75,
                               atol=1e-15)


def _coeff_scale(*polys: ComplexPoly) -> float:
    return max(1.0, max(abs(c) for p in polys for c in p.coeffs))


def test_identity_suite_random_sequences():
    rng = np.random.default_rng(17)
    for _ in range(8):
        seq = random_admissible(rng, head_max=5, tail_max=6)
        for n in range(0, 21, 2):
            rep = verify_identities(seq, n, grid=64)
            phi, phistar = szego_polys(seq, n + 1)
            psi, psistar = second_kind_polys(seq, n + 1)
            scale = _coeff_scale(phi, phistar, psi, psistar,
                                 phi * psistar + phistar * psi)
            assert rep.pinter_nevai <= 1e-12 * scale
            assert rep.liouville <= 1e-12 * scale
            assert rep.wall_on_circle <= 1e-10 * scale


alpha_modulus = st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 2.5))


@st.composite
def admissible_alphas(draw, max_len=5):
    n = draw(st.integers(0, max_len))
    out = []
    for _ in range(n):
        m = draw(alpha_modulus)
        ang = draw(st.floats(0.0, 2.0 * math.pi))
        out.append(m * complex(math.cos(ang), math.sin(ang)))
    return out


@settings(max_examples=40, deadline=None)
@given(admissible_alphas(), st.integers(0, 8))
def test_liouville_property(alphas, n):
    seq = VerblunskySequence(alphas)
    phi, phistar = szego_polys(seq, n + 1)
    psi, psistar = second_kind_polys(seq, n + 1)
    lhs = phi * psistar + phistar * psi
    rhs = ComplexPoly([0j] * (n + 1) + [2.0 * omega(seq, n)])
    scale = _coeff_scale(lhs, rhs)
    assert max(abs(c) for c in (lhs - rhs).coeffs) <= 1e-12 * scale
