"""Rational Schur machinery: tails, the function F, and coefficient recovery.

Every iterate f_n comes from the Schur step run backward from the last
coefficient (Geronimus), with denominators cleared.  The inverse direction
peels one coefficient per step,

    f_{n+1}(z) = (1/z) (f_n(z) - f_n(0)) / (1 - conj(f_n(0)) f_n(z)),

where the forced zero of the numerator at the origin is divided out by an
exact coefficient shift, never by numerical division near z = 0.
"""

from __future__ import annotations

import dataclasses

from .opuc_core import (
    DEFAULT_GUARD_UNIT,
    VerblunskySequence,
    second_kind_polys,
    szego_polys,
)
from .poly import ComplexPoly


class PoleEvaluationError(ArithmeticError):
    """Evaluation was requested at (or numerically at) a pole."""


@dataclasses.dataclass(frozen=True)
class RationalFn:
    """Ratio of two polynomials, normalized so den(0) = 1; otherwise the
    polynomials are kept as given (no root-finding, no cancellation)."""

    num: ComplexPoly
    den: ComplexPoly

    def __init__(self, num, den) -> None:
        num = num if isinstance(num, ComplexPoly) else ComplexPoly(num)
        den = den if isinstance(den, ComplexPoly) else ComplexPoly(den)
        d0 = den(0)
        if d0 == 0:
            raise ValueError("denominator vanishes at z = 0")
        if d0 != 1:
            num = ComplexPoly([c / d0 for c in num.coeffs])
            den = ComplexPoly([c / d0 for c in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return self.num(z) / self.den(z)


@dataclasses.dataclass(frozen=True)
class SchurStep:
    """One inverse Schur step: the extracted coefficient and the next iterate.

    ``next_fn`` is None in the terminal state |alpha| = 1 (within
    DEFAULT_GUARD_UNIT): the next iterate would have a pole at the origin,
    so none is built.
    """

    alpha: complex
    next_fn: RationalFn | None


@dataclasses.dataclass(frozen=True)
class RecoveryResult:
    alphas: tuple[complex, ...]
    termination: str | None  # None | "unimodular"


def _backward_schur(alphas) -> RationalFn:
    """f_0 of ``alphas`` (zero beyond them): from 0/1, each coefficient a, last
    first, applies f_j = (a + z f_{j+1}) / (1 + conj(a) z f_{j+1}) in cleared
    form, on coefficient lists (constant first).  den(0) = 1 exactly, and
    num/den is the Wall pair A/B of ``alphas``."""
    num, den = [0j], [1 + 0j]
    for a in reversed(alphas):
        ca = a.conjugate()
        znum, d = [0j] + num, den + [0j]
        num = [a * y + x for x, y in zip(znum, d)]
        den = [y + ca * x for x, y in zip(znum, d)]
    return RationalFn(ComplexPoly(num), ComplexPoly(den))


def _classical_tail(seq: VerblunskySequence, N: int) -> tuple[complex, ...]:
    """The stored coefficients alpha_N, alpha_{N+1}, ...; a negative N or
    one of modulus >= 1 is a ValueError.  Nothing is built."""
    if N < 0:
        raise ValueError("tail start must be nonnegative")
    for j in range(N, len(seq)):
        if abs(seq.alpha(j)) >= 1.0:
            raise ValueError(f"tail coefficient at index {j} has modulus >= 1")
    return seq.alphas[N:]


def tail_schur(seq: VerblunskySequence, N: int) -> RationalFn:
    """The Schur function f_N of the tail alpha_N, alpha_{N+1}, ... (the
    continuation beyond the stored list is zero).

    Requires the tail to be classical: every stored |alpha_j| < 1 for j >= N
    (``_classical_tail``).  Then |B|^2 - |A|^2 > 0 on the circle, so the
    ratio is strictly Schur.
    """
    return _backward_schur(_classical_tail(seq, N))


def as_rational_f(seq: VerblunskySequence) -> RationalFn:
    """The function f = f_0 = A_{L-1}/B_{L-1} (L = len(seq)) in cleared
    form, with f(0) = alpha_0 exactly."""
    return _backward_schur(seq.alphas)


def as_rational_F(seq: VerblunskySequence) -> RationalFn:
    """F = Psi_L*/Phi_L* with L = len(seq): every coefficient from index L on
    is zero, so the tail f_L vanishes.  Phi_L*(0) = 1 gives F(0) = 1 exactly,
    and Phi_L Psi_L* + Phi_L* Psi_L = 2 z^L omega_{L-1} leaves the two
    polynomials no common zero."""
    L = len(seq)
    return RationalFn(second_kind_polys(seq, L)[1], szego_polys(seq, L)[1])


def inverse_schur_step(f: RationalFn) -> SchurStep:
    """Extract alpha = f(0) and build the next iterate by exact rational algebra.

    With f = P/Q and a = P(0) (Q is normalized at construction so Q(0) = 1),
    the next iterate is shift(P - a Q) / (Q - conj(a) P): the Q factors from
    the Moebius quotient cancel symbolically, and the forced zero at the
    origin is removed by dropping the constant coefficient, which is exact.
    """
    a = f.num(0)
    if abs(abs(a) - 1.0) <= DEFAULT_GUARD_UNIT:
        return SchurStep(alpha=a, next_fn=None)
    shifted_num = (f.num - a * f.den).coeffs[1:]
    den = f.den - a.conjugate() * f.num
    nxt = RationalFn(ComplexPoly(shifted_num if shifted_num else [0.0]), den)
    return SchurStep(alpha=a, next_fn=nxt)


def recover_coefficients(fstar: RationalFn, max_n: int) -> RecoveryResult:
    """Run the inverse Schur algorithm from a rational F_*.

    Seeds with f_0 = (1/z)(F_* - F_*(0)) / (F_* + F_*(0)), which is invariant
    under rescaling F_* by a nonzero constant, then collects f_n(0) for
    n < max_n.  Stops early, with the reason recorded, when an iterate's
    value at 0 is unimodular (within DEFAULT_GUARD_UNIT); short of that the
    next iterate's den(0) = 1 - |alpha|^2 is far from 0 in float64, so no
    pole lands on the origin.  A negative ``max_n`` or F_*(0) = 0 is a
    ValueError; an F_*(0) that is nonzero but at most 1e-14 of sum_k |c_k|
    over the numerator's coefficients is a PoleEvaluationError (the seed's
    denominator F_* + F_*(0) vanishes at 0 to rounding).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    c = fstar.num(0)
    if c == 0:
        raise ValueError("F_*(0) = 0: the Moebius seed is undefined")
    scale = fstar.num.magnitude_bound(1.0)
    if abs(c) <= 1e-14 * max(scale, 1e-300):
        raise PoleEvaluationError(
            f"|F_*(0)| is {abs(c) / scale:.1e} of the numerator's sum_k |c_k|, at most 1e-14: "
            "the Moebius seed has a pole at z = 0 to rounding")
    seed_num = (fstar.num - c * fstar.den).coeffs[1:]
    seed_den = fstar.num + c * fstar.den
    f = RationalFn(ComplexPoly(seed_num if seed_num else [0.0]), seed_den)
    alphas: list[complex] = []
    for _ in range(max_n):
        step = inverse_schur_step(f)
        alphas.append(step.alpha)
        if step.next_fn is None:
            return RecoveryResult(tuple(alphas), "unimodular")
        f = step.next_fn
    return RecoveryResult(tuple(alphas), None)
