"""Rational Schur machinery: tails, the function F, and coefficient recovery.

Both directions of the Schur algorithm run on plain coefficient lists
(constant first), with denominators cleared.  Every iterate f_n comes from
the Schur step run backward from the last coefficient (Geronimus).  The
inverse direction peels one coefficient per step,

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


def as_rational_F(seq: VerblunskySequence) -> RationalFn:
    """F = Psi_L*/Phi_L* with L = len(seq): every coefficient from index L on
    is zero, so the tail f_L vanishes.  Phi_L*(0) = 1 gives F(0) = 1 exactly,
    and Phi_L Psi_L* + Phi_L* Psi_L = 2 z^L omega_{L-1} leaves the two
    polynomials no common zero."""
    L = len(seq)
    return RationalFn(second_kind_polys(seq, L)[1], szego_polys(seq, L)[1])


def _at_zero(cs: list[complex]) -> complex:
    """The value at z = 0 of the coefficient list ``cs`` by Horner, as
    ``ComplexPoly`` evaluates it: cs[0], but the sign of a zero part
    follows the whole list."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * 0 + c
    return acc


def _trim(cs: list[complex]) -> list[complex]:
    """``cs`` without its trailing exact zeros, keeping at least one entry."""
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _less(p: list[complex], a: complex, q: list[complex]) -> list[complex]:
    """p - a q on trimmed coefficient lists, as ``ComplexPoly`` subtracts: a q
    trimmed, p padded with zeros to its length, the difference trimmed."""
    aq = _trim([y * a for y in q])
    out = p + [0j] * (len(aq) - len(p))
    for k, y in enumerate(aq):
        out[k] -= y
    return _trim(out)


def recover_coefficients(fstar: RationalFn, max_n: int) -> RecoveryResult:
    """Run the inverse Schur algorithm from a rational F_*.

    Seeds with f_0 = (1/z)(F_* - F_*(0)) / (F_* + F_*(0)), which is invariant
    under rescaling F_* by a nonzero constant, then collects a = f_n(0) for
    n < max_n in one loop on the coefficient lists of f_n = num/den, the
    mirror of ``_backward_schur``: num, den = (num - a den)/z,
    den - conj(a) num, both divided by the new den(0), so no polynomial
    object is built per step.  It reads f_n(0) and den(0) by Horner
    (``_at_zero``) and drops trailing zeros where ``ComplexPoly`` arithmetic
    does (``_less``), so every alpha, signed zeros included, is the one that
    step in ``ComplexPoly`` arithmetic gives.  Stops early, with the reason recorded, when
    an iterate's value at 0 is unimodular (within DEFAULT_GUARD_UNIT);
    short of that the next den(0) = 1 - |a|^2 is far from 0 in float64, so
    no pole lands on the origin.  A negative ``max_n`` or F_*(0) = 0 is a
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
    num, den = list(f.num.coeffs), list(f.den.coeffs)
    alphas: list[complex] = []
    for _ in range(max_n):
        a = _at_zero(num)
        alphas.append(a)
        if abs(abs(a) - 1.0) <= DEFAULT_GUARD_UNIT:
            return RecoveryResult(tuple(alphas), "unimodular")
        num, den = _less(num, a, den)[1:] or [0j], _less(den, a.conjugate(), num)
        d0 = _at_zero(den)
        if d0 != 1:
            num, den = _trim([x / d0 for x in num]), _trim([y / d0 for y in den])
    return RecoveryResult(tuple(alphas), None)
