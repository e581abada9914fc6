"""Verblunsky sequences, Szego-type recurrences, and Wall polynomials.

The coupled recurrence

    Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi_k*(z)
    Phi*_{k+1}(z) = Phi_k*(z) - alpha_k z Phi_k(z),        Phi_0 = Phi_0* = 1,

is run for arbitrary complex coefficients with |alpha_k| != 1; coefficients
beyond the stored list are implicitly zero.  Phi_k* is the conjugate
reversal of Phi_k at degree k, coefficient for coefficient in floating
point too, so the run carries Phi_k alone, as one plain list of
coefficients, and reverses it only at the indices a caller asks for; only
those are wrapped in ``ComplexPoly``, so one run gives every index a
caller needs.  Wall polynomials come from the ordered product of the
per-step transfer matrices

    M_k(z) = [[z, alpha_k], [conj(alpha_k) z, 1]],

whose top-right/bottom-right entries are A_n, B_n; the product's remaining
entries equal z B_n* and z A_n*, which is recomputed and checked on every
call together with the Pinter-Nevai identity.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .poly import ComplexPoly

DEFAULT_GUARD_UNIT = 1e-8
CROSS_CHECK_TOL = 1e-10


class GuardViolationError(ValueError):
    """A coefficient modulus is within the guard distance of the unit circle."""

    def __init__(self, index: int, modulus: float, guard: float) -> None:
        super().__init__(
            f"index {index} on unit circle: | |alpha| - 1 | = {abs(modulus - 1.0):.3e} "
            f"< guard {guard:.1e}")
        self.index = index
        self.modulus = modulus


class CrossCheckError(RuntimeError):
    """An internally recomputed identity failed; indicates an implementation bug."""


@dataclasses.dataclass(frozen=True)
class VerblunskySequence:
    """A finite list of coefficients alpha_j with an implicit zero tail.

    Construction rejects any non-finite coefficient and any coefficient
    whose modulus is within ``guard_unit`` of 1, so every downstream sign
    and zero-count argument is numerically meaningful.
    """

    alphas: tuple[complex, ...]
    guard_unit: float = DEFAULT_GUARD_UNIT

    def __init__(self, alphas, guard_unit: float = DEFAULT_GUARD_UNIT) -> None:
        if not guard_unit > 0:  # NaN included
            raise ValueError("guard_unit must be positive")
        coerced = tuple(complex(a) for a in alphas)
        for j, a in enumerate(coerced):
            if not cmath.isfinite(a):
                raise ValueError(f"index {j} is not finite: {a!r}")
            m = abs(a)
            if abs(m - 1.0) < guard_unit:
                raise GuardViolationError(j, m, guard_unit)
        object.__setattr__(self, "alphas", coerced)
        object.__setattr__(self, "guard_unit", float(guard_unit))

    def __len__(self) -> int:
        return len(self.alphas)

    def alpha(self, j: int) -> complex:
        """Coefficient at index j; zero beyond the stored list."""
        return self.alphas[j] if j < len(self.alphas) else 0j

    @property
    def N(self) -> int:
        """1 + largest index with |alpha| > 1, or 0 if none: the first index
        from which the remaining sequence is classical."""
        n = 0
        for j, a in enumerate(self.alphas):
            if abs(a) > 1.0:
                n = j + 1
        return n


@dataclasses.dataclass(frozen=True)
class WallPair:
    """Wall polynomials A_n, B_n; both carry formal degree n for reversal."""

    A: ComplexPoly
    B: ComplexPoly
    n: int


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    """Maximum deviations of the three algebraic identities at index n."""

    n: int
    grid: int
    wall_on_circle: float     # | |B|^2 - |A|^2 - omega_n | over the grid
    pinter_nevai: float       # coefficientwise residual against Phi_{n+1}, Phi*_{n+1}
    liouville: float          # Phi Psi* + Phi* Psi - 2 z^{n+1} omega_n, coefficientwise


def _abs2(a: complex) -> float:
    return a.real * a.real + a.imag * a.imag


def _szego_steps(alphas, n: int):
    """Coefficient lists (constant first) of Phi_k for k = 0..n, from one run
    of the recurrence over ``alphas`` (zero beyond them).  Phi_k* is not
    carried: it is the conjugate reversal of Phi_k at degree k, exactly, so
    each step reads it from Phi_k itself.  Each step builds one new list; no
    list is changed after it is yielded."""
    phi = [1 + 0j]
    yield phi
    for k in range(n):
        ca = alphas[k].conjugate() if k < len(alphas) else 0j
        phi = [x - ca * y.conjugate() for x, y in zip([0j] + phi, phi[::-1] + [0j])]
        yield phi


def _szego_pairs(alphas, ns) -> dict[int, tuple[ComplexPoly, ComplexPoly]]:
    """{n: (Phi_n, Phi_n*)} for every n in ``ns``, from one run of the
    recurrence up to the largest; formal degree n, as ``szego_polys``.  Only
    the Phi_n asked for are reversed into Phi_n*."""
    want = set(ns)
    if min(want) < 0:
        raise ValueError("index must be nonnegative")
    out = {}
    for k, phi in enumerate(_szego_steps(alphas, max(want))):
        if k in want:
            # 0.0 - imag, not conjugate(): an imaginary zero comes out +0,
            # as the coupled recurrence's second line leaves it
            star = [complex(c.real, 0.0 - c.imag) for c in reversed(phi)]
            out[k] = ComplexPoly(phi, k), ComplexPoly(star, k)
    return out


def szego_polys(seq: VerblunskySequence, n: int) -> tuple[ComplexPoly, ComplexPoly]:
    """Monic Phi_n of exact degree n and its reversal Phi_n*; Phi_n*(0) = 1.

    The starred polynomial is Phi_n reversed at degree n, which is what the
    second line of the coupled recurrence computes, bit for bit.
    """
    return _szego_pairs(seq.alphas, (n,))[n]


def second_kind_polys(seq: VerblunskySequence, n: int) -> tuple[ComplexPoly, ComplexPoly]:
    """Second-kind polynomials Psi_n, Psi_n*: the recurrence with {-alpha_j}."""
    return _szego_pairs([-a for a in seq.alphas], (n,))[n]


def omega(seq: VerblunskySequence, n: int) -> float:
    """prod_{j=0}^{n} (1 - |alpha_j|^2); may be negative.  Empty product is 1."""
    out = 1.0
    for j in range(min(n + 1, len(seq))):
        out *= 1.0 - _abs2(seq.alpha(j))
    return out


def omega_log_sign(seq: VerblunskySequence, n: int) -> tuple[int, float]:
    """(sign, log magnitude) of omega_n; safe against under/overflow."""
    sign = 1
    logmag = 0.0
    for j in range(min(n + 1, len(seq))):
        f = 1.0 - _abs2(seq.alpha(j))
        if f < 0:
            sign = -sign
        logmag += math.log(abs(f))
    return sign, logmag


def _max_coeff_dev(p: ComplexPoly, q: ComplexPoly) -> float:
    diff = p - q
    return max(abs(c) for c in diff.coeffs)


def wall_polys(seq: VerblunskySequence, n: int) -> WallPair:
    """Wall pair (A_n, B_n) from the ordered transfer-matrix product M_0...M_n.

    Coefficients beyond the stored list count as zero.  The call verifies
    the internal structure of the product (top-left = z B_n*, bottom-left
    = z A_n*) and the Pinter-Nevai identity against the recurrence; any
    residual beyond CROSS_CHECK_TOL relative to coefficient scale raises
    CrossCheckError.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p11, p12 = ComplexPoly([1.0]), ComplexPoly([0.0])
    p21, p22 = ComplexPoly([0.0]), ComplexPoly([1.0])
    for k in range(n + 1):
        a = seq.alpha(k)
        p11, p12, p21, p22 = (
            (p11 + a.conjugate() * p12).shifted(1),
            a * p11 + p12,
            (p21 + a.conjugate() * p22).shifted(1),
            a * p21 + p22,
        )
    A = ComplexPoly(p12.coeffs, n)
    B = ComplexPoly(p22.coeffs, n)

    scale = max(1.0, max(abs(c) for c in p11.coeffs), max(abs(c) for c in p21.coeffs))
    dev_structure = max(
        _max_coeff_dev(p11, B.reverse(n).shifted(1)),
        _max_coeff_dev(p21, A.reverse(n).shifted(1)),
    )
    phi, phistar = szego_polys(seq, n + 1)
    dev_pn = max(
        _max_coeff_dev(phi, B.reverse(n).shifted(1) - A.reverse(n)),
        _max_coeff_dev(phistar, B - A.shifted(1)),
    )
    if dev_structure > CROSS_CHECK_TOL * scale or dev_pn > CROSS_CHECK_TOL * scale:
        raise CrossCheckError(
            f"wall polynomial cross-check failed at n={n}: "
            f"structure dev {dev_structure:.3e}, Pinter-Nevai dev {dev_pn:.3e}")
    if B(0) != 1:
        raise CrossCheckError(f"B_n(0) = {B(0)!r} != 1")
    if A(0) != seq.alpha(0):
        raise CrossCheckError(f"A_n(0) = {A(0)!r} != alpha_0")
    return WallPair(A=A, B=B, n=n)


def verify_identities(seq: VerblunskySequence, n: int, grid: int = 256) -> IdentityReport:
    """Measure the three core identities at index n on a circle grid.

    Deviations are reported raw (data, not failures): the caller decides
    what tolerance is appropriate for the coefficient scale at hand.
    """
    wp = wall_polys(seq, n)
    om = omega(seq, n)
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    zs = np.exp(1j * thetas)
    wall_dev = float(np.max(np.abs(
        np.abs(wp.B(zs)) ** 2 - np.abs(wp.A(zs)) ** 2 - om)))

    phi, phistar = szego_polys(seq, n + 1)
    pn_dev = max(
        _max_coeff_dev(phi, wp.B.reverse(n).shifted(1) - wp.A.reverse(n)),
        _max_coeff_dev(phistar, wp.B - wp.A.shifted(1)),
    )

    psi, psistar = second_kind_polys(seq, n + 1)
    target = ComplexPoly([0j] * (n + 1) + [2.0 * om])
    liou_dev = _max_coeff_dev(phi * psistar + phistar * psi, target)
    return IdentityReport(n=n, grid=grid, wall_on_circle=wall_dev,
                          pinter_nevai=pn_dev, liouville=liou_dev)
