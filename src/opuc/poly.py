"""Dense complex polynomial arithmetic with explicit formal degrees.

Coefficients are stored constant term first: ``coeffs[k]`` multiplies
``z**k``.  A polynomial also carries a *formal* degree, possibly larger
than the index of its last nonzero coefficient; conjugate reversal is
taken with respect to the formal degree, so trimming trailing zeros
never loses the information needed to reverse.  Only exact zeros are
trimmed -- numerical near-zeros are data and are kept.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_DISK_GUARD = 1e-8

_ABERTH_MAX_SWEEPS = 200


class RootFindingError(RuntimeError):
    """Neither the companion-matrix roots nor the Newton-polygon Aberth restart met the bound."""

    def __init__(self, message: str, residuals: Sequence[float] = ()) -> None:
        super().__init__(message)
        self.residuals = list(residuals)


class ComplexPoly:
    """Immutable dense polynomial with complex coefficients.

    Equality compares coefficient tuples only; the formal degree is
    reversal metadata, not part of the value.
    """

    __slots__ = ("coeffs", "formal_degree")

    coeffs: tuple[complex, ...]
    formal_degree: int

    def __init__(self, coeffs: Iterable[complex], formal_degree: int | None = None) -> None:
        cs = [complex(c) for c in coeffs]
        if not cs:
            cs = [0j]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        degree = -1 if (len(cs) == 1 and cs[0] == 0) else len(cs) - 1
        if formal_degree is None:
            formal_degree = max(degree, 0)
        formal_degree = int(formal_degree)
        if formal_degree < degree:
            raise ValueError(f"formal degree {formal_degree} below actual degree {degree}")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "formal_degree", formal_degree)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ComplexPoly is immutable")

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def __call__(self, z):
        """Horner evaluation; ``z`` may be a complex scalar or an ndarray."""
        if isinstance(z, np.ndarray):
            return _horner(self.coeffs, z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def magnitude_bound(self, z) -> float:
        """sum_k |c_k| |z|**k, the natural scale for residual tests at ``z``."""
        az = abs(z)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * az + abs(c)
        return acc

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return ComplexPoly(out)

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        out = list(self.coeffs) + [0j] * max(0, len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return ComplexPoly(out)

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            if self.is_zero() or other.is_zero():
                return ComplexPoly([0j])
            a, b = self.coeffs, other.coeffs
            out = [0j] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca == 0:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return ComplexPoly(out)
        s = complex(other)
        return ComplexPoly([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def shifted(self, k: int) -> "ComplexPoly":
        """Multiply by z**k (coefficient shift; exact)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero():
            return ComplexPoly([0j])
        return ComplexPoly([0j] * k + list(self.coeffs))

    def reverse(self, n: int | None = None) -> "ComplexPoly":
        """Conjugate reversal at degree ``n``: z**n * conj(p(1/conj(z))).

        Coefficientwise ``q[k] = conj(p[n-k])``; the result records ``n``
        as its formal degree so the reversal is an involution.
        """
        if n is None:
            n = self.formal_degree
        if n < self.degree:
            raise ValueError(f"reversal degree {n} below actual degree {self.degree}")
        padded = list(self.coeffs) + [0j] * (n + 1 - len(self.coeffs))
        return ComplexPoly([c.conjugate() for c in reversed(padded)], n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ComplexPoly({list(self.coeffs)!r}, formal_degree={self.formal_degree})"


def from_roots(rts: Iterable[complex]) -> ComplexPoly:
    """Expand the monic prod (z - r) into dense coefficients."""
    coeffs = [1 + 0j]
    for r in rts:
        r = complex(r)
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return ComplexPoly(coeffs)


def _horner(c: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """Horner evaluation of coefficients ``c`` (constant first) at every point of ``z``."""
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc *= z
        acc += ck
    return acc


def _scaled_residuals(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |c_k| |z|**k; where that sum overflows (|z| > 1), the
    same ratio from the reversed coefficients at 1/z."""
    vals = np.abs(_horner(c, z))
    # real arithmetic: in complex arithmetic an overflow meets an imaginary 0
    # and turns into inf * 0 = NaN, which hides it from the 1/z fallback
    az = np.abs(z)
    scale = np.full(z.shape, abs(c[-1]))
    for ck in np.abs(c[-2::-1]):
        scale *= az
        scale += ck
    resid = vals / np.maximum(scale, 1e-300)
    if scale.max() == np.inf:
        over = np.isinf(scale)
        resid[over] = _scaled_residuals(c[::-1], 1.0 / z[over])
    return resid


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """For each edge (x0, x1) of the upper convex hull of the points
    (k, log|c_k|), x1 - x0 points on the circle of radius
    (|c_x0|/|c_x1|)^(1/(x1 - x0)): clusters of roots of very different
    sizes each start at their own scale (Bini, Numer. Algorithms 13, 1996)."""
    hull: list[tuple[int, float]] = []
    for x, y in ((k, np.log(abs(ck))) for k, ck in enumerate(c) if ck != 0):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    n = len(c) - 1
    return np.concatenate([
        np.exp((y0 - y1) / (x1 - x0)
               + 1j * (2.0 * np.pi * (np.arange(x1 - x0) / (x1 - x0) + x0 / n) + 0.39))
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])])


def _aberth(c: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Simultaneous (Aberth-Ehrlich) iteration from the start points ``z``
    to scaled residuals within DEFAULT_ROOT_TOL; None if not converged."""
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    for _ in range(_ABERTH_MAX_SWEEPS + 1):
        if (_scaled_residuals(c, z) <= DEFAULT_ROOT_TOL).all():
            return z
        pv = _horner(c, z)
        dpv = _horner(dc, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dpv != 0, pv / np.where(dpv != 0, dpv, 1.0), 1.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulsion = (1.0 / diff).sum(axis=1)
            corr = newton / (1.0 - newton * repulsion)
        corr = np.where(np.isfinite(corr), corr,
                        np.where(np.isfinite(newton), newton, 0.3 + 0.2j))
        z = z - corr
    return None


def roots(p: ComplexPoly) -> list[complex]:
    """All complex roots of the trimmed polynomial, with multiplicity.

    Exact zero coefficients at the low end deflate exactly (roots at the
    origin are reported as exactly 0).  Each returned root r satisfies
    ``|p(r)| <= DEFAULT_ROOT_TOL * sum_k |c_k| |r|**k``: the companion-matrix
    roots, each after one Newton step, if all of them do, else Aberth
    iteration from the Newton-polygon circles; if that misses too,
    RootFindingError carries the companion residuals.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined root set")
    cs = list(p.coeffs)
    found: list[complex] = []
    while cs[0] == 0:
        cs.pop(0)
        found.append(0j)
    n = len(cs) - 1
    if n == 0:
        return found
    if n == 1:
        found.append(-cs[0] / cs[1])
        return found
    c = np.asarray(cs, dtype=complex)
    with np.errstate(all="ignore"):  # out-of-range values end in a refusal, not a warning
        top = np.abs(c).max()
        c = c / top
        if not math.isfinite(top) or c[-1] == 0:
            raise RootFindingError("coefficients not finite, or the leading one underflows")
        # np.roots's companion matrix, without its wrapper: low coefficients
        # that underflowed in the scaling are roots at 0 (all of them if m = 0)
        m = n - int(np.flatnonzero(c)[0])
        lead_first = c[::-1][:m + 1]
        companion = np.eye(m, k=-1, dtype=complex)
        companion[:1] = -lead_first[1:] / lead_first[0]
        overflow = False
        try:
            cand = np.concatenate([np.linalg.eigvals(companion), np.zeros(n - m, dtype=complex)])
        except np.linalg.LinAlgError:  # the companion matrix overflows: a miss
            cand = np.full(n, np.nan, dtype=complex)
            overflow = True
        # a Newton step shorter than a tenth of the gap to the nearest root:
        # none merge; a non-finite step is not taken
        step = _horner(c, cand) / _horner(c[1:] * np.arange(1, n + 1), cand)
        gap = np.abs(cand[:, None] - cand[None, :]) + np.diag(np.full(n, np.inf))
        cand = np.where(np.abs(step) < 0.1 * gap.min(axis=1), cand - step, cand)
        resid = _scaled_residuals(c, cand)
        if not resid.max() <= DEFAULT_ROOT_TOL:  # a NaN residual is a miss
            cand = _aberth(c, _newton_polygon_start(c))
            if cand is None:
                worst = np.nan_to_num(resid, nan=np.inf).max()
                raise RootFindingError(
                    "the polynomial has a root beyond float64 range (its companion matrix "
                    "overflows)" if overflow else
                    f"root residuals up to {worst:.3e} exceed tolerance {DEFAULT_ROOT_TOL:.1e}",
                    residuals=resid.tolist(),
                )
    found.extend(complex(r) for r in cand)
    return found


def series_div(num: ComplexPoly, den: ComplexPoly, order: int) -> list[complex]:
    """First ``order + 1`` Maclaurin coefficients of num/den by long division."""
    if den(0) == 0:
        raise ValueError("power-series division requires den(0) != 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = num.coeffs
    b = den.coeffs
    out: list[complex] = []
    for k in range(order + 1):
        s = a[k] if k < len(a) else 0j
        for i in range(1, min(k, len(b) - 1) + 1):
            s -= b[i] * out[k - i]
        out.append(s / b[0])
    return out


def split_by_circle(
        values: Iterable[complex]) -> tuple[list[complex], list[complex], list[complex]]:
    """Partition points into (inside, ambiguous, outside) relative to the
    unit circle with a guard band of half-width DEFAULT_DISK_GUARD."""
    inside: list[complex] = []
    ambiguous: list[complex] = []
    outside: list[complex] = []
    for v in values:
        m = abs(v)
        if m <= 1.0 - DEFAULT_DISK_GUARD:
            inside.append(v)
        elif m < 1.0 + DEFAULT_DISK_GUARD:
            ambiguous.append(v)
        else:
            outside.append(v)
    return inside, ambiguous, outside
