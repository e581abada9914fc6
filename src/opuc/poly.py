"""Dense complex polynomial arithmetic.

Coefficients are stored constant term first: ``coeffs[k]`` multiplies
``z**k``.  Conjugate reversal takes its degree from the caller, so
trimming trailing zeros never loses the information needed to reverse.
Only exact zeros are trimmed -- numerical near-zeros are data and are
kept.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_DISK_GUARD = 1e-8

# from this degree on, roots starts with Aberth sweeps, O(n^2) each, from the
# Newton-polygon circles rather than the companion matrix's O(n^3)
# eigenvalues: on the near-circle sweep's Phi_L* (median time per call, one
# thread) they tie at degree 32 (0.64 vs 0.63 ms) and the sweeps are 1.6x
# faster at 48 and 2.0x at 64
_START_MIN_DEGREE = 40
_MAX_SWEEPS = 50
_EPS = np.finfo(float).eps


class RootFindingError(RuntimeError):
    """No candidate root set met the bound: neither the companion-matrix
    roots nor the Aberth iteration from the Newton-polygon circles; or the
    coefficients are not finite, or the leading one underflows beside the
    largest."""

    def __init__(self, message: str, residuals: Sequence[float] = ()) -> None:
        super().__init__(message)
        self.residuals = list(residuals)


class ComplexPoly:
    """Immutable dense polynomial with complex coefficients; equality
    compares coefficient tuples."""

    __slots__ = ("coeffs",)

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]) -> None:
        cs = [complex(c) for c in coeffs]
        if not cs:
            cs = [0j]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def reverse(self, n: int) -> "ComplexPoly":
        """Conjugate reversal at degree ``n``: z**n * conj(p(1/conj(z))).

        Coefficientwise ``q[k] = conj(p[n-k])``; reversing again at the
        same ``n`` gives ``p`` back.
        """
        if n < self.degree:
            raise ValueError(f"reversal degree {n} below actual degree {self.degree}")
        padded = list(self.coeffs) + [0j] * (n + 1 - len(self.coeffs))
        return ComplexPoly([c.conjugate() for c in reversed(padded)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ComplexPoly({list(self.coeffs)!r})"


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


def _on_circle(rows: Sequence[Sequence[complex]], m: int) -> np.ndarray:
    """Values of each coefficient row (constant first) at the m-th roots of
    unity exp(2 pi i j / m), j = 0..m-1: row i of the result is the inverse
    DFT, unscaled, of row i, from one FFT of the stacked rows.  Rows of more
    than m coefficients are folded first, c_k added into c_{k mod m}, as
    z^m = 1 there."""
    k = max(map(len, rows))
    stacked = np.zeros((len(rows), k), dtype=complex)
    for i, row in enumerate(rows):
        stacked[i, :len(row)] = row
    if k > m:
        stacked = np.pad(stacked, ((0, 0), (0, -k % m))).reshape(len(rows), -1, m).sum(axis=1)
    return np.fft.ifft(stacked, n=m, norm="forward")


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """The matrix V[i, k] = z_i**k, k = 0..n, by one running product per row:
    p(z) = V c, and sum_k |c_k| |z|**k = |V| |c|."""
    v = np.empty((len(z), n + 1), dtype=complex)
    v[:, 0] = 1.0
    v[:, 1:] = z[:, None]
    return v.cumprod(axis=1, out=v)


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """For each edge (x0, x1) of the upper convex hull of the points
    (k, log|c_k|), x1 - x0 points on the circle of radius
    (|c_x0|/|c_x1|)^(1/(x1 - x0)): clusters of roots of very different
    sizes each start at their own scale (Bini, Numer. Algorithms 13, 1996)."""
    xs: list[int] = []
    ys: list[float] = []
    for x, ck in enumerate(c.tolist()):
        if ck:
            y = math.log(abs(ck))
            while len(xs) > 1 and ((xs[-1] - xs[-2]) * (y - ys[-2])
                                   >= (ys[-1] - ys[-2]) * (x - xs[-2])):
                xs.pop()
                ys.pop()
            xs.append(x)
            ys.append(y)
    n = len(c) - 1
    x, y = np.array(xs), np.array(ys)
    width = x[1:] - x[:-1]
    x0 = np.repeat(x[:-1], width)
    j = np.arange(len(x0)) - (x0 - x[0])  # the point's index on its edge
    return np.exp(np.repeat((y[:-1] - y[1:]) / width, width)
                  + 1j * (2.0 * np.pi * (j / np.repeat(width, width) + x0 / n) + 0.39))


def _aberth_sweep(cols: np.ndarray, z: np.ndarray,
                  act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Aberth-Ehrlich sweep over the roots z[act], each against all of z:
    their new values z_i - corr_i, corr_i = p/p' / (1 - p/p' sum_{j != i}
    1/(z_i - z_j)), and which of them are still moving, i.e. whose
    correction exceeds both 1e-10 |z_i| and the rounding floor
    4 n eps S_i / |p'(z_i)|, S_i = sum_k |c_k| |z_i|**k.

    ``cols`` holds, as four columns (``_aberth``), the coefficients c,
    their derivative's, the reversed coefficients and those of
    u (n q - u q').  p and p' come from one matrix of powers of u, with
    u = z where |z| <= 1 and u = 1/z elsewhere, so no power exceeds 1 in
    modulus: at |z| > 1 the reversed coefficients give q(u) = u^n p(z), and
    p/p' = q / (u (n q - u q')).  With d the denominator of p/p' in either
    frame and s_i the frame's sum of |coefficient| |u_i|**k, the floor is
    4 n eps s_i / |d_i|; s_i is at most n + 1 for max-normalised
    coefficients, so it is summed only for the rows that bound could stop."""
    n = len(cols) - 1
    za = z[act]
    az = np.abs(za)
    out = az > 1.0
    v = _powers(np.where(out, 1.0 / za, za), n)
    p, dp, q, dq = (v @ cols).T
    d = np.where(out, dq, dp)
    newton = np.where(out, q, p) / d
    diff = np.subtract.outer(za, z)
    diff[np.arange(len(act)), act] = np.inf
    corr = newton / (1.0 - newton * np.reciprocal(diff, out=diff).sum(axis=1))
    size = np.abs(corr)
    moving = size > 1e-10 * az
    rounding = size * np.abs(d)  # at the floor when at most 4 n eps s_i
    eps4n = 4 * n * _EPS
    near = (moving & (rounding <= eps4n * (n + 1))).nonzero()[0]
    if len(near):
        s = np.abs(v[near]) @ np.abs(cols[:, ::2])
        moving[near] = rounding[near] > eps4n * np.where(out[near], s[:, 1], s[:, 0])
    return za - corr, moving


def _aberth(c: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Aberth sweeps from the start points ``z``, each over the roots still
    moving (``_aberth_sweep``): a root stops once its own correction is at
    most 1e-10 |z_i| or its rounding floor, so a sweep costs O(moving n).
    Once every root has stopped, the roots after one ``_polish``, if every
    residual meets DEFAULT_ROOT_TOL and Smith's inclusion discs, built from
    the polish's own values, are pairwise disjoint (``_discs_disjoint``).
    None if not, on a correction that is not finite, or after _MAX_SWEEPS
    sweeps."""
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    cols = np.zeros((n + 1, 4), dtype=complex)
    cols[:, 0], cols[:n, 1], cols[:, 2], cols[1:, 3] = c, dc, c[::-1], dc[::-1]
    z = z.copy()
    act = np.arange(n)
    for _ in range(_MAX_SWEEPS):
        swept, moving = _aberth_sweep(cols, z, act)
        if not np.isfinite(swept).all():
            return None
        z[act] = swept
        act = act[moving]
        if not len(act):
            z, *smith, resid = _polish(c, z)
            return z if resid.max() <= DEFAULT_ROOT_TOL and _discs_disjoint(c, z, *smith) else None
    return None


def _polish(c: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, ...]:
    """One Newton step per candidate where it is shorter than a tenth of the
    gap to the nearest other candidate (so none merge; a non-finite step is
    not taken), then (roots, |p|, scale, log shift, scaled residuals) at the
    result, the residual being |p| / scale.

    The step and |p| come from one matrix of powers each (``_powers``), the
    scale sum_k |c_k| |z|**k in real arithmetic, and the log shift is 0.
    Where the scale is not finite (the powers overflow, or inf * 0 at a zero
    coefficient) |p| and the scale are |q(1/r)| and sum_k |c_{n-k}| |1/r|**k
    of the reversed coefficients q instead, and the log shift is n log|r|,
    the log of the factor |r|**n between them and p's; a NaN root keeps its
    NaN.  ``_discs_disjoint`` takes |p|, the scale and the shift as they
    are."""
    n = len(c) - 1
    v = _powers(cand, n)
    step = (v @ c) / (v[:, :n] @ (c[1:] * np.arange(1, n + 1)))
    gap = np.abs(cand[:, None] - cand[None, :])
    np.fill_diagonal(gap, np.inf)
    cand = np.where(np.abs(step) < 0.1 * gap.min(axis=1), cand - step, cand)
    v = _powers(cand, n)
    absp = np.abs(v @ c)
    scale = np.abs(v) @ np.abs(c)
    shift = np.zeros(n)
    over = ~np.isfinite(scale) & np.isfinite(cand)
    if over.any():
        w = 1.0 / cand[over]
        v = _powers(w, n)
        absp[over], scale[over] = np.abs(v @ c[::-1]), np.abs(v) @ np.abs(c[::-1])
        shift[over] = -n * np.log(np.abs(w))
    return cand, absp, scale, shift, absp / np.maximum(scale, 1e-300)


def _discs_disjoint(c: np.ndarray, z: np.ndarray, absp: np.ndarray, scale: np.ndarray,
                    shift: np.ndarray) -> bool:
    """True when Smith's inclusion discs about the approximations ``z`` are
    pairwise disjoint, so each holds exactly one root (Smith, JACM 17, 1970).

    The radius is r_i = n (|p(z_i)| + 4 n eps S_i) / |c_n prod_{j != i} (z_i - z_j)|,
    with S_i = sum_k |c_k| |z_i|**k bounding the rounding of p(z_i); the
    product is taken as a sum of logs.  ``absp``, ``scale`` and ``shift``
    are ``_polish``'s: |p(z_i)| and S_i with a log shift of 0, or, where S_i
    overflows, the reversed coefficients' values at 1/z_i with the shift
    n log|z_i|, so no power is computed here.  A coincident pair gives an
    infinite radius."""
    n = len(z)
    log_m = np.log(absp + 4 * n * _EPS * scale) + shift
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, 1.0)
    r = np.exp(np.log(n) + log_m - np.log(abs(c[-1])) - np.log(gap).sum(axis=1))
    np.fill_diagonal(gap, np.inf)
    return bool((r[:, None] + r[None, :] < gap).all())


def roots(p: ComplexPoly) -> list[complex]:
    """All complex roots of the trimmed polynomial, with multiplicity.

    Exact zero coefficients at the low end deflate exactly (roots at the
    origin are reported as exactly 0).  The work is done on the
    max-normalised coefficients c, and each returned root r satisfies
    ``|p(r)| <= DEFAULT_ROOT_TOL * sum_k |c_k| |r|**k`` for them.  In that
    scaling a coefficient below float64's range becomes 0, and a low block
    of k such coefficients becomes k roots at 0, reported last; the roots
    of the rest, c[k:], are found as follows:

    * from degree 40 on, Aberth sweeps (``_aberth``) from the
      Newton-polygon circles;
    * the companion-matrix eigenvalues, accepted when every residual
      meets the bound;
    * on a miss below degree 40, Aberth sweeps from the Newton-polygon
      circles (from 40 on the first route ran them and missed);
    * else RootFindingError, carrying the companion residuals.

    There is one Aberth iteration, from one start.  Each sweep takes p
    and p' from one matrix of powers of z, or of 1/z with the reversed
    coefficients where |z| > 1, so no power exceeds 1 in modulus, and it
    takes only the roots still moving: a root stops once its own
    correction is at most 1e-10 |z_i| or its rounding floor
    4 n eps S_i / |p'(z_i)|, with S_i = sum_k |c_k| |z_i|**k, so a tiny
    root is resolved to its own scale and a root the float64 coefficients
    fix only loosely does not keep the sweeps going.  The iteration gives
    up on a correction that is not finite or after 50 sweeps.

    Every candidate set takes one Newton step and its residuals from a
    matrix of powers (``_polish``).  An Aberth answer is accepted only when
    every residual meets the bound and Smith's inclusion discs
    (``_discs_disjoint``: radius n (|p(z_i)| + 4 n eps S_i) /
    |c_n prod_{j != i} (z_i - z_j)|, from the polish's values) are pairwise
    disjoint, so the candidates are n distinct roots.  The companion answer
    is accepted on its residuals alone, so a multiple root keeps its
    multiplicity as a cluster whose discs overlap.
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
    if n == 1 and all(map(cmath.isfinite, cs)):
        found.append(-cs[0] / cs[1])
        return found
    c = np.asarray(cs, dtype=complex)
    with np.errstate(all="ignore"):  # out-of-range values end in a refusal, not a warning
        top = np.abs(c).max()
        c = c / top
        if not math.isfinite(top) or c[-1] == 0:
            raise RootFindingError("coefficients not finite, or the leading one underflows")
        # the k low coefficients that underflowed in the scaling are roots at
        # 0 (all of them if m = 0); the Aberth routes take the rest
        k = 0 if c[0] else int(np.flatnonzero(c)[0])
        m, rest = n - k, c[k:]
        cand = _aberth(rest, _newton_polygon_start(rest)) if m >= _START_MIN_DEGREE else None
        if cand is None:
            # np.roots's companion matrix, without its wrapper
            companion = np.eye(m, k=-1, dtype=complex)
            companion[:1] = -rest[-2::-1] / rest[-1]
            overflow = False
            try:
                cand = np.linalg.eigvals(companion)
            except np.linalg.LinAlgError:  # the companion matrix overflows: a miss
                cand = np.full(m, np.nan, dtype=complex)
                overflow = True
            if k:
                cand = np.concatenate([cand, np.zeros(k, dtype=complex)])
            cand, *_, resid = _polish(c, cand)
            cand = cand[:m]
            if not resid.max() <= DEFAULT_ROOT_TOL:  # a NaN residual is a miss
                # from degree 40 on the start ran this one
                cand = _aberth(rest, _newton_polygon_start(rest)) if m < _START_MIN_DEGREE else None
                if cand is None:
                    worst = np.nan_to_num(resid, nan=np.inf).max()
                    raise RootFindingError(
                        "the polynomial has a root beyond float64 range (its companion matrix "
                        "overflows)" if overflow else
                        f"root residuals up to {worst:.3e} exceed tolerance {DEFAULT_ROOT_TOL:.1e}",
                        residuals=resid.tolist(),
                    )
    found.extend(cand.tolist())
    found.extend([0j] * k)
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
