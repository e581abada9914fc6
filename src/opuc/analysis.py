"""Theorem-level numerics: Khrushchev's formula, pole sets, the signed
Szego identity, Boyd's integral, zero-count traces, and moment growth.

The right-hand side of the identity is assembled as

    rhs = epsilon * prod |lambda_j|^{-2} * exp( (1/2pi) int log |Re F| dtheta ),

with epsilon the sign of the head product: Re F keeps one sign on the
whole circle, so the signed logarithm of the classical statement becomes
a real computation on |Re F| plus an explicit sign.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .opuc_core import (
    CrossCheckError,
    VerblunskySequence,
    omega,
    omega_log_sign,
    second_kind_polys,
    szego_polys,
)
from .poly import (
    DEFAULT_DISK_GUARD,
    count_in_disk,
    roots as poly_roots,
    series_div,
    split_by_circle,
)
from .schur import KhrushchevSplit, as_rational_F, khrushchev_split

DEFAULT_QUAD_TOL = 1e-11
DEFAULT_QUAD_MAX_POINTS = 1 << 20
POLE_CLUSTER_TOL = 1e-7


class QuadratureWarning(UserWarning):
    """Quadrature stopped at the point cap before meeting its tolerance."""


class QuadratureError(RuntimeError):
    """Integrand produced non-finite samples even after a half-step shift,
    or samples that overflow float64."""


class AmbiguousRootError(RuntimeError):
    """Roots landed in the guard band around the unit circle; classification
    (and anything downstream of it) refuses to proceed."""

    def __init__(self, message: str, ambiguous: list[complex]) -> None:
        super().__init__(f"{message}: {ambiguous}")
        self.ambiguous = list(ambiguous)


@dataclasses.dataclass(frozen=True)
class SzegoReport:
    lhs: float
    poles: tuple[complex, ...]
    epsilon: int
    log_integral: float
    rhs: float
    rel_error: float
    quad_points: int
    warnings: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class MomentReport:
    moments: tuple[complex, ...]   # c_1 .. c_J
    growth_rate: float             # max of |c_j|^(1/j) over the top half of orders
    predicted_rate: float          # 1 / min |lambda_j|, or 1 with no poles


@dataclasses.dataclass(frozen=True)
class TraceRow:
    k: int
    predicted: int
    actual: int
    predicted_star: int
    actual_star: int


@dataclasses.dataclass(frozen=True)
class MigrationRow:
    n: int
    zeros: tuple[complex, ...]
    pole_dist: tuple[float, ...]    # distance to the nearest pole of F
    circle_dist: tuple[float, ...]  # 1 - |zero|


def _samples(g, thetas: np.ndarray) -> tuple[np.ndarray, bool]:
    # non-finite samples are handled by the half-step retry, so numpy's
    # divide/invalid warnings during sampling are noise
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(g(thetas), dtype=float)
    return vals, bool(np.all(np.isfinite(vals)))


def circle_quadrature(g, tol: float = DEFAULT_QUAD_TOL,
                      max_points: int = DEFAULT_QUAD_MAX_POINTS) -> tuple[float, int]:
    """(1/2pi) * integral of g over [0, 2pi) by the periodic trapezoid rule.

    ``g`` must accept an ndarray of angles.  The grid doubles from 64
    points until successive values differ by less than ``tol``; hitting
    ``max_points`` first emits a QuadratureWarning and returns the last
    value.  Each level keeps the sum over the grid before it and evaluates
    ``g`` only at the new midpoints.  A non-finite sample makes that level
    evaluate its whole grid shifted by half a step, and the levels after
    it nest in the shifted grid; a non-finite sample there too raises
    QuadratureError.
    """
    m, offset, total, prev = 64, 0.0, 0.0, math.inf
    new = 2.0 * np.pi * np.arange(m) / m
    while True:
        vals, finite = _samples(g, new)
        if finite:
            total += float(vals.sum())
        else:
            offset = np.pi / m
            vals, finite = _samples(g, 2.0 * np.pi * np.arange(m) / m + offset)
            if not finite:
                raise QuadratureError(
                    f"integrand not finite on the {m}-point grid even after a half-step shift")
            total = float(vals.sum())
        cur = total / m
        if abs(cur - prev) < tol:
            return cur, m
        if 2 * m > max_points:
            warnings.warn(
                f"quadrature did not converge to {tol:.1e} within {max_points} points",
                QuadratureWarning, stacklevel=2)
            return cur, m
        prev, m = cur, 2 * m
        new = offset + 2.0 * np.pi * np.arange(1, m, 2) / m


def re_F_khrushchev(seq: VerblunskySequence, n: int, theta: float | np.ndarray):
    """Re F on the circle through the tail at index n:

        Re F = omega_{n-1} (1 - |f_n|^2) / |Phi_n* - z Phi_n f_n|^2,

    evaluated in cleared form so only polynomial values enter.  ``theta``
    is one angle (a float is returned) or an ndarray of angles (an ndarray
    is returned, all from one build of the polynomials and the tail).
    """
    values = khrushchev_split(seq, n).re_F(np.atleast_1d(np.asarray(theta, dtype=float)))
    return values if np.ndim(theta) else float(values[0])


def _cluster_poles(points: list[complex], tol: float = POLE_CLUSTER_TOL) -> list[complex]:
    """Merge root clusters within ``tol`` relative to the larger modulus
    into their mean, repeated with multiplicity (root finders split
    multiple roots; distinct tiny roots stay apart)."""
    out: list[complex] = []
    remaining = list(points)
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        rest = []
        for p in remaining:
            if abs(p - seed) <= tol * max(abs(p), abs(seed)):
                cluster.append(p)
            else:
                rest.append(p)
        remaining = rest
        mean = sum(cluster) / len(cluster)
        out.extend([mean] * len(cluster))
    return out


def _poles(den, phistar, guard: float) -> list[complex]:
    if den.degree < 1:
        return []
    den_roots = poly_roots(den)
    inside, ambiguous, _ = split_by_circle(den_roots, guard)
    if ambiguous:
        raise AmbiguousRootError("denominator roots in the circle guard band", ambiguous)
    inside = _cluster_poles(inside)
    bound = 0
    if phistar.degree >= 1:
        # when N = L the two polynomials are one and the same
        star_roots = den_roots if phistar == den else poly_roots(phistar)
        bound, star_amb = count_in_disk(star_roots, guard)
        if star_amb:
            raise AmbiguousRootError("zeros of Phi_N* in the circle guard band", star_amb)
    if len(inside) > bound:
        raise CrossCheckError(
            f"{len(inside)} poles exceed the {bound} in-disk zeros of Phi_N*")
    return inside


def pole_set(seq: VerblunskySequence, guard: float = DEFAULT_DISK_GUARD) -> list[complex]:
    """Poles of F = Psi_L*/Phi_L* inside the unit disk: the in-disk zeros of
    Phi_L* (the two polynomials share no zero, so nothing cancels).

    Raises AmbiguousRootError when a root lies in the circle guard band and
    CrossCheckError if the count exceeds the zeros of Phi_N* in the disk.
    """
    return _poles(as_rational_F(seq).den, szego_polys(seq, seq.N)[1], guard)


def _log_abs_re_F(split: KhrushchevSplit, logw: float, thetas: np.ndarray) -> np.ndarray:
    """log|Re F| at the angles from the split at n and log|omega_{n-1}|;
    samples that overflow float64 are refused."""
    with np.errstate(over="ignore"):
        bt2, at2, d2, _ = split.sample(thetas)
    if math.isinf(logw) or not np.isfinite(d2).all():
        raise QuadratureError(
            "samples of log|Re F| overflow float64: omega_{n-1} or "
            "|Phi_n* - z Phi_n f_n|^2 exceeds the largest double")
    return logw + np.log(bt2 - at2) - np.log(d2)


def szego_lhs(seq: VerblunskySequence) -> float:
    """prod over the stored list of (1 - |alpha_j|^2); implicit factors are 1."""
    return omega(seq, len(seq) - 1)


def szego_verify(seq: VerblunskySequence, tol: float = DEFAULT_QUAD_TOL,
                 max_points: int = DEFAULT_QUAD_MAX_POINTS,
                 guard: float = DEFAULT_DISK_GUARD) -> SzegoReport:
    """Both sides of the signed Szego identity with their relative error.

    The pole product and the integral are combined in log space; the sign
    epsilon = sign(omega_{N-1}) is applied explicitly.  For a classical
    sequence the pole product is empty and the report reduces to the
    textbook statement.
    """
    split = khrushchev_split(seq, seq.N)  # shared by every quadrature level
    poles = _poles(szego_polys(seq, len(seq))[1], split.phistar, guard)
    sign, logw = omega_log_sign(seq, seq.N - 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureWarning)
        log_integral, pts = circle_quadrature(
            lambda thetas: _log_abs_re_F(split, logw, thetas), tol, max_points)
    notes = tuple(str(w.message) for w in caught)
    log_pole_product = -2.0 * sum(math.log(abs(p)) for p in poles)
    rhs = sign * math.exp(log_integral + log_pole_product)
    lhs = szego_lhs(seq)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return SzegoReport(lhs=lhs, poles=tuple(poles), epsilon=sign,
                       log_integral=log_integral, rhs=rhs, rel_error=rel,
                       quad_points=pts, warnings=notes)


def boyd_integral(seq: VerblunskySequence, N: int,
                  tol: float = DEFAULT_QUAD_TOL,
                  max_points: int = DEFAULT_QUAD_MAX_POINTS) -> float:
    """(1/2pi) * integral of log(1 - |f_N|^2) over the circle.

    For a classical tail this equals log prod_{j>=N} (1 - |alpha_j|^2).
    """
    sample = khrushchev_split(seq, N).sample  # validates that the tail is classical

    def integrand(thetas: np.ndarray) -> np.ndarray:
        bt2, at2, _, _ = sample(thetas)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(bt2 - at2) - np.log(bt2)

    value, _ = circle_quadrature(integrand, tol, max_points)
    return value


def zero_count_trace(seq: VerblunskySequence, n_max: int,
                     guard: float = DEFAULT_DISK_GUARD) -> list[TraceRow]:
    """Predicted vs actual in-disk zero counts of Phi_k and Phi_k*, k <= n_max.

    The prediction chain starts at zero and follows the one-step rule:
    |alpha_{k-1}| < 1 adds one zero; |alpha_{k-1}| > 1 reflects, giving
    (k-1) minus the previous count.  Star counts are the complements.
    """
    rows: list[TraceRow] = []
    predicted = 0
    for k in range(1, n_max + 1):
        a = seq.alpha(k - 1)
        predicted = predicted + 1 if abs(a) < 1.0 else (k - 1) - predicted
        phi, phistar = szego_polys(seq, k)
        actual, amb = count_in_disk(poly_roots(phi), guard)
        if amb:
            raise AmbiguousRootError(f"zeros of Phi_{k} in the circle guard band", amb)
        if phistar.degree >= 1:
            actual_star, amb_star = count_in_disk(poly_roots(phistar), guard)
            if amb_star:
                raise AmbiguousRootError(f"zeros of Phi_{k}* in the guard band", amb_star)
        else:
            actual_star = 0
        rows.append(TraceRow(k=k, predicted=predicted, actual=actual,
                             predicted_star=k - predicted, actual_star=actual_star))
    return rows


def zero_migration(seq: VerblunskySequence, n_values,
                   guard: float = DEFAULT_DISK_GUARD) -> list[MigrationRow]:
    """In-disk zeros of Phi_n* for each requested n, annotated with the
    distance to the nearest pole of F and the distance to the circle."""
    poles = pole_set(seq, guard)
    rows: list[MigrationRow] = []
    for n in n_values:
        _, phistar = szego_polys(seq, n)
        if phistar.degree < 1:
            rows.append(MigrationRow(n=n, zeros=(), pole_dist=(), circle_dist=()))
            continue
        inside, amb, _ = split_by_circle(poly_roots(phistar), guard)
        if amb:
            raise AmbiguousRootError(f"zeros of Phi_{n}* in the guard band", amb)
        pd = tuple(min((abs(z - p) for p in poles), default=math.inf) for z in inside)
        cd = tuple(1.0 - abs(z) for z in inside)
        rows.append(MigrationRow(n=n, zeros=tuple(inside), pole_dist=pd, circle_dist=cd))
    return rows


def moments(seq: VerblunskySequence, m: int, J: int,
            guard: float = DEFAULT_DISK_GUARD) -> MomentReport:
    """Moments c_1..c_J: half the Maclaurin coefficients of Psi_m*/Phi_m*
    (c_0 is 1 by normalization), with the observed and predicted growth rates.

    Exponential growth (rate > 1) is the witness that no signed
    orthogonality measure exists once a pole sits inside the disk.  Raises
    OverflowError when a moment exceeds the largest double.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    _, phistar = szego_polys(seq, m)
    _, psistar = second_kind_polys(seq, m)
    maclaurin = series_div(psistar, phistar, J)
    cs = tuple(0.5 * maclaurin[j] for j in range(1, J + 1))
    if not np.isfinite(cs).all():
        raise OverflowError(f"moments from c_{np.argmin(np.isfinite(cs)) + 1} on overflow float64")
    lo = max(1, J // 2)
    growth = max(abs(cs[j - 1]) ** (1.0 / j) for j in range(lo, J + 1))
    poles = pole_set(seq, guard)
    predicted = 1.0 / min(abs(p) for p in poles) if poles else 1.0
    return MomentReport(moments=cs, growth_rate=growth, predicted_rate=predicted)


def log_split_check(seq: VerblunskySequence, n: int,
                    tol: float = DEFAULT_QUAD_TOL, grid: int = 512,
                    guard: float = DEFAULT_DISK_GUARD) -> float:
    """Check the pointwise log split of |Re F| and the Jensen-type value of
    its third piece; returns the larger of the two normalized residuals.

    Pointwise on the grid:
        log|Re F| = log|omega_{n-1}| + log(1 - |f_n|^2) - log|Phi_n* - z Phi_n f_n|^2
    with Re F taken from the rational form of F (an independent route), and

        exp( (1/2pi) int log|Phi_n* - z Phi_n f_n|^2 ) = prod |lambda_j|^{-2}
    within 100x the quadrature tolerance.  Overflow is refused as in ``szego_verify``.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    at_n = khrushchev_split(seq, n)
    split = _log_abs_re_F(at_n, omega_log_sign(seq, n - 1)[1], thetas)
    F = as_rational_F(seq)
    direct = np.log(np.abs(F(np.exp(1j * thetas)).real))
    pointwise = float(np.max(np.abs(direct - split)) / max(1.0, float(np.max(np.abs(direct)))))

    def third(th: np.ndarray) -> np.ndarray:
        bt2, _, d2, _ = at_n.sample(th)
        return np.log(d2) - np.log(bt2)

    integral, _ = circle_quadrature(third, tol)
    poles = _poles(F.den, szego_polys(seq, seq.N)[1], guard)
    target = math.exp(-2.0 * sum(math.log(abs(p)) for p in poles))
    diff = abs(math.exp(integral) - target)
    if diff > 100.0 * tol * max(1.0, target):
        raise CrossCheckError(
            f"third integral {math.exp(integral)!r} disagrees with pole product {target!r}")
    return max(pointwise, diff / max(1.0, target))
