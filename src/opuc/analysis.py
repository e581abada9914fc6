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
    _szego_pairs,
    _szego_steps,
    omega,
    omega_log_sign,
    second_kind_polys,
    szego_polys,
)
from .poly import (
    DEFAULT_DISK_GUARD,
    ComplexPoly,
    count_in_disk,
    roots as poly_roots,
    series_div,
    split_by_circle,
)
from .schur import KhrushchevSplit, as_rational_F, khrushchev_split, tail_schur

DEFAULT_QUAD_TOL = 1e-11
DEFAULT_QUAD_MAX_POINTS = 1 << 20
POLE_CLUSTER_TOL = 1e-7
NEAR_ROOT_BAND = 0.1     # roots of Phi_L* with ||r| - 1| below this are subtracted
DEFLATION_TOL = 1e-6     # |D| against |Q| prod |z - r|, and |B_t|^2 - |A_t|^2 against
                         # omega_t, relative to the scale of each difference


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
    subtracted: tuple[complex, ...] = ()   # roots of Phi_L* integrated analytically


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


def _poles(den, phistar, guard: float) -> tuple[list[complex], list[complex]]:
    """The in-disk roots of ``den`` (the poles) and all of its roots."""
    if den.degree < 1:
        return [], []
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
    return inside, den_roots


def pole_set(seq: VerblunskySequence, guard: float = DEFAULT_DISK_GUARD) -> list[complex]:
    """Poles of F = Psi_L*/Phi_L* inside the unit disk: the in-disk zeros of
    Phi_L* (the two polynomials share no zero, so nothing cancels).

    Raises AmbiguousRootError when a root lies in the circle guard band and
    CrossCheckError if the count exceeds the zeros of Phi_N* in the disk.
    """
    return _poles(as_rational_F(seq).den, szego_polys(seq, seq.N)[1], guard)[0]


def _checked_sample(split: KhrushchevSplit, logw: float, thetas: np.ndarray):
    """``split.sample`` at the angles, refusing samples that overflow float64."""
    with np.errstate(over="ignore"):
        bt2, at2, d2, scale = split.sample(thetas)
    if math.isinf(logw) or not np.isfinite(d2).all():
        raise QuadratureError(
            "samples of log|Re F| overflow float64: omega_{n-1} or "
            "|Phi_n* - z Phi_n f_n|^2 exceeds the largest double")
    return bt2, at2, d2, scale


def _log_abs_re_F(split: KhrushchevSplit, logw: float, thetas: np.ndarray) -> np.ndarray:
    """log|Re F| at the angles from the split at n and log|omega_{n-1}|;
    samples that overflow float64 are refused."""
    bt2, at2, d2, _ = _checked_sample(split, logw, thetas)
    return logw + np.log(bt2 - at2) - np.log(d2)


def _deflate(c: np.ndarray, rts: list[complex]) -> np.ndarray:
    """Coefficients (constant first) of the quotient of ``c`` by prod (z - r)
    over ``rts``, by synthetic division from the leading coefficient; each
    remainder, rounding-sized for a root of ``c``, is dropped."""
    for r in rts:
        q = np.empty(len(c) - 1, dtype=complex)
        acc = 0j
        for k in range(len(c) - 1, 0, -1):
            acc = acc * r + c[k]
            q[k - 1] = acc
        c = q
    return c


def _check_deflation(thetas: np.ndarray, d2: np.ndarray, scale: np.ndarray,
                     q: np.ndarray, near: list[complex]) -> None:
    """Raise CrossCheckError where, at the angles, |D| (from |D|^2 = ``d2``)
    and |Q| prod |z - r| over ``near`` differ by more than DEFLATION_TOL
    times the split's ``scale``."""
    zs = np.exp(1j * thetas)
    product = q.copy()
    for r in near:
        product *= np.abs(zs - r)
    worst = float(np.max(np.abs(np.sqrt(d2) - product) / scale))
    if not worst <= DEFLATION_TOL:
        raise CrossCheckError(
            f"|D| and |Q| prod |z - r| differ by {worst:.1e} of the split's scale "
            f"after dividing out {len(near)} near-circle roots")


class _Remainder:
    """The integrand of ``szego_verify``: log|Re F| less the spikes
    -log|z - r|^2 of the roots ``near`` of Khrushchev's denominator
    D = Phi_n* B_t - z Phi_n A_t, i.e. with |D|^2 replaced by |Q|^2, Q the
    quotient of D by prod (z - r).  With no such roots it is ``_log_abs_re_F``.

    With roots divided out, |B_t|^2 - |A_t|^2 enters as its exact value on
    the circle, omega_t = prod_{j >= n} (1 - |alpha_j|^2) (each backward
    Schur step multiplies |den|^2 - |num|^2 there by 1 - |alpha_j|^2).  The
    sampled difference loses |B_t|^2 / omega_t to cancellation, up to 3e8
    on near-circle tails, and that noise, above the 1e-11 stopping rule,
    would keep such a case doubling until the point cap or until the noise
    happened to dip.  ``check`` still compares the samples with omega_t."""

    def __init__(self, split: KhrushchevSplit, logw: float, logwt: float,
                 near: list[complex]) -> None:
        self.split, self.logw, self.logwt, self.near = split, logw, logwt, near
        self.last = None   # the angles and split samples of the latest call, with |Q|
        if near:
            self.quotient = ComplexPoly(_deflate(split.denominator(), near))

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        if not self.near:
            return _log_abs_re_F(self.split, self.logw, thetas)
        self.last = None   # the previous level's arrays are not needed any more
        samples = _checked_sample(self.split, self.logw, thetas)
        q = np.abs(self.quotient(np.exp(1j * thetas)))
        self.last = thetas, samples, q
        return (self.logw + self.logwt) - np.log(q * q)

    def check(self) -> None:
        """Raise CrossCheckError where, on the latest samples (the final
        quadrature level), |D| and |Q| prod |z - r| differ by more than
        DEFLATION_TOL times the split's scale, or |B_t|^2 - |A_t|^2 and
        omega_t by more than DEFLATION_TOL times |B_t|^2 + |A_t|^2."""
        if not self.near:
            return
        thetas, (bt2, at2, d2, scale), q = self.last
        _check_deflation(thetas, d2, scale, q, self.near)
        gap = float(np.max(np.abs(bt2 - at2 - math.exp(self.logwt)) / (bt2 + at2)))
        if not gap <= DEFLATION_TOL:
            raise CrossCheckError(
                f"|B_t|^2 - |A_t|^2 and prod (1 - |alpha_j|^2) over the tail differ "
                f"by {gap:.1e} of |B_t|^2 + |A_t|^2")


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
    N, L = seq.N, len(seq)
    pairs = _szego_pairs(seq.alphas, (N, L))  # Phi_N, Phi_N* and Phi_L* from one run
    # the split at N, shared by every quadrature level
    split = KhrushchevSplit(*pairs[N], tail_schur(seq, N), omega(seq, N - 1))
    poles, den_roots = _poles(pairs[L][1], split.phistar, guard)
    near = [r for r in den_roots if abs(abs(r) - 1.0) < NEAR_ROOT_BAND]
    sign, logw = omega_log_sign(seq, N - 1)
    logwt = math.fsum(math.log1p(-abs(a) ** 2) for a in seq.alphas[N:])
    integrand = _Remainder(split, logw, logwt, near)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureWarning)
        remainder, pts = circle_quadrature(integrand, tol, max_points)
    integrand.check()
    # Jensen: the mean of log|z - r|^2 over the circle is 2 log max(1, |r|)
    log_integral = remainder - 2.0 * sum(math.log(max(1.0, abs(r))) for r in near)
    notes = tuple(str(w.message) for w in caught)
    log_pole_product = -2.0 * sum(math.log(abs(p)) for p in poles)
    rhs = sign * math.exp(log_integral + log_pole_product)
    lhs = szego_lhs(seq)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return SzegoReport(lhs=lhs, poles=tuple(poles), epsilon=sign,
                       log_integral=log_integral, rhs=rhs, rel_error=rel,
                       quad_points=pts, warnings=notes, subtracted=tuple(near))


def boyd_integral(seq: VerblunskySequence, N: int,
                  tol: float = DEFAULT_QUAD_TOL,
                  max_points: int = DEFAULT_QUAD_MAX_POINTS) -> float:
    """(1/2pi) * integral of log(1 - |f_N|^2) over the circle.

    For a classical tail this equals log prod_{j>=N} (1 - |alpha_j|^2).
    """
    tail = tail_schur(seq, N)  # validates that the tail is classical

    def integrand(thetas: np.ndarray) -> np.ndarray:
        zs = np.exp(1j * thetas)
        bt2, at2 = np.abs(tail.den(zs)) ** 2, np.abs(tail.num(zs)) ** 2
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

    The roots of each Phi_k are found once.  Phi_k* = z^k conj Phi_k(1/conj z)
    (the recurrence builds it as that exact conjugate reversal) has as its
    zeros the reflections 1/conj(r) of the nonzero zeros r of Phi_k; a zero
    of Phi_k at the origin lowers the degree of Phi_k* instead.
    """
    rows: list[TraceRow] = []
    predicted = 0
    steps = _szego_steps(seq.alphas, n_max)  # one run gives every Phi_k
    next(steps)  # Phi_0 = 1
    for k, (phi_k, _) in enumerate(steps, start=1):
        a = seq.alpha(k - 1)
        predicted = predicted + 1 if abs(a) < 1.0 else (k - 1) - predicted
        zeros = poly_roots(ComplexPoly(phi_k, k))
        actual, amb = count_in_disk(zeros, guard)
        if amb:
            raise AmbiguousRootError(f"zeros of Phi_{k} in the circle guard band", amb)
        actual_star, amb_star = count_in_disk((1 / r.conjugate() for r in zeros if r != 0), guard)
        if amb_star:
            raise AmbiguousRootError(f"zeros of Phi_{k}* in the guard band", amb_star)
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
    within 100x the quadrature tolerance.  As in ``szego_verify``, the roots
    r of Phi_L* within NEAR_ROOT_BAND of the circle are divided out of
    D = Phi_n* B_t - z Phi_n A_t before the integral (|D| against
    |Q| prod |z - r| is checked on the final level) and enter through
    Jensen's mean 2 log max(1, |r|).  Overflow is refused as in ``szego_verify``.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    at_n = khrushchev_split(seq, n)
    split = _log_abs_re_F(at_n, omega_log_sign(seq, n - 1)[1], thetas)
    F = as_rational_F(seq)
    direct = np.log(np.abs(F(np.exp(1j * thetas)).real))
    pointwise = float(np.max(np.abs(direct - split)) / max(1.0, float(np.max(np.abs(direct)))))

    poles, den_roots = _poles(F.den, szego_polys(seq, seq.N)[1], guard)
    near = [r for r in den_roots if abs(abs(r) - 1.0) < NEAR_ROOT_BAND]
    quotient = ComplexPoly(_deflate(at_n.denominator(), near)) if near else None
    last = []   # the final level's angles, |D|^2, scale and |Q|

    def third(th: np.ndarray) -> np.ndarray:
        bt2, _, d2, scale = at_n.sample(th)
        if not near:
            return np.log(d2) - np.log(bt2)
        q = np.abs(quotient(np.exp(1j * th)))
        last[:] = th, d2, scale, q
        return np.log(q * q) - np.log(bt2)

    integral, _ = circle_quadrature(third, tol)
    if near:
        _check_deflation(*last, near)
        integral += 2.0 * sum(math.log(max(1.0, abs(r))) for r in near)
    target = math.exp(-2.0 * sum(math.log(abs(p)) for p in poles))
    diff = abs(math.exp(integral) - target)
    if diff > 100.0 * tol * max(1.0, target):
        raise CrossCheckError(
            f"third integral {math.exp(integral)!r} disagrees with pole product {target!r}")
    return max(pointwise, diff / max(1.0, target))
