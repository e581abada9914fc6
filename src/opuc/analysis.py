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
from .poly import ComplexPoly, roots as poly_roots, series_div, split_by_circle
from .schur import KhrushchevSplit, RationalFn, as_rational_F, tail_schur

QUAD_MIN_POINTS = 64     # the fewest points _trapezoid_points asks for
QUAD_MAX_POINTS = 1 << 20  # the most: a grid above it is refused, not built
QUAD_ERROR_BOUND = 1e-15  # the bound on each trapezoid error: below the rounding
                          # of the m-point sum, so more points gain nothing
CANCELLATION_TOL = 1e-9  # eps (|B_t|^2 + |A_t|^2) / (|B_t|^2 - |A_t|^2) above this
                         # leaves boyd_integral too few digits: refused
LOG_SPLIT_TOL = 1e-9     # log_split_check's bound on the third integral's miss
POLE_CLUSTER_TOL = 1e-7
NEAR_ROOT_BAND = 0.1     # roots of Phi_L* with ||r| - 1| below this are subtracted
DEFLATION_TOL = 1e-6     # |D| against |Q| prod |z - r|, and |B_t|^2 - |A_t|^2 against
                         # omega_t, relative to the scale of each difference


class QuadratureError(RuntimeError):
    """A circle mean that cannot be taken: non-finite samples, samples that
    overflow float64, a grid above QUAD_MAX_POINTS, or a difference that
    cancels to too few digits."""


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


def circle_quadrature(g, m: int) -> float:
    """(1/2pi) * integral of g over [0, 2pi) by the m-point periodic
    trapezoid rule: the mean of g at the angles 2 pi k / m.

    ``g`` must accept an ndarray of angles.  Its error for log|Q|^2, Q a
    polynomial with no zero on the circle, is bounded from Q's roots by
    ``_trapezoid_points``, which sizes m.  A non-finite sample raises
    QuadratureError.
    """
    # a non-finite sample is refused, so numpy's divide/invalid warnings are noise
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(g(2.0 * np.pi * np.arange(m) / m), dtype=float)
    if not np.isfinite(vals).all():
        raise QuadratureError(f"integrand not finite on the {m}-point grid")
    return float(vals.sum()) / m


def re_F_khrushchev(seq: VerblunskySequence, n: int, theta: float | np.ndarray):
    """Re F on the circle through the tail at index n:

        Re F = omega_{n-1} (1 - |f_n|^2) / |Phi_n* - z Phi_n f_n|^2,

    evaluated in cleared form so only polynomial values enter.  ``theta``
    is one angle (a float is returned) or an ndarray of angles (an ndarray
    is returned, all from one build of the polynomials and the tail).  The
    tail is built first, so an ``n`` whose tail is not classical is refused
    before anything else is built.
    """
    tail = tail_schur(seq, n)
    split = KhrushchevSplit(*szego_polys(seq, n), tail, omega(seq, n - 1))
    values = split.re_F(np.atleast_1d(np.asarray(theta, dtype=float)))
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


def _disk_counts(alphas, n: int) -> list[int]:
    """In-disk zero counts of Phi_0 .. Phi_n by the zero-count rule, from
    ``alphas`` alone: Phi_0 = 1 has none; |alpha_{k-1}| < 1 adds one zero to
    Phi_k, and |alpha_{k-1}| > 1 reflects, giving (k-1) minus the count of
    Phi_{k-1}.  While every |alpha_j| != 1 no Phi_k has a zero on the circle,
    so Phi_k* has the other k - count zeros in the disk (the reflections
    1/conj(r) of the zeros r of Phi_k outside it)."""
    counts = [0]
    for k in range(n):
        a = alphas[k] if k < len(alphas) else 0j
        counts.append(counts[-1] + 1 if abs(a) < 1.0 else k - counts[-1])
    return counts


def _inside(points, what: str) -> list[complex]:
    """The points inside the unit disk; a point within the guard band
    DEFAULT_DISK_GUARD = 1e-8 of the circle raises AmbiguousRootError."""
    inside, ambiguous, _ = split_by_circle(points)
    if ambiguous:
        raise AmbiguousRootError(f"{what} in the circle guard band", ambiguous)
    return inside


def _poles(den, alphas, N: int) -> tuple[list[complex], list[complex]]:
    """The in-disk roots of ``den`` = Phi_L* (the poles) and all of its roots,
    for the coefficients ``alphas`` with ``VerblunskySequence.N`` = ``N``.

    Their number is at most the in-disk zero count of Phi_N*, which the
    zero-count rule gives exactly (the classical steps from N on add none),
    so the roots are found once, for Phi_L* alone.
    """
    if den.degree < 1:
        return [], []
    den_roots = poly_roots(den)
    inside = _cluster_poles(_inside(den_roots, "denominator roots"))
    bound = N - _disk_counts(alphas, N)[N]
    if len(inside) > bound:
        raise CrossCheckError(
            f"{len(inside)} poles exceed the {bound} in-disk zeros of Phi_N*")
    return inside, den_roots


def pole_set(seq: VerblunskySequence) -> list[complex]:
    """Poles of F = Psi_L*/Phi_L* inside the unit disk: the in-disk zeros of
    Phi_L* (the two polynomials share no zero, so nothing cancels), from one
    root-finding on Phi_L*.

    Raises AmbiguousRootError when a root lies in the circle guard band and
    CrossCheckError if the count exceeds the in-disk zeros of Phi_N*, which
    the zero-count rule gives from the coefficients.
    """
    return _poles(as_rational_F(seq).den, seq.alphas, seq.N)[0]


def _refuse_overflow(logw: float, samples: np.ndarray) -> None:
    """Raise QuadratureError for an infinite log|omega_{n-1}| or samples of
    a denominator that overflow float64."""
    if math.isinf(logw) or not np.isfinite(samples).all():
        raise QuadratureError(
            "samples of log|Re F| overflow float64: omega_{n-1} or "
            "|Phi_n* - z Phi_n f_n|^2 exceeds the largest double")


def _deflate(c, rts: list[complex]) -> list[complex]:
    """Coefficients (constant first) of the quotient of ``c`` by prod (z - r)
    over ``rts``, by synthetic division from the leading coefficient; each
    remainder, rounding-sized for a root of ``c``, is dropped."""
    c = list(c)
    for r in rts:
        q, acc = [], 0j
        for ck in c[:0:-1]:
            acc = acc * r + ck
            q.append(acc)
        c = q[::-1]
    return c


def _trapezoid_points(roots) -> int:
    """The smallest m = QUAD_MIN_POINTS * 2^k at which sum -(2/m) log(1 -
    |rho_r|^m) falls below QUAD_ERROR_BOUND, rho_r = r inside the disk and
    1/r outside: a bound on the m-point trapezoid error of the mean over
    the circle of log|Q|^2, Q with ``roots``, whose error for each root is
    exactly (2/m) log|1 - rho_r^m|, as prod (r - z) over the m-th roots of
    unity is r^m - 1 (Trefethen and Weideman, SIAM Rev. 56, 2014).  Roots
    at least NEAR_ROOT_BAND off the circle add at most 2.6e-24 each at
    m = 512, so up to 3e8 of them need no more points.  An m above
    QUAD_MAX_POINTS, which a root about 1e-6 off the circle asks for, raises
    QuadratureError before any grid is built.
    """
    rhos = [a if a < 1.0 else 1.0 / a for a in map(abs, roots)]
    m = QUAD_MIN_POINTS
    while -2.0 / m * sum(math.log1p(-rho ** m) for rho in rhos) >= QUAD_ERROR_BOUND:
        m *= 2
        if m > QUAD_MAX_POINTS:
            raise QuadratureError(
                f"the trapezoid rule needs more than {QUAD_MAX_POINTS} points: "
                f"a root lies about {1.0 - max(rhos):.1e} off the circle")
    return m


def _denominator_mean(split: KhrushchevSplit, logw: float, phistar_L: ComplexPoly,
                      den_roots: list[complex]):
    """Minus the mean over the circle of log|D|^2, with D = Phi_n* B_t -
    z Phi_n A_t Khrushchev's denominator for ``split`` at n, which is Phi_L*.

    The roots r of Phi_L* (``den_roots``) within NEAR_ROOT_BAND of the
    circle are divided out of Phi_L* once, smallest modulus first, leaving
    Q (Q = Phi_L* when there are none).  Each puts a spike -log|z - r|^2
    into log|D|^2, which costs the trapezoid rule about 1/margin points, so
    the mean of log|Q|^2, which is smooth, is taken on the m angles
    2 pi k / m, m sized from the other roots (``_trapezoid_points``), and
    the spikes' mean over the circle, Jensen's 2 sum log max(1, |r|), is
    added to it.

    Q and the split are sampled once, together, on those angles: the m-th
    roots of unity, where one FFT of their stacked coefficients gives every
    value (``KhrushchevSplit.on_circle``); the points z themselves are built
    only for the near roots' |z - r|.  There |D| must agree with
    |Q| prod |z - r| within DEFLATION_TOL of the split's scale
    |Phi_n* B_t| + |z Phi_n A_t|, or CrossCheckError is raised.  An infinite
    ``logw`` = log|omega_{n-1}| and samples that overflow float64 raise
    QuadratureError.  Returns minus that mean, the number of points, the
    roots divided out, and |B_t|^2 and |A_t|^2 on the angles.
    """
    near, far = [], []
    for r in den_roots:
        (near if abs(abs(r) - 1.0) < NEAR_ROOT_BAND else far).append(r)
    # forward deflation is stable in ascending order of modulus (Peters and
    # Wilkinson, 1971); ``near`` itself keeps the root finder's order
    quotient = _deflate(phistar_L.coeffs, sorted(near, key=abs))
    m = _trapezoid_points(far)
    with np.errstate(over="ignore", divide="ignore"):
        (bt2, at2, d2, scale), (q,) = split.on_circle(m, quotient)
        product = np.abs(q)
        log_q2 = np.log(product * product)
    _refuse_overflow(logw, log_q2)
    _refuse_overflow(logw, d2)
    if near:
        zs = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        for r in near:
            product *= np.abs(zs - r)
    worst = float(np.max(np.abs(np.sqrt(d2) - product) / scale))
    if not worst <= DEFLATION_TOL:
        raise CrossCheckError(
            f"|D| and |Q| prod |z - r| differ by {worst:.1e} of the split's scale "
            f"after dividing out {len(near)} near-circle roots")
    jensen = 2.0 * sum(math.log(max(1.0, abs(r))) for r in near)
    return -float(np.mean(log_q2)) - jensen, m, near, bt2, at2


def szego_verify(seq: VerblunskySequence) -> SzegoReport:
    """Both sides of the signed Szego identity with their relative error.

    The pole product and the integral are combined in log space; the sign
    epsilon = sign(omega_{N-1}) is applied explicitly.  For a classical
    sequence the pole product is empty and the report reduces to the
    textbook statement.

    The integral is the constant log|omega_{N-1}| + log omega_t less the
    mean of log|D|^2, D = Phi_L* (``_denominator_mean``, which takes that
    mean by one trapezoid level sized from the roots of Phi_L*, with those
    near the circle divided out of D, and samples the split on the same
    angles).  omega_t = prod_{j >= N} (1 - |alpha_j|^2) is |B_t|^2 - |A_t|^2
    on the circle (each backward Schur step multiplies |den|^2 - |num|^2
    there by 1 - |alpha_j|^2); sampled, that difference loses
    |B_t|^2 / omega_t, up to 3e8, to cancellation, so it is not integrated:
    the samples of |B_t|^2 and |A_t|^2 are checked against omega_t instead.

    The roots of Phi_L* are found once, before anything else is built, so
    a refusal (a root in the circle guard band, roots that cannot be
    resolved, more poles than the zero-count rule allows) builds no tail.
    """
    N, L = seq.N, len(seq)
    pairs = _szego_pairs(seq.alphas, (N, L))  # Phi_N, Phi_N* and Phi_L* from one run
    poles, den_roots = _poles(pairs[L][1], seq.alphas, N)
    split = KhrushchevSplit(*pairs[N], tail_schur(seq, N), omega(seq, N - 1))
    sign, logw = omega_log_sign(seq, N - 1)
    logwt = math.fsum(math.log1p(-abs(a) ** 2) for a in seq.alphas[N:])
    neg_mean, pts, near, bt2, at2 = _denominator_mean(split, logw, pairs[L][1], den_roots)
    gap = float(np.max(np.abs(bt2 - at2 - math.exp(logwt)) / (bt2 + at2)))
    if not gap <= DEFLATION_TOL:
        raise CrossCheckError(
            f"|B_t|^2 - |A_t|^2 and prod (1 - |alpha_j|^2) over the tail differ "
            f"by {gap:.1e} of |B_t|^2 + |A_t|^2")
    log_integral = logw + logwt + neg_mean
    log_pole_product = -2.0 * sum(math.log(abs(p)) for p in poles)
    rhs = sign * math.exp(log_integral + log_pole_product)
    lhs = omega(seq, L - 1)  # prod over the stored list; implicit factors are 1
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return SzegoReport(lhs=lhs, poles=tuple(poles), epsilon=sign,
                       log_integral=log_integral, rhs=rhs, rel_error=rel,
                       quad_points=pts, subtracted=tuple(near))


def boyd_integral(seq: VerblunskySequence, N: int) -> float:
    """(1/2pi) * integral of log(1 - |f_N|^2) over the circle, as the mean
    of log(|B_t|^2 - |A_t|^2) - log|B_t|^2 by ``circle_quadrature`` on the
    m = ``_trapezoid_points`` angles sized from the roots of B_t, which has
    no zero in the closed disk: |B_t|^2 - |A_t|^2 is constant on the circle,
    so the roots bound the whole error.

    For a classical tail this equals log prod_{j>=N} (1 - |alpha_j|^2).
    The difference loses (|B_t|^2 + |A_t|^2) / (|B_t|^2 - |A_t|^2) to
    cancellation; where eps times that exceeds CANCELLATION_TOL, as for six
    coefficients at 0.99 or two at 0.9999, QuadratureError is raised, as it
    is for a grid above QUAD_MAX_POINTS.
    """
    tail = tail_schur(seq, N)  # validates that the tail is classical

    def integrand(thetas: np.ndarray) -> np.ndarray:
        zs = np.exp(1j * thetas)
        bt2, at2 = np.abs(tail.den(zs)) ** 2, np.abs(tail.num(zs)) ** 2
        share = np.min((bt2 - at2) / (bt2 + at2))
        if not share * CANCELLATION_TOL >= np.finfo(float).eps:
            raise QuadratureError(f"|B_t|^2 - |A_t|^2 cancels to {share:.1e} of |B_t|^2 + |A_t|^2")
        return np.log(bt2 - at2) - np.log(bt2)

    return circle_quadrature(integrand, _trapezoid_points(poly_roots(tail.den)))


def zero_count_trace(seq: VerblunskySequence, n_max: int) -> list[TraceRow]:
    """Predicted vs actual in-disk zero counts of Phi_k and Phi_k*, k <= n_max.

    The prediction is the zero-count rule (``_disk_counts``, which also
    bounds the poles): the chain starts at zero, |alpha_{k-1}| < 1 adds one
    zero and |alpha_{k-1}| > 1 reflects, giving (k-1) minus the previous
    count.  Star counts are the complements.

    The roots of each Phi_k are found once.  Phi_k* = z^k conj Phi_k(1/conj z)
    (the recurrence builds it as that exact conjugate reversal) has as its
    zeros the reflections 1/conj(r) of the nonzero zeros r of Phi_k; a zero
    of Phi_k at the origin lowers the degree of Phi_k* instead.  A zero or
    reflection in the circle guard band raises AmbiguousRootError; a
    negative ``n_max`` is a ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rows: list[TraceRow] = []
    counts = _disk_counts(seq.alphas, n_max)
    steps = _szego_steps(seq.alphas, n_max)  # one run gives every Phi_k
    next(steps)  # Phi_0 = 1
    for k, phi_k in enumerate(steps, start=1):
        zeros = poly_roots(ComplexPoly(phi_k))
        actual = len(_inside(zeros, f"zeros of Phi_{k}"))
        actual_star = len(_inside((1 / r.conjugate() for r in zeros if r != 0),
                                  f"zeros of Phi_{k}*"))
        rows.append(TraceRow(k=k, predicted=counts[k], actual=actual,
                             predicted_star=k - counts[k], actual_star=actual_star))
    return rows


def zero_migration(seq: VerblunskySequence, n_values) -> list[MigrationRow]:
    """In-disk zeros of Phi_n* for each requested n, annotated with the
    distance to the nearest pole of F and the distance to the circle.  Every
    Phi_n* and Phi_L*, whose in-disk zeros are the poles, come from one run
    of the recurrence."""
    n_values, L = list(n_values), len(seq)
    pairs = _szego_pairs(seq.alphas, [*n_values, L])
    poles = _poles(pairs[L][1], seq.alphas, seq.N)[0]
    rows: list[MigrationRow] = []
    for n in n_values:
        phistar = pairs[n][1]
        inside = _inside(poly_roots(phistar), f"zeros of Phi_{n}*") if phistar.degree >= 1 else []
        pd = tuple(min((abs(z - p) for p in poles), default=math.inf) for z in inside)
        cd = tuple(1.0 - abs(z) for z in inside)
        rows.append(MigrationRow(n=n, zeros=tuple(inside), pole_dist=pd, circle_dist=cd))
    return rows


def moments(seq: VerblunskySequence, m: int, J: int) -> MomentReport:
    """Moments c_1..c_J: half the Maclaurin coefficients of Psi_m*/Phi_m*
    (c_0 is 1 by normalization), with the observed and predicted growth rates.

    Exponential growth (rate > 1) is the witness that no signed
    orthogonality measure exists once a pole sits inside the disk.  Phi_m*
    and Phi_L*, whose in-disk zeros are the poles, come from one run of the
    recurrence.  Raises OverflowError when a moment exceeds the largest
    double.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    L = len(seq)
    pairs = _szego_pairs(seq.alphas, (m, L))
    _, psistar = second_kind_polys(seq, m)
    maclaurin = series_div(psistar, pairs[m][1], J)
    cs = tuple(0.5 * maclaurin[j] for j in range(1, J + 1))
    if not np.isfinite(cs).all():
        raise OverflowError(f"moments from c_{np.argmin(np.isfinite(cs)) + 1} on overflow float64")
    lo = max(1, J // 2)
    growth = max(abs(cs[j - 1]) ** (1.0 / j) for j in range(lo, J + 1))
    poles = _poles(pairs[L][1], seq.alphas, seq.N)[0]
    predicted = 1.0 / min(abs(p) for p in poles) if poles else 1.0
    return MomentReport(moments=cs, growth_rate=growth, predicted_rate=predicted)


def log_split_check(seq: VerblunskySequence, n: int) -> float:
    """Check the pointwise log split of |Re F| and the Jensen-type value of
    its third piece; returns the larger of the two normalized residuals.

    Pointwise on the 512th roots of unity:
        log|Re F| = log|omega_{n-1}| + log(1 - |f_n|^2) - log|Phi_n* - z Phi_n f_n|^2
    with Re F taken from the rational form of F (an independent route), and

        exp( (1/2pi) int log|Phi_n* - z Phi_n f_n|^2 ) = prod |lambda_j|^{-2}
    within LOG_SPLIT_TOL = 1e-9, else CrossCheckError.  As in
    ``szego_verify``, the third piece is log|D|^2 - log|B_t|^2 with D = F's
    denominator Phi_L*: the mean of log|D|^2 comes from
    ``_denominator_mean``, which samples the split a second time, and the
    mean of log|B_t|^2 from ``circle_quadrature`` on the m =
    ``_trapezoid_points`` angles sized from the roots of B_t.  One run of
    the recurrence gives the split's Phi_n, Phi_n* and F's denominator
    Phi_L*.  The pointwise values of the split and of F's Psi_L* and Phi_L*
    come from one FFT of their stacked coefficients
    (``KhrushchevSplit.on_circle``).  Overflow is refused as in
    ``szego_verify``.
    """
    tail, L = tail_schur(seq, n), len(seq)  # the tail validates n first
    pairs = _szego_pairs(seq.alphas, (n, L))
    at_n = KhrushchevSplit(*pairs[n], tail, omega(seq, n - 1))
    logw = omega_log_sign(seq, n - 1)[1]
    F = RationalFn(second_kind_polys(seq, L)[1], pairs[L][1])
    with np.errstate(over="ignore"):
        (bt2, at2, d2, _), (num, den) = at_n.on_circle(512, F.num.coeffs, F.den.coeffs)
    _refuse_overflow(logw, d2)
    split = logw + np.log(bt2 - at2) - np.log(d2)
    direct = np.log(np.abs((num / den).real))
    pointwise = float(np.max(np.abs(direct - split)) / max(1.0, float(np.max(np.abs(direct)))))

    poles, den_roots = _poles(F.den, seq.alphas, seq.N)
    neg_mean_d = _denominator_mean(at_n, logw, F.den, den_roots)[0]
    mean_b = circle_quadrature(lambda t: np.log(np.abs(tail.den(np.exp(1j * t))) ** 2),
                               _trapezoid_points(poly_roots(tail.den)))
    integral = -neg_mean_d - mean_b
    target = math.exp(-2.0 * sum(math.log(abs(p)) for p in poles))
    diff = abs(math.exp(integral) - target)
    if diff > LOG_SPLIT_TOL * max(1.0, target):
        raise CrossCheckError(
            f"third integral {math.exp(integral)!r} disagrees with pole product {target!r}")
    return max(pointwise, diff / max(1.0, target))
