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
    _log_omega,
    _szego_pairs,
    _szego_steps,
    omega,
    omega_log_sign,
    second_kind_polys,
    szego_polys,
)
from .poly import ComplexPoly, _on_circle, roots as poly_roots, series_div, split_by_circle
from .schur import PoleEvaluationError, _classical_tail, as_rational_F, tail_schur

QUAD_MIN_POINTS = 64     # the fewest points _trapezoid_points asks for
QUAD_MAX_POINTS = 1 << 20  # the most: a grid above it is refused, not built
QUAD_ERROR_BOUND = 1e-15  # the bound on each trapezoid error: below the rounding
                          # of the m-point sum, so more points gain nothing
POLE_CLUSTER_TOL = 1e-7
_POLE_GUARD = 1e-13      # re_F_khrushchev's bound on |D| relative to its two terms
NEAR_ROOT_BAND = 0.1     # roots of Phi_L* with ||r| - 1| below this are subtracted
SPLIT_CHECK_TOL = 1e-6   # |D| from the split against |Phi_L*|, and |B_t|^2 - |A_t|^2
                         # against omega_t, relative to the scale of each difference


class QuadratureError(RuntimeError):
    """A circle mean that cannot be taken: non-finite samples, samples that
    overflow float64, or a grid above QUAD_MAX_POINTS."""


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
    trapezoid rule: the mean of g at the angles 2 pi k / m, summed exactly
    (``math.fsum``), so that it keeps only the samples' own rounding.

    ``g`` must accept an ndarray of angles.  Its error for log|Q|^2, Q a
    polynomial with no zero on the circle, is bounded from Q's roots by
    ``_trapezoid_points``, which sizes m.  An m below 1 is a ValueError and
    a non-finite sample raises QuadratureError.
    ``circle_quadrature`` is the helper for a caller's own integrand; the
    library samples polynomials on the grid by ``poly._on_circle`` instead.
    """
    if m < 1:
        raise ValueError(f"the trapezoid rule needs m >= 1 points, got m = {m}")
    # a non-finite sample is refused, so numpy's divide/invalid warnings are noise
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(g(2.0 * np.pi * np.arange(m) / m), dtype=float)
    if not np.isfinite(vals).all():
        raise QuadratureError(f"integrand not finite on the {m}-point grid")
    return math.fsum(vals.tolist()) / m


def _log_defect(alphas, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and log(1 - |f|^2) at the points ``z`` of the circle, f the Schur
    function of the classical ``alphas`` (zero beyond them).  There the
    Schur step f_j = (a_j + z f_{j+1}) / (1 + conj(a_j) z f_{j+1}) gives

        1 - |f_j|^2 = (1 - |a_j|^2) (1 - |f_{j+1}|^2) / |1 + conj(a_j) z f_{j+1}|^2,

    so, run from f = 0 past the last coefficient, f is the last step's
    value and the logarithm is the fsum of log1p(-h_j h_j), h_j = abs(a_j)
    (``_log_omega``), less the sum of log|1 + conj(a_j) z f_{j+1}|^2.  No
    term cancels, as |1 + conj(a_j) z f_{j+1}| >= 1 - |a_j| > 0.  Every
    step writes into the same five arrays (``out=``), in the formula's
    order of operations, so a coefficient allocates no full-length array."""
    f, zf, d, logs, t = (np.zeros_like(z), np.empty_like(z), np.empty_like(z),
                         np.zeros(len(z)), np.empty(len(z)))
    for a in reversed(alphas):
        np.multiply(z, f, out=zf)
        np.add(1.0, np.multiply(a.conjugate(), zf, out=d), out=d)
        logs += np.log(np.square(np.abs(d, out=t), out=t), out=t)
        np.divide(np.add(a, zf, out=f), d, out=f)
    return f, _log_omega(alphas)[1] - logs


def re_F_khrushchev(seq: VerblunskySequence, n: int, theta: float | np.ndarray):
    """Re F on the circle through the tail at index n:

        Re F = omega_{n-1} (1 - |f_n|^2) / |Phi_n* - z Phi_n f_n|^2,

    with Phi_n and Phi_n* by Horner and f_n and log(1 - |f_n|^2) from the
    Schur step at the points (``_log_defect``), so no difference cancels
    and no tail is built.  ``theta`` is one angle (a float is returned) or
    an ndarray of angles (an ndarray is returned, all from one run of the
    recurrence).  The tail is validated first (``_classical_tail``), so an
    ``n`` whose tail is not classical is refused before anything is built.
    A point where |Phi_n* - z Phi_n f_n| is at most _POLE_GUARD of
    |Phi_n*| + |z Phi_n f_n| raises PoleEvaluationError.  The square of that
    modulus is never formed, so it cannot overflow where Re F is finite.
    """
    alphas = _classical_tail(seq, n)
    phi, phistar = szego_polys(seq, n)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    zs = np.exp(1j * thetas)
    f, log_defect = _log_defect(alphas, zs)
    lead, trail = phistar(zs), zs * phi(zs) * f
    d = np.abs(lead - trail)
    scale = np.maximum(np.abs(lead) + np.abs(trail), 1e-300)
    # a non-finite |D| is no pole: its samples stay non-finite
    at_pole = np.isfinite(d) & (d <= _POLE_GUARD * scale)
    if at_pole.any():
        raise PoleEvaluationError(
            f"Khrushchev denominator vanishes at theta = {float(thetas[at_pole][0])!r}")
    # |D|^2 = m^2 4^e with m in [0.5, 1): scaling the numerator by the exact
    # 4^-e first keeps the square from overflowing, and wherever |D|^2 and
    # the quotient are normal floats it gives the bits of the plain quotient
    m, e = np.frexp(d)
    values = np.ldexp(omega(seq, n - 1) * np.exp(log_defect), -2 * e) / (m * m)
    return values if np.ndim(theta) else float(values[0])


def _cluster_poles(points: list[complex]) -> list[complex]:
    """Merge root clusters within POLE_CLUSTER_TOL relative to the larger
    modulus into their mean, repeated with multiplicity (root finders split
    multiple roots; distinct tiny roots stay apart)."""
    out: list[complex] = []
    remaining = list(points)
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        rest = []
        for p in remaining:
            if abs(p - seed) <= POLE_CLUSTER_TOL * max(abs(p), abs(seed)):
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

    Their number is the in-disk zero count of Phi_N*, which the zero-count
    rule gives exactly: on the circle |alpha_k z Phi_k| < |Phi_k*| for each
    classical step from N on, so by Rouche's theorem none changes the
    count.  The roots are found once, for Phi_L* alone, and any other
    number of poles raises CrossCheckError.
    """
    if den.degree < 1:
        return [], []
    den_roots = poly_roots(den)
    inside = _cluster_poles(_inside(den_roots, "denominator roots"))
    count = N - _disk_counts(alphas, N)[N]
    if len(inside) != count:
        verb = "exceed" if len(inside) > count else "fall short of"
        raise CrossCheckError(f"{len(inside)} poles {verb} the {count} in-disk zeros of Phi_N*")
    return inside, den_roots


def pole_set(seq: VerblunskySequence) -> list[complex]:
    """Poles of F = Psi_L*/Phi_L* inside the unit disk: the in-disk zeros of
    Phi_L* (the two polynomials share no zero, so nothing cancels), from one
    root-finding on Phi_L*.

    Raises AmbiguousRootError when a root lies in the circle guard band and
    CrossCheckError if the count differs from the in-disk zeros of Phi_N*,
    which the zero-count rule gives from the coefficients.
    """
    return _poles(as_rational_F(seq).den, seq.alphas, seq.N)[0]


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


def _khrushchev_split(seq: VerblunskySequence, n: int, pairs, den_roots, logw: float):
    """Khrushchev's split at n, sampled and checked, and minus the mean over
    the circle of log|D|^2: D = Phi_n* B_t - z Phi_n A_t is Phi_L*, with
    f_n = A_t/B_t the tail at n, which this routine alone builds, once
    (``tail_schur``), for ``szego_verify``.

    ``pairs`` maps n and L = len(seq) to (Phi, Phi*) from one run of the
    recurrence, ``den_roots`` are Phi_L*'s roots and ``logw`` is
    log|omega_{n-1}|; the caller finds those roots first, so a refusal
    there builds no tail.  Each root r within NEAR_ROOT_BAND of the circle
    puts a spike -log|z - r|^2 into log|D|^2, which costs the trapezoid
    rule about 1/margin points.  So the mean is taken of the smooth
    log|Q|^2 = log|Phi_L*|^2 - sum log|z - r|^2 over those roots, a sum of
    logarithms at each point (Q = Phi_L* when there are none), on the m
    angles 2 pi k / m, m sized from the other roots
    (``_trapezoid_points``); the spikes' mean over the circle, Jensen's
    2 sum log max(1, |r|), is added to it.

    A_t, B_t, Phi_n*, z Phi_n (Phi_n shifted one place), Phi_L* and the
    polynomial z are sampled by one ``_on_circle`` call on those angles,
    the m-th roots of unity, where one FFT of the stacked coefficients
    gives every value, the points z themselves included.  Three checks
    follow, each a refusal: an infinite ``logw`` or samples of log|Q|^2 or
    |D|^2 that overflow float64 raise QuadratureError; |D|, from the
    recurrence to n and the tail's backward Schur steps, must agree with
    |Phi_L*|, from the recurrence to L, within SPLIT_CHECK_TOL of the
    split's scale |Phi_n* B_t| + |z Phi_n A_t|; and |B_t|^2 - |A_t|^2 must
    agree with omega_t = prod_{j >= n} (1 - |alpha_j|^2) (``_log_omega``)
    within SPLIT_CHECK_TOL of |B_t|^2 + |A_t|^2, else CrossCheckError.
    Returns log omega_t, minus the mean of log|D|^2, the number of points
    and the near roots.
    """
    tail, (phi, phistar), phistar_L = tail_schur(seq, n), pairs[n], pairs[len(seq)][1]
    logwt = _log_omega(seq.alphas[n:])[1]
    near, far = [], []
    for r in den_roots:
        (near if abs(abs(r) - 1.0) < NEAR_ROOT_BAND else far).append(r)
    m = _trapezoid_points(far)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tn, td, lead, trail, den, z = _on_circle(
            [tail.num.coeffs, tail.den.coeffs, phistar.coeffs, (0j, *phi.coeffs),
             phistar_L.coeffs, (0j, 1.0)], m)
        lead, trail = lead * td, trail * tn
        bt2, at2, d2 = np.abs(td) ** 2, np.abs(tn) ** 2, np.abs(lead - trail) ** 2
        log_q2 = 2.0 * (np.log(np.abs(den)) - sum(np.log(np.abs(z - r)) for r in near))
        # log_q2 is far inside float64's range where finite, so the sum is
        # finite exactly when both are
        if math.isinf(logw) or not np.isfinite(log_q2 + d2).all():
            raise QuadratureError(
                "samples of log|Re F| overflow float64: omega_{n-1} or "
                "|Phi_n* - z Phi_n f_n|^2 exceeds the largest double")
        worst = float(np.max(np.abs(np.sqrt(d2) - np.abs(den)) / (np.abs(lead) + np.abs(trail))))
    if not worst <= SPLIT_CHECK_TOL:
        raise CrossCheckError(
            f"|D| from the split and |Phi_L*| from the recurrence differ by {worst:.1e} "
            "of the split's scale")
    gap = float(np.max(np.abs(bt2 - at2 - math.exp(logwt)) / (bt2 + at2)))
    if not gap <= SPLIT_CHECK_TOL:
        raise CrossCheckError(
            f"|B_t|^2 - |A_t|^2 and prod (1 - |alpha_j|^2) over the tail differ "
            f"by {gap:.1e} of |B_t|^2 + |A_t|^2")
    jensen = 2.0 * sum(math.log(max(1.0, abs(r))) for r in near)
    return logwt, -float(log_q2.sum() / m) - jensen, m, near


def szego_verify(seq: VerblunskySequence) -> SzegoReport:
    """Both sides of the signed Szego identity with their relative error.

    The pole product and the integral are combined in log space; the sign
    epsilon = sign(omega_{N-1}) is applied explicitly.  For a classical
    sequence the pole product is empty and the report reduces to the
    textbook statement.

    The integral is the constant log|omega_{N-1}| + log omega_t less the
    mean of log|D|^2, D = Phi_L*, from Khrushchev's split at N
    (``_khrushchev_split``, which takes that mean by one trapezoid level
    sized from the roots of Phi_L*, with log|z - r|^2 of those near the
    circle subtracted at each point, and runs the split's three checks on
    the same angles: overflow, |D| against |Phi_L*|, and |B_t|^2 - |A_t|^2
    against omega_t).  omega_t = prod_{j >= N} (1 - |alpha_j|^2) is
    |B_t|^2 - |A_t|^2 on the circle (each backward Schur step multiplies
    |den|^2 - |num|^2 there by 1 - |alpha_j|^2); sampled, that difference
    loses |B_t|^2 / omega_t, up to 3e8, to cancellation, so it is checked,
    not integrated.  The lhs, epsilon, log|omega_{N-1}| and log omega_t all
    read each factor 1 - |alpha_j|^2 as 1 - h h, h = abs(alpha_j)
    (``_log_omega``), so the relative error measures the quadrature and the
    roots, not two roundings of |alpha_j|^2.

    The roots of Phi_L* are found once, before the tail is built (N is
    valid by construction), so a refusal (a root in the circle guard band,
    roots that cannot be resolved, another number of poles than the
    zero-count rule gives) builds no tail.
    """
    N, L = seq.N, len(seq)
    pairs = _szego_pairs(seq.alphas, (N, L))  # Phi_N, Phi_N* and Phi_L* from one run
    poles, den_roots = _poles(pairs[L][1], seq.alphas, N)
    sign, logw = omega_log_sign(seq, N - 1)
    logwt, neg_mean, pts, near = _khrushchev_split(seq, N, pairs, den_roots, logw)
    log_integral = logw + logwt + neg_mean
    log_pole_product = -2.0 * sum(math.log(abs(p)) for p in poles)
    rhs = sign * math.exp(log_integral + log_pole_product)
    lhs = omega(seq, L - 1)  # prod over the stored list; implicit factors are 1
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return SzegoReport(lhs=lhs, poles=tuple(poles), epsilon=sign,
                       log_integral=log_integral, rhs=rhs, rel_error=rel,
                       quad_points=pts, subtracted=tuple(near))


def boyd_integral(seq: VerblunskySequence, N: int) -> float:
    """(1/2pi) * integral of log(1 - |f_N|^2) over the circle, for the
    classical tail from index N: exactly log prod_{j>=N} (1 - |alpha_j|^2),
    returned as the fsum of log1p(-h_j h_j), h_j = abs(alpha_j), the
    factors that ``omega`` multiplies (``_log_omega``).

    On the circle 1 - |f_N|^2 = omega_t / |B_t|^2, with omega_t that
    product (the Schur step in product form, ``_log_defect``), and the mean
    of log|B_t|^2 is 0 by Jensen's formula, as B_t(0) = 1 and B_t has no
    zero in the closed disk.  So no root is found, no grid is sampled and
    no tail is built, however near the circle the tail's coefficients lie.
    An N whose tail is not classical is refused as by ``tail_schur``, with
    the same check (``_classical_tail``).
    """
    return _log_omega(_classical_tail(seq, N))[1]


def zero_count_trace(seq: VerblunskySequence, n_max: int) -> list[TraceRow]:
    """Predicted vs actual in-disk zero counts of Phi_k and Phi_k*, k <= n_max.

    The prediction is the zero-count rule (``_disk_counts``, which also
    gives the number of poles): the chain starts at zero, |alpha_{k-1}| < 1
    adds one zero and |alpha_{k-1}| > 1 reflects, giving (k-1) minus the
    previous count.  Star counts are the complements.

    The roots of each Phi_k are found once and split once by the guard band
    (``_inside``).  Phi_k* = z^k conj Phi_k(1/conj z) (the recurrence builds
    it as that exact conjugate reversal) has as its zeros the reflections
    1/conj(r) of the nonzero zeros r of Phi_k; a zero of Phi_k at the
    origin lowers the degree of Phi_k* instead.  So Phi_k*'s
    count in the disk is the count of Phi_k's zeros outside the band, with
    no reflection and no second test.  A zero in the circle guard band
    raises AmbiguousRootError; a negative ``n_max`` is a ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rows: list[TraceRow] = []
    counts = _disk_counts(seq.alphas, n_max)
    steps = _szego_steps(seq.alphas, n_max)  # one run gives every Phi_k
    next(steps)  # Phi_0 = 1
    for k, phi_k in enumerate(steps, start=1):
        zeros = poly_roots(ComplexPoly(phi_k))
        actual = len(_inside(zeros, f"zeros of Phi_{k}"))  # the rest lie outside the band
        rows.append(TraceRow(k=k, predicted=counts[k], actual=actual,
                             predicted_star=k - counts[k], actual_star=len(zeros) - actual))
    return rows


def zero_migration(seq: VerblunskySequence, n_values) -> list[MigrationRow]:
    """In-disk zeros of Phi_n* for each requested n, annotated with the
    distance to the nearest pole of F and the distance to the circle.  Every
    Phi_n* and Phi_L*, whose in-disk zeros are the poles, come from one run
    of the recurrence, and Phi_L*'s roots are found once, for the poles and
    for n = L alike."""
    n_values, L = list(n_values), len(seq)
    pairs = _szego_pairs(seq.alphas, [*n_values, L])
    poles, den_roots = _poles(pairs[L][1], seq.alphas, seq.N)
    rows: list[MigrationRow] = []
    for n in n_values:
        phistar = pairs[n][1]
        zeros = den_roots if n == L else poly_roots(phistar) if phistar.degree >= 1 else []
        inside = _inside(zeros, f"zeros of Phi_{n}*")
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
