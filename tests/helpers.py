"""Deterministic case generators shared by the test modules.

Random cases are rejection-sampled so that every verification step is
numerically meaningful:

* denominator roots of F keep a fixed margin from the unit circle, so the
  quadrature budget always converges and in-disk classification cannot
  flip (the library itself refuses guard-band roots);
* nonclassical suite cases additionally keep the dominant-pole residue
  weight of Psi*/Phi* inside a window where the root-test growth
  estimator at order 40 sits within its 2% target.  The estimator's
  finite-order bias is |K|**(1/J) with K the residue weight, so extreme
  residues make that pinned demonstration invalid rather than wrong.
"""

from __future__ import annotations

import cmath
import math
import random

import mpmath
import numpy as np

from opuc import (
    AmbiguousRootError,
    ComplexPoly,
    GuardViolationError,
    VerblunskySequence,
    second_kind_polys,
    szego_polys,
)
from opuc.poly import (
    DEFAULT_ROOT_TOL,
    RootFindingError,
    _horner,
    _newton_polygon_start,
    _powers,
    roots as poly_roots,
    split_by_circle,
)
from opuc.opuc_core import DEFAULT_GUARD_UNIT
from opuc.schur import PoleEvaluationError, RationalFn, as_rational_F

# verify-suite case whose F has a denominator root at -17.39 within 3e-11
# of a numerator root (two zeros of Psi_L* and Phi_L* that are close but
# not common, so both stay)
NEAR_COMMON_ROOT_ALPHAS = [
    2.589109888265557 + 0.09050379619116429j,
    -0.34878481644788467 - 1.3709377155745828j,
    -1.3568742131609177 - 0.34525237112467055j,
    -0.022842172914476707 + 1.3697711319142971j,
    0.33819008214696356 - 0.13301457200412156j,
    -0.1775604166594235 + 0.0668622822932588j,
    0.3122210740614877 + 0.23802181398626826j,
    0.015077819134614989 - 0.0298256914832231j,
    -0.3798681881338129 - 0.005267512451981933j,
    -0.7033071905573355 + 0.01953812556211289j,
    -0.039537819708546605 - 0.002695936282820028j,
]

CLASSICAL_MARGIN = 1e-4
NONCLASSICAL_MARGIN = 1e-3


def draw_head(rng: np.random.Generator, n: int) -> list[complex]:
    """Head entries with modulus in (1.05, 3) or (0.05, 0.95), random phase."""
    out = []
    for _ in range(n):
        m = rng.uniform(1.05, 3.0) if rng.random() < 0.5 else rng.uniform(0.05, 0.95)
        out.append(m * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return [complex(a) for a in out]


def draw_tail(rng: np.random.Generator, n: int, max_mod: float = 0.8) -> list[complex]:
    return [complex(rng.uniform(0.0, max_mod) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            for _ in range(n)]


def circle_margin(seq: VerblunskySequence) -> float:
    """Smallest | |root| - 1 | over the denominator roots of F."""
    F = as_rational_F(seq)
    if F.den.degree < 1:
        return math.inf
    return min(abs(abs(r) - 1.0) for r in poly_roots(F.den))


def growth_demo_ok(seq: VerblunskySequence) -> bool:
    """True when the root-test growth estimator is inside its validity window.

    The moment ratio Psi*/Phi* expands into partial fractions over all the
    roots of Phi* (inside and outside the circle), so at order j the root
    test reads rate * |K|**(1/j) * (1 + contamination)**(1/j), with K the
    residue weight of the smallest in-disk root and the contamination the
    combined weight of every other root at the low end of the estimator
    window.  Keeping K in [0.75, 1.15] and the contamination under 0.05
    pins the order-40 bias below ~1%; outside that window the pinned
    (J = 40, 2%) demonstration is invalid rather than wrong.
    """
    L = len(seq)
    _, phistar = szego_polys(seq, L)
    _, psistar = second_kind_polys(seq, L)
    if phistar.degree < 1:
        return False
    rts = poly_roots(phistar)
    inside = sorted((r for r in rts if abs(r) < 1.0), key=abs)
    if not inside:
        return False
    dominant = inside[0]
    dphi = ComplexPoly([k * c for k, c in enumerate(phistar.coeffs)][1:])

    def residue(lam: complex) -> float:
        return abs(psistar(lam) / dphi(lam))

    k1 = residue(dominant) / (2.0 * abs(dominant))
    if not 0.75 <= k1 <= 1.15:
        return False
    base = residue(dominant) * abs(dominant) ** -21
    contamination = sum(residue(lam) * abs(lam) ** -21
                        for lam in rts if lam is not dominant)
    return contamination <= 0.05 * base


def random_classical(rng: np.random.Generator, max_len: int = 8,
                     max_mod: float = 0.9) -> VerblunskySequence:
    while True:
        seq = VerblunskySequence(draw_tail(rng, int(rng.integers(0, max_len + 1)), max_mod))
        if circle_margin(seq) >= CLASSICAL_MARGIN:
            return seq


def random_admissible(rng: np.random.Generator, head_max: int = 6,
                      tail_max: int = 6) -> VerblunskySequence:
    """Any admissible sequence (no conditioning beyond the unit-circle guard)."""
    while True:
        head = draw_head(rng, int(rng.integers(0, head_max + 1)))
        tail = draw_tail(rng, int(rng.integers(0, tail_max + 1)))
        try:
            return VerblunskySequence(head + tail)
        except GuardViolationError:
            continue


def draw_near_circle(rng: np.random.Generator, L: int, lo: float,
                     hi: float) -> VerblunskySequence:
    """A length-L case of the near-circle sweep (a head of L/4 entries with
    one outside the disk, then a classical tail) whose denominator roots of
    F come within ``hi`` of the circle, none within ``lo``."""
    while True:
        head = draw_head(rng, L // 4)
        if not any(abs(a) > 1.0 for a in head):
            continue
        try:
            seq = VerblunskySequence(head + draw_tail(rng, L - L // 4))
        except GuardViolationError:
            continue
        if lo < circle_margin(seq) < hi:
            return seq


NEAR_CIRCLE_TAIL_HEADS = (2.0, -1.5j, 1.2 + 0.7j)


def near_circle_coefficient(rng: random.Random) -> complex:
    """(1 - 10^U(-7.9, -6)) e^{i theta}: a factor 1 - |alpha|^2 of 2.5e-8 to
    2e-6, where a second rounding of |alpha|^2 shows."""
    return (1.0 - 10.0 ** rng.uniform(-7.9, -6.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def draw_near_circle_tail(rng: random.Random) -> VerblunskySequence:
    """One head coefficient outside the disk, then one or two tail
    coefficients from ``near_circle_coefficient``."""
    head, k = rng.choice(NEAR_CIRCLE_TAIL_HEADS), rng.choice((1, 2))
    return VerblunskySequence([head, *(near_circle_coefficient(rng) for _ in range(k))])


def random_nonclassical(rng: np.random.Generator, head_max: int = 5,
                        tail_max: int = 8, require_growth_window: bool = True,
                        ) -> VerblunskySequence:
    """A suite case: at least one head entry outside the closed unit disk."""
    while True:
        head = draw_head(rng, int(rng.integers(1, head_max + 1)))
        if not any(abs(a) > 1.0 for a in head):
            continue
        try:
            seq = VerblunskySequence(head + draw_tail(rng, int(rng.integers(0, tail_max + 1))))
        except GuardViolationError:
            continue
        if circle_margin(seq) < NONCLASSICAL_MARGIN:
            continue
        if require_growth_window and not growth_demo_ok(seq):
            continue
        return seq


def horner_on_circle(rows, m: int) -> np.ndarray:
    """The reference for ``poly._on_circle``: each coefficient row by Horner
    at the angles 2 pi j / m, j = 0..m-1, unfolded."""
    zs = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    return np.array([_horner(row, zs) for row in rows])


def mp_re_F(alphas, thetas) -> list[mpmath.mpf]:
    """Re(Psi_L*/Phi_L*) at ``thetas`` at 40 digits, both polynomials from
    the recurrence in mpmath (Psi's with the coefficients negated)."""
    with mpmath.workdps(40):
        one, zero = mpmath.mpc(1), mpmath.mpc(0)
        phi, phistar, psi, psistar = [one], [one], [one], [one]
        for a in alphas:
            a = mpmath.mpc(a.real, a.imag)
            zphi, padded = [zero] + phi, phistar + [zero]
            phi = [p - mpmath.conj(a) * q for p, q in zip(zphi, padded)]
            phistar = [q - a * p for p, q in zip(zphi, padded)]
            zpsi, padded = [zero] + psi, psistar + [zero]
            psi = [p + mpmath.conj(a) * q for p, q in zip(zpsi, padded)]
            psistar = [q + a * p for p, q in zip(zpsi, padded)]
        zs = [mpmath.expj(mpmath.mpf(float(t))) for t in thetas]
        return [mpmath.re(mpmath.polyval(psistar[::-1], z) / mpmath.polyval(phistar[::-1], z))
                for z in zs]


def from_roots(rts) -> ComplexPoly:
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


# ---------------------------------------------------------------------------
# reference recurrences and the inverse Schur step: the same steps in
# ComplexPoly arithmetic, one immutable polynomial per operation (the
# library runs them on coefficient lists; the two agree bit for bit)


def reference_szego_polys(seq: VerblunskySequence, n: int) -> tuple[ComplexPoly, ComplexPoly]:
    phi = ComplexPoly([1.0])
    phistar = ComplexPoly([1.0])
    for k in range(n):
        a = seq.alpha(k)
        zphi = phi.shifted(1)
        phi, phistar = zphi - a.conjugate() * phistar, phistar - a * zphi
    return phi, phistar


def reference_second_kind_polys(seq: VerblunskySequence, n: int) -> tuple[ComplexPoly, ComplexPoly]:
    return reference_szego_polys(VerblunskySequence([-a for a in seq.alphas]), n)


def reference_backward_schur(alphas) -> RationalFn:
    num, den = ComplexPoly([0.0]), ComplexPoly([1.0])
    for a in reversed(alphas):
        znum = num.shifted(1)
        num, den = a * den + znum, den + a.conjugate() * znum
    return RationalFn(num, den)


def reference_inverse_schur_step(f: RationalFn) -> tuple[complex, RationalFn | None]:
    """alpha = f(0) and the next iterate shift(P - a Q) / (Q - conj(a) P), or
    None in place of the iterate when |alpha| = 1 within DEFAULT_GUARD_UNIT."""
    a = f.num(0)
    if abs(abs(a) - 1.0) <= DEFAULT_GUARD_UNIT:
        return a, None
    shifted_num = (f.num - a * f.den).coeffs[1:]
    den = f.den - a.conjugate() * f.num
    return a, RationalFn(ComplexPoly(shifted_num if shifted_num else [0.0]), den)


def reference_recover_coefficients(fstar: RationalFn, max_n: int) -> tuple[tuple[complex, ...], str | None]:
    """The alphas and the termination of the inverse Schur algorithm from F_*,
    one reference step per coefficient."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    c = fstar.num(0)
    if c == 0:
        raise ValueError("F_*(0) = 0: the Moebius seed is undefined")
    if abs(c) <= 1e-14 * max(fstar.num.magnitude_bound(1.0), 1e-300):
        raise PoleEvaluationError("the Moebius seed has a pole at z = 0 to rounding")
    seed_num = (fstar.num - c * fstar.den).coeffs[1:]
    f = RationalFn(ComplexPoly(seed_num if seed_num else [0.0]), fstar.num + c * fstar.den)
    alphas: list[complex] = []
    for _ in range(max_n):
        a, f = reference_inverse_schur_step(f)
        alphas.append(a)
        if f is None:
            return tuple(alphas), "unimodular"
    return tuple(alphas), None


def same_bits(p: ComplexPoly, q: ComplexPoly) -> bool:
    """Equal coefficients; NaN matches NaN and the two signed zeros match
    each other."""
    def same(x: float, y: float) -> bool:
        return x == y or (math.isnan(x) and math.isnan(y))

    return (len(p.coeffs) == len(q.coeffs)
            and all(same(x.real, y.real) and same(x.imag, y.imag)
                    for x, y in zip(p.coeffs, q.coeffs)))


def draw_wide(rng: np.random.Generator) -> VerblunskySequence:
    """Up to 12 coefficients: moduli 10^U(-3, 150) or in (0, 3), about one
    in five an exact zero, random phases."""
    out = []
    for _ in range(int(rng.integers(0, 13))):
        u = rng.random()
        if u < 0.2:
            out.append(0j)
            continue
        m = 10.0 ** rng.uniform(-3.0, 150.0) if u < 0.5 else rng.uniform(0.0, 3.0)
        out.append(complex(m * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
    try:
        return VerblunskySequence(out)
    except GuardViolationError:
        return draw_wide(rng)


# ---------------------------------------------------------------------------
# reference root-finding: np.roots for the companion eigenvalues, the
# library's Newton step from the power matrix, and the residual by Horner with
# the scale sum_k |c_k| |z|**k in complex arithmetic (the library builds the
# same companion matrix itself and takes the residual from the power matrix,
# the scale in real arithmetic; wherever the companion roots meet the bound,
# the two agree bit for bit).  On a miss, an Aberth iteration evaluated by
# Horner and run to the residual bound, from the companion roots where its
# inclusion discs are disjoint, then from the Newton-polygon circles; the
# library runs its power-matrix sweeps from the Newton-polygon circles
# alone, so there the two differ in the last bits.  From degree 40 on the library tries its Aberth
# start first, which this route leaves out: there it is the route the start
# hands over to


def reference_scaled_residuals(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    vals = np.abs(_horner(c, z))
    scale = np.abs(_horner(np.abs(c).astype(complex), np.abs(z).astype(complex)))
    resid = vals / np.maximum(scale, 1e-300)
    if scale.max() == np.inf:
        over = np.isinf(scale)
        resid[over] = reference_scaled_residuals(c[::-1], 1.0 / z[over])
    return resid


def reference_aberth(c: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    for _ in range(201):
        if (reference_scaled_residuals(c, z) <= DEFAULT_ROOT_TOL).all():
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


def reference_discs_disjoint(c: np.ndarray, z: np.ndarray) -> bool:
    """Smith's inclusion discs, one root at a time: the radius
    n (|p(z_i)| + 4 n eps sum_k |c_k||z_i|^k) / |c_n prod_{j != i} (z_i - z_j)|,
    the numerator from the reversed coefficients at 1/z_i where |z_i| > 1,
    and every pair of discs apart."""
    n = len(z)
    eps = np.finfo(float).eps
    radii = []
    for i, zi in enumerate(z):
        cc, x, shift = (c, zi, 0.0) if abs(zi) <= 1 else (c[::-1], 1 / zi, n * math.log(abs(zi)))
        val = abs(_horner(cc, np.array([x]))[0])
        scale = sum(abs(ck) * abs(x) ** k for k, ck in enumerate(cc))
        log_prod = sum(math.log(abs(zi - zj)) if zi != zj else -math.inf
                       for j, zj in enumerate(z) if j != i)
        log_r = (math.log(n * (val + 4 * n * eps * scale)) + shift
                 - math.log(abs(c[-1])) - log_prod)
        radii.append(math.exp(log_r) if log_r < 700 else math.inf)
    return all(abs(z[i] - z[j]) > radii[i] + radii[j]
               for i in range(n) for j in range(i + 1, n))


def reference_roots(p: ComplexPoly) -> list[complex]:
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
    with np.errstate(all="ignore"):
        top = np.abs(c).max()
        c = c / top
        if not math.isfinite(top) or c[-1] == 0:
            raise RootFindingError("coefficients not finite, or the leading one underflows")
        try:
            cand = np.roots(c[::-1])
        except np.linalg.LinAlgError:
            cand = np.full(n, np.nan, dtype=complex)
        v = _powers(cand, n)
        step = (v @ c) / (v[:, :n] @ (c[1:] * np.arange(1, n + 1)))
        gap = np.abs(cand[:, None] - cand[None, :])
        np.fill_diagonal(gap, np.inf)
        cand = np.where(np.abs(step) < 0.1 * gap.min(axis=1), cand - step, cand)
        if not reference_scaled_residuals(c, cand).max() <= DEFAULT_ROOT_TOL:
            restart = reference_aberth(c, cand) if np.isfinite(cand).all() else None
            if restart is not None and not reference_discs_disjoint(c, restart):
                restart = None
            if restart is None:
                restart = reference_aberth(c, _newton_polygon_start(c))
            if restart is None:
                raise RootFindingError("reference route refused")
            cand = restart
    found.extend(complex(r) for r in cand)
    return found


def independent_star_counts(seq: VerblunskySequence, n_max: int) -> list[int]:
    """In-disk zeros of Phi_k*, k = 1..n_max, each from Phi_k*'s own roots
    (``zero_count_trace`` reflects the roots of Phi_k instead)."""
    counts = []
    for k in range(1, n_max + 1):
        phistar = szego_polys(seq, k)[1]
        inside, amb, _ = split_by_circle(poly_roots(phistar) if phistar.degree >= 1 else [])
        assert not amb, (k, amb)
        counts.append(len(inside))
    return counts


def independent_phi_N_star_count(seq: VerblunskySequence) -> int:
    """In-disk zeros of Phi_N* from its own roots (the library takes the
    count from the zero-count rule instead); AmbiguousRootError when one
    lies in the guard band."""
    phistar = szego_polys(seq, seq.N)[1]
    if phistar.degree < 1:
        return 0
    inside, amb, _ = split_by_circle(poly_roots(phistar))
    if amb:
        raise AmbiguousRootError("zeros of Phi_N* in the circle guard band", amb)
    return len(inside)
