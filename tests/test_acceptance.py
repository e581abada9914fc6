"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The randomized populations are seeded and cached at
module scope, so every criterion sees the same suite.
"""

import math
import time

import numpy as np

from opuc import (
    ComplexPoly,
    RationalFn,
    VerblunskySequence,
    as_rational_F,
    moments,
    omega,
    pole_set,
    recover_coefficients,
    second_kind_polys,
    szego_polys,
    szego_verify,
    tail_schur,
    wall_polys,
    zero_count_trace,
)
from opuc.poly import roots as poly_roots, split_by_circle

from helpers import random_admissible, random_classical, random_nonclassical

_CACHE: dict = {}


def _gate(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"{name}{tail}"


def classical_suite() -> list[VerblunskySequence]:
    if "classical" not in _CACHE:
        rng = np.random.default_rng(108)
        _CACHE["classical"] = [random_classical(rng) for _ in range(100)]
    return _CACHE["classical"]


def nonclassical_suite() -> list[VerblunskySequence]:
    if "nonclassical" not in _CACHE:
        rng = np.random.default_rng(20260809)
        _CACHE["nonclassical"] = [random_nonclassical(rng) for _ in range(200)]
    return _CACHE["nonclassical"]


def _reports() -> list:
    if "reports" not in _CACHE:
        out = []
        for seq in nonclassical_suite():
            start = time.perf_counter()
            rep = szego_verify(seq)
            out.append((seq, rep, time.perf_counter() - start))
        _CACHE["reports"] = out
    return _CACHE["reports"]


def test_criterion_1_classical_reduction():
    worst = 0.0
    ok = True
    for seq in classical_suite():
        rep = szego_verify(seq)
        worst = max(worst, rep.rel_error)
        if rep.poles != () or rep.rel_error >= 1e-10:
            ok = False
    _gate("1 classical reduction (100 cases, rel_error < 1e-10, no poles)",
          ok, f"worst rel_error {worst:.2e}")


def test_criterion_2_single_nonclassical_closed_form():
    rep = szego_verify(VerblunskySequence([2]))
    checks = (
        abs(rep.lhs + 3.0) < 1e-10,
        abs(rep.rhs + 3.0) < 1e-10 * 3,
        rep.epsilon == -1,
        len(rep.poles) == 1 and abs(rep.poles[0] - 0.5) < 1e-12,
        abs(rep.log_integral - math.log(0.75)) < 1e-10,
    )
    _gate("2 closed form for alphas=[2] (lhs = rhs = -3, eps = -1, int = log 3/4)",
          all(checks), f"rel_error {rep.rel_error:.2e}")


def test_criterion_3_randomized_nonclassical_suite():
    worst_err = 0.0
    worst_time = 0.0
    for _, rep, elapsed in _reports():
        worst_err = max(worst_err, rep.rel_error)
        worst_time = max(worst_time, elapsed)
    ok = worst_err < 1e-8 and worst_time < 1.0
    _gate("3 randomized nonclassical suite (200 cases, rel_error < 1e-8, < 1 s each)",
          ok, f"worst rel_error {worst_err:.2e}, worst time {worst_time * 1e3:.1f} ms")


def test_criterion_4_khrushchev_pointwise_and_n_independence():
    thetas = 2 * np.pi * np.arange(1024) / 1024
    zs = np.exp(1j * thetas)
    worst = 0.0
    for seq in nonclassical_suite():
        F = as_rational_F(seq)
        direct = (F.num(zs) / F.den(zs)).real
        scale = np.maximum(1.0, np.abs(direct))
        first = None
        for n in range(seq.N, len(seq) + 1):
            om = omega(seq, n - 1)
            t = tail_schur(seq, n)
            phi, phistar = szego_polys(seq, n)
            tn, td = t.num(zs), t.den(zs)
            d2 = np.abs(phistar(zs) * td - zs * phi(zs) * tn) ** 2
            formula = om * (np.abs(td) ** 2 - np.abs(tn) ** 2) / d2
            worst = max(worst, float(np.max(np.abs(formula - direct) / scale)))
            if first is None:
                first = formula
            else:
                worst = max(worst, float(np.max(np.abs(formula - first) / scale)))
    _gate("4 Khrushchev pointwise + n-independence (1024 points, < 1e-10 rel)",
          worst < 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_5_algebraic_identity_suite():
    rng = np.random.default_rng(271828)
    zs = np.exp(1j * 2 * np.pi * np.arange(256) / 256)
    worst_coeff = 0.0
    worst_wall = 0.0
    seqs = [random_admissible(rng, head_max=5, tail_max=6) for _ in range(12)]
    for seq in seqs:
        for n in range(21):
            phi, phistar = szego_polys(seq, n + 1)
            psi, psistar = second_kind_polys(seq, n + 1)
            om = omega(seq, n)
            lhs = phi * psistar + phistar * psi
            rhs = ComplexPoly([0j] * (n + 1) + [2.0 * om])
            scale = max(1.0, max(abs(c) for c in lhs.coeffs), abs(2.0 * om))
            worst_coeff = max(worst_coeff,
                              max(abs(c) for c in (lhs - rhs).coeffs) / scale)
            # Pinter-Nevai from the transfer-matrix product
            wp = wall_polys(seq, n)
            pn1 = wp.B.reverse(n).shifted(1) - wp.A.reverse(n)
            pn2 = wp.B - wp.A.shifted(1)
            pscale = max(1.0, max(abs(c) for c in phi.coeffs),
                         max(abs(c) for c in phistar.coeffs))
            worst_coeff = max(worst_coeff,
                              max(abs(c) for c in (phi - pn1).coeffs) / pscale,
                              max(abs(c) for c in (phistar - pn2).coeffs) / pscale)
            gap = np.abs(wp.B(zs)) ** 2 - np.abs(wp.A(zs)) ** 2 - om
            wscale = max(1.0, float(np.max(np.abs(wp.B(zs)) ** 2)), abs(om))
            worst_wall = max(worst_wall, float(np.max(np.abs(gap))) / wscale)
    ok = worst_coeff < 1e-12 and worst_wall < 1e-10
    _gate("5 identity suite (Pinter-Nevai, Liouville < 1e-12; wall gap < 1e-10; n <= 20)",
          ok, f"coeff {worst_coeff:.2e}, wall {worst_wall:.2e}")


def test_criterion_6_pole_zero_structure():
    ok_bound = True
    ok_coincide = True
    ok_constancy = True
    worst_dist = 0.0
    for seq in nonclassical_suite():
        poles = sorted(pole_set(seq), key=lambda z: (z.real, z.imag))
        _, phistar_n = szego_polys(seq, seq.N)
        star_zeros = len(split_by_circle(poly_roots(phistar_n))[0])
        if len(poles) > star_zeros:
            ok_bound = False
        counts = set()
        for m in range(seq.N, len(seq) + 1):
            _, ps = szego_polys(seq, m)
            c = len(split_by_circle(poly_roots(ps))[0]) if ps.degree >= 1 else 0
            counts.add(c)
        if len(counts) != 1 or counts == {0}:
            ok_constancy = False
        # beyond the stored length the sequence has a zero tail and Phi_m*
        # freezes; its in-disk zeros must sit on the poles
        for m in (len(seq), len(seq) + 2):
            _, ps = szego_polys(seq, m)
            inside, amb, _ = split_by_circle(poly_roots(ps))
            inside = sorted(inside, key=lambda z: (z.real, z.imag))
            if amb or len(inside) != len(poles):
                ok_coincide = False
                continue
            if poles:
                worst_dist = max(worst_dist,
                                 max(abs(a - b) for a, b in zip(inside, poles)))
    ok = ok_bound and ok_coincide and ok_constancy and worst_dist < 1e-9
    _gate("6 pole/zero structure (count bound, zero-tail coincidence 1e-9, constancy)",
          ok, f"worst coincidence distance {worst_dist:.2e}")


def test_criterion_7_zero_count_recursion():
    ok = True
    for seq in nonclassical_suite():
        rows = zero_count_trace(seq, 12)
        if any(r.predicted != r.actual or r.predicted_star != r.actual_star
               for r in rows):
            ok = False
    _gate("7 zero-count recursion (predicted = actual up to n = 12)", ok)


def test_criterion_8_moment_growth():
    rep = moments(VerblunskySequence([2]), 1, 20)
    exact = all(c == 2.0 ** j for j, c in enumerate(rep.moments, start=1))

    worst_gap = 0.0
    ok_growth = True
    for seq in nonclassical_suite():
        mrep = moments(seq, len(seq), 40)
        if not pole_set(seq):
            continue
        gap = abs(mrep.growth_rate - mrep.predicted_rate) / mrep.predicted_rate
        worst_gap = max(worst_gap, gap)
        if gap > 0.02:
            ok_growth = False

    ok_classical = True
    for seq in classical_suite():
        if len(seq) == 0:
            continue
        mrep = moments(seq, len(seq), 40)
        if mrep.growth_rate > 1 + 1e-6:
            ok_classical = False
    _gate("8 moments (2^j exact at J=20; growth within 2% at J=40; classical <= 1)",
          exact and ok_growth and ok_classical, f"worst growth gap {worst_gap:.2%}")


def test_criterion_9_verblunsky_round_trip():
    rng = np.random.default_rng(314159)
    worst_rt = 0.0
    worst_scale = 0.0
    done = 0
    while done < 100:
        seq = random_admissible(rng, head_max=6, tail_max=6)
        if len(seq) == 0:
            continue
        done += 1
        F = as_rational_F(seq)
        res = recover_coefficients(F, len(seq))
        if res.termination is not None:
            worst_rt = math.inf
            continue
        worst_rt = max(worst_rt,
                       max(abs(a - b) for a, b in zip(res.alphas, seq.alphas)))
        scaled = recover_coefficients(RationalFn(2.5 * F.num, F.den), len(seq))
        worst_scale = max(worst_scale,
                          max(abs(a - b) for a, b in zip(res.alphas, scaled.alphas)))
    ok = worst_rt < 1e-9 and worst_scale < 1e-10
    _gate("9 round trip (100 cases, 1e-9) and invariance under 2.5 * F_*",
          ok, f"round trip {worst_rt:.2e}, scaling {worst_scale:.2e}")


def test_criterion_10_sign_theorem():
    thetas = 2 * np.pi * np.arange(1024) / 1024
    zs = np.exp(1j * thetas)
    ok = True
    for seq in nonclassical_suite():
        F = as_rational_F(seq)
        eps = 1 if omega(seq, seq.N - 1) > 0 else -1
        if not np.all(eps * (F.num(zs) / F.den(zs)).real > 0):
            ok = False
    _gate("10 sign theorem (epsilon * Re F > 0 at 1024 points, all cases)", ok)
