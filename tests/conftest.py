import sys

import pytest


def patch_everywhere(monkeypatch, func, replacement) -> None:
    """Replace every binding of ``func`` in the loaded opuc modules (the
    package itself included), so the replacement sees every call, whichever
    module makes it."""
    import opuc.cli  # noqa: F401  (loads every opuc module)

    for name, module in list(sys.modules.items()):
        if name != "opuc" and not name.startswith("opuc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def tail_builds(monkeypatch):
    """Record the index n of each tail_schur call."""
    import opuc.schur

    calls: list[int] = []
    build = opuc.schur.tail_schur

    def counted(seq, n):
        calls.append(n)
        return build(seq, n)

    patch_everywhere(monkeypatch, build, counted)
    return calls


@pytest.fixture
def wall_builds(monkeypatch):
    """Record the index n of each wall_polys call."""
    import opuc.opuc_core

    calls: list[int] = []
    build = opuc.opuc_core.wall_polys

    def counted(seq, n):
        calls.append(n)
        return build(seq, n)

    patch_everywhere(monkeypatch, build, counted)
    return calls


@pytest.fixture
def split_samples(monkeypatch):
    """Record the number of points m in each ``_on_circle`` call that
    ``opuc.analysis`` makes: its one caller there samples Khrushchev's split."""
    import opuc.analysis

    sizes: list[int] = []
    on_circle = opuc.analysis._on_circle

    def counted(rows, m):
        sizes.append(m)
        return on_circle(rows, m)

    monkeypatch.setattr(opuc.analysis, "_on_circle", counted)
    return sizes


@pytest.fixture
def root_calls(monkeypatch):
    """Record the degree of the polynomial in each poly.roots call."""
    import opuc.poly

    calls: list[int] = []
    find = opuc.poly.roots

    def counted(p, *args, **kwargs):
        calls.append(p.degree)
        return find(p, *args, **kwargs)

    patch_everywhere(monkeypatch, find, counted)
    return calls


@pytest.fixture
def unresolved_roots(monkeypatch):
    """Make every poly.roots call raise RootFindingError."""
    import opuc.poly

    def refuse(p, *args, **kwargs):
        raise opuc.poly.RootFindingError("root residuals up to 1.0e-06 exceed tolerance 1.0e-12")

    patch_everywhere(monkeypatch, opuc.poly.roots, refuse)


@pytest.fixture
def spurious_root(monkeypatch):
    """Make every poly.roots call also report a root at 0.01j, inside the disk."""
    import opuc.poly

    find = opuc.poly.roots

    def padded(p, *args, **kwargs):
        return find(p, *args, **kwargs) + [0.01j]

    patch_everywhere(monkeypatch, find, padded)


@pytest.fixture
def aberth_runs(monkeypatch):
    """Record the degree of the polynomial in each Aberth run: the start from
    degree 40, or the run after a companion miss below it."""
    import opuc.poly

    calls: list[int] = []
    iterate = opuc.poly._aberth

    def counted(c, *args):
        calls.append(len(c) - 1)
        return iterate(c, *args)

    patch_everywhere(monkeypatch, iterate, counted)
    return calls


@pytest.fixture
def start_sweeps(monkeypatch):
    """Record (degree of the polynomial, roots swept) for each Aberth sweep
    of roots, from degree 40 on or after a companion miss below it."""
    import opuc.poly

    calls: list[tuple[int, int]] = []
    sweep = opuc.poly._aberth_sweep

    def counted(cols, z, act):
        calls.append((len(cols) - 1, len(act)))
        return sweep(cols, z, act)

    patch_everywhere(monkeypatch, sweep, counted)
    return calls


@pytest.fixture
def companion_eigvals(monkeypatch):
    """Record the order of each companion matrix whose eigenvalues roots takes."""
    import opuc.poly

    calls: list[int] = []
    eigvals = opuc.poly.np.linalg.eigvals

    def counted(a):
        calls.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(opuc.poly.np.linalg, "eigvals", counted)
    return calls


@pytest.fixture
def horner_calls(monkeypatch):
    """Record the degree of the polynomial in each array Horner evaluation."""
    import opuc.poly

    calls: list[int] = []
    horner = opuc.poly._horner

    def counted(c, z):
        calls.append(len(c) - 1)
        return horner(c, z)

    patch_everywhere(monkeypatch, horner, counted)
    return calls


@pytest.fixture
def szego_runs(monkeypatch):
    """Record, for each run of the Szego recurrence, the number of steps
    it took (the pairs it yielded, less the initial one)."""
    import opuc.opuc_core

    runs: list[int] = []
    run = opuc.opuc_core._szego_steps

    def counted(alphas, n):
        runs.append(-1)
        for pair in run(alphas, n):
            runs[-1] += 1
            yield pair

    patch_everywhere(monkeypatch, run, counted)
    return runs
