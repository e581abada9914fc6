import pytest


@pytest.fixture
def tail_builds(monkeypatch):
    """Record the index n of each tail_schur call, whichever opuc module
    makes it (today schur is the only caller)."""
    import opuc.analysis
    import opuc.cli
    import opuc.schur

    calls: list[int] = []
    build = opuc.schur.tail_schur

    def counted(seq, n):
        calls.append(n)
        return build(seq, n)

    for module in (opuc.schur, opuc.analysis, opuc.cli):
        if getattr(module, "tail_schur", None) is build:
            monkeypatch.setattr(module, "tail_schur", counted)
    return calls
