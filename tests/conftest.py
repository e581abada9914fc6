import pytest


@pytest.fixture
def tail_builds(monkeypatch):
    """Record each tail_schur call by route: "F" when schur builds F (or f),
    "khrushchev" when analysis builds the Khrushchev parts."""
    import opuc.analysis
    import opuc.schur

    calls: list[str] = []

    def counted(build, route):
        def tail(seq, n):
            calls.append(route)
            return build(seq, n)
        return tail

    monkeypatch.setattr(opuc.schur, "tail_schur", counted(opuc.schur.tail_schur, "F"))
    monkeypatch.setattr(opuc.analysis, "tail_schur",
                        counted(opuc.analysis.tail_schur, "khrushchev"))
    return calls
