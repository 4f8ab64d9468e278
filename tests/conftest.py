"""Shared test fixtures."""
import pytest


@pytest.fixture
def counted_test_forms(monkeypatch):
    """Lists of the inputs, as bytes, of every test-pencil staircase and of
    every regularity check that ``strongmin.minreal`` and
    ``strongmin.mcmillan`` make: ``(staircases, validated)``.  A staircase
    is recorded by its side and quadruple."""
    import strongmin.mcmillan as mcmillan
    import strongmin.minreal as minreal

    staircases, validated = [], []
    test_form, validate = minreal._test_form, minreal.validate_regular

    def key(q):
        return b"".join(
            repr(c.shape).encode() + c.tobytes()
            for P in (q.A, q.B, q.C, q.D)
            for c in (P.L0, P.L1)
        )

    def counted_test_form(q, side, tol, seed):
        staircases.append(side.encode() + key(q))
        return test_form(q, side, tol, seed)

    def counted_validate(q, tol, seed):
        validated.append(key(q))
        return validate(q, tol, seed)

    monkeypatch.setattr(minreal, "_test_form", counted_test_form)
    for module in (minreal, mcmillan):
        monkeypatch.setattr(module, "validate_regular", counted_validate)
    return staircases, validated
