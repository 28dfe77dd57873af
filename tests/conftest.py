import pytest


@pytest.fixture
def sections_of_lam(monkeypatch):
    """Seeds each section with e^lam instead of e^(lam - rho), so every check fails.

    The seed is the only weight_sub in theorem; D_w(e^lam) fits the packing
    chosen for lam and the shift rho, so no coordinate wraps.  L(tau) is
    built as before, and a failing report keeps both sides.
    """
    from demchar import theorem

    monkeypatch.setattr(theorem, "weight_sub", lambda lam, rho: lam)
