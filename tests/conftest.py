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


@pytest.fixture
def eps_times_minus_rho(monkeypatch):
    """Multiplies every eps_w by e^-rho, so every check fails and keeps its section as it was.

    The star key's shift -rho becomes -2 rho, and the packing is chosen for
    the shift 2 rho, so no coordinate of L(tau) = e^-rho * D_tau(e^(lam - rho))
    wraps.  The section, its seed e^(lam - rho) and its sharing are untouched.
    """
    from demchar import theorem

    real = theorem.packing_for

    def packing_for(d, weights, shift=()):
        packing = real(d, weights, tuple(2 * x for x in shift))
        star_key = packing.star_key
        packing.star_key = lambda delta: star_key(tuple(2 * x for x in delta))
        return packing

    monkeypatch.setattr(theorem, "packing_for", packing_for)


@pytest.fixture
def freeze_reflections(monkeypatch):
    """Returns a switch that makes every packed reflection in ``kernel`` fix its key.

    After the switch, ``kernel.packing_for`` hands out packings whose simple
    roots are 0: the W-invariance lookup of ``decompose`` finds every key
    unmoved, and its fold reflects each weight in place until it passes its
    bound.  Zero roots would also stop the Demazure steps of the
    ``in_kernel`` guard, so the guard answers True, which is right for the
    kernel elements these tests pass; build them before the switch.
    """
    from demchar import kernel

    real = kernel.packing_for

    def packing_for(d, weights, shift=()):
        packing = real(d, weights, shift)
        packing.roots = (0,) * d.rank
        return packing

    def freeze():
        monkeypatch.setattr(kernel, "packing_for", packing_for)
        monkeypatch.setattr(kernel, "in_kernel", lambda d, v: True)

    return freeze


@pytest.fixture
def empty_steps_keep_a_term(monkeypatch):
    """Makes every Demazure step whose result would be empty return e^0 instead.

    So eps_w != 0 for w outside W^J, and L(tau) differs across a coset of the
    stabilizer of lam - rho.  0 lies in the convex hull of every orbit, so no
    packing wraps.
    """
    from demchar.rootsys import Packing

    real = Packing.step
    monkeypatch.setattr(Packing, "step", lambda packing, pos, terms: real(packing, pos, terms) or {packing.origin: 1})
