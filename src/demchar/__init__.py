"""Exact Demazure-operator computations on weight-lattice character rings."""

from .charring import CharElement
from .demazure import (
    demazure_char,
    demazure_word,
    euler_char,
    top_cohomology_char,
)
from .kernel import (
    decompose,
    in_kernel,
    is_demazure_invariant,
    kernel_basis_element,
    verify_characterization,
)
from .rootsys import (
    RootDatum,
    Weight,
    build_datum,
    is_dominant,
    pairing,
    simple_reflection,
)
from .weyl import (
    WeylGroup,
    bruhat_leq,
    generate,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``theorem`` is imported on first use (PEP 562), so the commands that never sweep do not compile it
    if name in ("VerificationReport", "epsilon_char", "sweep_verify_lemma31", "sweep_verify_theorem"):
        from . import theorem

        return getattr(theorem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
