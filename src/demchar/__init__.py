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
from .theorem import (
    VerificationReport,
    epsilon_char,
    sweep_verify_lemma31,
    sweep_verify_theorem,
)
from .weyl import (
    WeylGroup,
    bruhat_leq,
    generate,
)

__version__ = "0.1.0"
