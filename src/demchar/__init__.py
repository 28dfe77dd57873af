"""Exact Demazure-operator computations on weight-lattice character rings."""

from .charring import CharElement, extreme_weight, monomial, star, w_apply, zero
from .demazure import (
    all_demazure_images,
    demazure_char,
    demazure_step,
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
    Dominance,
    RootDatum,
    Weight,
    build_datum,
    dominance_compare,
    dominance_leq,
    is_dominant,
    is_regular_dominant,
    pairing,
    simple_reflection,
)
from .theorem import (
    VerificationReport,
    chi_prime_identity,
    chi_prime_longest,
    epsilon_char,
    psi_character,
    verify_lemma31,
    verify_theorem,
)
from .weyl import (
    WeylElement,
    WeylGroup,
    alternative_reduced_words,
    apply,
    bruhat_leq,
    dot_apply,
    element_by_word,
    generate,
    lower_interval,
)

__version__ = "0.1.0"
