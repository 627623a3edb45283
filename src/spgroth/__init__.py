"""Exact computer algebra for Grothendieck and symplectic Grothendieck
polynomials: polynomial families, transition identities, stable limits, and
triangular expansions into the shape-indexed bases."""

from .coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    all_fpf_involutions,
    all_permutations,
    bruhat_cover_up,
    dearc,
    fpf_cover_up,
    fpf_length,
    fpf_transition_indices,
    is_fpf_grassmannian,
    perm_length,
    reduced_word,
    shift_fpf,
    sp_code,
    sp_rothe_diagram,
    sp_shape,
    transition_indices_perm,
    visible_descents,
)
from .grothendieck import (
    Expansion,
    ExpansionDegreeError,
    beta_rescale_check,
    expand_in_grothendieck_basis,
    grothendieck,
    is_sp_dominant,
    lenart_signed_terms,
    schubert,
    sp_dominant_poly,
    sp_grothendieck,
    sp_transition_recurrence,
    verify_lenart_transition,
    verify_sp_transition,
)
from .polyring import (
    BetaInt,
    ExponentRangeError,
    MultiPoly,
    act_si,
    apply_word,
    beta_divided_diff,
    divided_diff,
    isobaric,
    oplus,
    truncate,
)
from .stable import (
    Window,
    expand_in_G_basis,
    expand_in_GP_basis,
    gp_partition,
    gp_sp,
    gp_sp_positive_recurrence,
    stable_groth_partition,
    stable_groth_perm,
    verify_f_grass,
    verify_stable_sp_transition,
)

__version__ = "0.1.0"
