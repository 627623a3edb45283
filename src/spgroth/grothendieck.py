"""Grothendieck and symplectic Grothendieck polynomials.

Both families are generated by beta divided differences.  An element climbs
to a dominant ancestor, where the family has a closed form: the monomial
x^code for a dominant permutation (weakly decreasing code), and the product
of x_i + x_j + beta*x_i*x_j over the diagram for an Sp-dominant fpf
involution.  A permutation climbs by first ascents, to a dominant ancestor
that need not be the nearest; an involution takes a shortest climb, to a
nearest Sp-dominant ancestor (ties go to the least ascent at each step).
The beta steps of the climb are then applied in reverse to descend to the
element.  Transition identities are verified by expanding both sides into
honest polynomials.  Polynomials are expanded in the permutation-indexed
basis by one peel: the lowest-degree part of the remainder is a
Z[beta]-combination of Schubert polynomials, and each of its pivots w takes
c * S_w off that part and c * G_w off the remainder.
"""

from __future__ import annotations

from functools import cache, lru_cache

from ._frozen import _Frozen
from .coxeter import (
    FpfInvolution,
    Permutation,
    bruhat_cover_up,
    conj_word,
    fpf_transition_indices,
    fpf_value,
    perm_length,
    permutation_from_code,
    reduced_word,
    sp_rothe_diagram,
    transition_indices_perm,
    visible_descents,
)
from .polyring import (
    BetaInt,
    MultiPoly,
    _add_multiple,
    _product,
    _times_one_plus_beta_x,
    apply_word,
    beta_divided_diff,
    divided_diff,
    oplus,
)


# ---------------------------------------------------------------------------
# the two polynomial families
# ---------------------------------------------------------------------------


@cache
def _groth_raw(oneline: tuple[int, ...]) -> MultiPoly:
    w = Permutation(oneline)
    m = max(w.support, 1)
    code = w.code()
    if all(code[t] >= code[t + 1] for t in range(len(code) - 1)):  # dominant
        return MultiPoly.monomial(code).embed(m)
    i = next(i for i in range(1, m) if w(i) < w(i + 1))
    u = w.times_s(i)
    return beta_divided_diff(i, _groth_raw(u.oneline).embed(m))


def grothendieck(w: Permutation) -> MultiPoly:
    """The member of the unique beta divided difference family indexed by w,
    normalized so the reversal n...321 maps to the staircase monomial.

    Computed from a dominant permutation above w, reached by first ascents,
    where the member is x^code.  That ancestor need not be the nearest one.
    The result lives in max(1, support) variables; embed or restrict it
    for others."""
    return _groth_raw(w.oneline)


def schubert(w: Permutation) -> MultiPoly:
    """Lowest-degree part of grothendieck(w), which is its beta = 0 part:
    every term beta^b x^a has |a| - b = length(w)."""
    return grothendieck(w).bottom()


def _is_sp_dominant_word(z: tuple[int, ...]) -> bool:
    """is_sp_dominant on a canonical one-line word.  Column c of the diagram
    holds the rows c < i < z(c) with z(i) > c; each column must be rows
    c+1 .. c+h, and the heights h must fall strictly until they reach 0."""
    prev = len(z) + 1
    for c in range(1, len(z) + 1):
        rows = [i for i in range(c + 1, z[c - 1]) if z[i - 1] > c]
        h = len(rows)
        if h and (h >= prev or rows[-1] != c + h):
            return False
        prev = h
    return True


# The climb visits the whole upper set of its start, so the memo holds every
# fpf involution of support <= 14 (135,135 words); a smaller memo would make
# the recursion recompute the subtrees it evicted.
@lru_cache(maxsize=1 << 18)
def _sp_climb(oneline: tuple[int, ...]) -> tuple[int, int]:
    """(steps, ascent) of a shortest climb from the canonical word of an fpf
    involution to an Sp-dominant one: (0, 0) at an Sp-dominant word, else
    one more than the fewest steps from the conjugation at some ascent, ties
    going to the least ascent.  Each step raises the length by one, so the
    steps are the least length gap to an Sp-dominant ancestor."""
    if _is_sp_dominant_word(oneline):
        return 0, 0
    best = None
    for i in range(1, len(oneline)):
        if oneline[i - 1] < oneline[i]:
            y = conj_word(oneline, i, i + 1)
            yi, yj = fpf_value(y, i), fpf_value(y, i + 1)
            if yi == i + 1 or yi < yj or yj == i:
                raise RuntimeError(f"conjugating {FpfInvolution(oneline)!r} at the "
                                   f"ascent {i} does not raise its length")
            steps = _sp_climb(y)[0]
            if best is None or steps < best[0]:
                best = (steps, i)
    return best[0] + 1, best[1]


@cache
def _sp_groth_raw(oneline: tuple[int, ...]) -> MultiPoly:
    m = max(len(oneline), 2)
    steps, i = _sp_climb(oneline)
    if not steps:
        # n...321 and theta keep the m - 1 variables of the staircase product
        is_top = oneline == tuple(range(len(oneline), 0, -1))
        return sp_dominant_poly(FpfInvolution(oneline), m - 1 if is_top else m)
    return beta_divided_diff(i, _sp_groth_raw(conj_word(oneline, i, i + 1)).embed(m))


def sp_grothendieck(z: FpfInvolution) -> MultiPoly:
    """The symplectic family member indexed by the fpf involution z,
    normalized so n...321 maps to the product of x_i (+) x_j over its
    dominant diagram.

    Computed from a nearest Sp-dominant involution above z, where the
    member is that closed product: the climb takes the fewest ascent
    conjugations (see _sp_climb), not the first ascents, which can
    overshoot to a much larger product.  The result lives in m - 1
    variables for n...321 and theta (m = max(support, 2)), and in the
    support otherwise; no term uses x_support, so restricting to
    support - 1 variables loses nothing."""
    return _sp_groth_raw(z.oneline)


def is_sp_dominant(z: FpfInvolution) -> bool:
    """True when the diagram is a column-strict shifted staircase anchor:
    column j holds exactly rows j+1 .. j+mu_j for a strict partition mu."""
    return _is_sp_dominant_word(z.oneline)


def sp_dominant_poly(z: FpfInvolution, nvars: int | None = None) -> MultiPoly:
    """Closed product of x_i (+) x_j over the cells (i, j) of the diagram;
    only valid on dominant involutions.  Built in nvars variables, by
    default the largest row of the diagram.  Each factor is beta-homogeneous
    with positive coefficients, so the product is one Kronecker substitution
    (polyring._product)."""
    if not is_sp_dominant(z):
        raise ValueError(f"{z!r} is not Sp-dominant")
    cells = sp_rothe_diagram(z)
    n = max((i for i, _ in cells), default=1) if nvars is None else nvars
    return _product([oplus(MultiPoly.x(i, n), MultiPoly.x(j, n)) for i, j in cells], n)


# ---------------------------------------------------------------------------
# expansions in the permutation basis
# ---------------------------------------------------------------------------


class Expansion(_Frozen):
    """A finite basis expansion: (index, coefficient) pairs in basis order.
    The index is a permutation for the permutation basis and a shape (a
    tuple of parts) for the shape-indexed bases."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[object, BetaInt], ...]):
        self._assign(terms)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_beta_positive(self) -> bool:
        return all(c.is_nonnegative() for _, c in self.terms)


class ExpansionDegreeError(ValueError):
    """Raised when an expansion reaches the degree bound; carries the part of
    the input not yet accounted for."""

    def __init__(self, message: str, residual: MultiPoly):
        super().__init__(message)
        self.residual = residual


def _sorted_terms(terms: dict[Permutation, BetaInt]) -> tuple[tuple[Permutation, BetaInt], ...]:
    return tuple(sorted(terms.items(), key=lambda it: (perm_length(it[0]), it[0].oneline)))


def _peel(f: MultiPoly, max_deg: int) -> tuple[dict[Permutation, BetaInt], MultiPoly]:
    """Peel basis terms off f, lowest degree first, while the remainder's
    lowest degree d is at most max_deg; returns (terms, remainder).

    The degree-d part of the remainder is a Z[beta]-combination of Schubert
    polynomials of degree d.  Its lexicographically least exponent vector is
    the code of a pivot w of length d, whose coefficient c is read off by
    applying the plain divided difference word of w and evaluating at x = 0.
    Each pivot takes c * S_w off the degree-d part and c * G_w off the
    remainder; every pivot has length d, so none comes back.
    """
    if f.has_negative_exponents():
        raise ValueError("expansion requires a polynomial")
    rem = MultiPoly._raw(f.nvars, dict(f.terms))  # reduced in place
    found: dict[Permutation, BetaInt] = {}
    while rem and rem.min_degree() <= max_deg:
        level = rem.bottom()  # a copy, reduced in place
        guard = 0
        while level:
            guard += 1
            if guard > 100000:
                raise RuntimeError("schubert extraction failed to terminate")
            exps = min(level.x_monomials())
            w = permutation_from_code(exps)
            rw = reduced_word(w)
            ambient = max(level.nvars, max(rw) + 1 if rw else 1)
            c = apply_word(divided_diff, rw, level.embed(ambient)).constant_term()
            if c != level.coefficient(exps):
                raise RuntimeError(f"pivot extraction mismatch at {w!r}")
            found[w] = c
            s, g = schubert(w), grothendieck(w)
            if g.nvars > rem.nvars:
                level, rem = level.embed(g.nvars), rem.embed(g.nvars)
            _add_multiple(level.terms, level.nvars, s, -c)
            _add_multiple(rem.terms, rem.nvars, g, -c)
    return found, rem


def expand_in_grothendieck_basis(f: MultiPoly, max_deg: int) -> Expansion:
    """Exact finite expansion of a polynomial in the permutation basis.
    Raises ExpansionDegreeError, with the remainder attached, when the
    remainder still has a part of degree above max_deg."""
    found, rem = _peel(f, max_deg)
    if rem:
        raise ExpansionDegreeError(
            f"expansion exceeded max_deg={max_deg} (bottom degree {rem.min_degree()})", rem)
    return Expansion(_sorted_terms(found))


def expand_in_grothendieck_basis_censored(f: MultiPoly, cutoff: int) -> Expansion:
    """Every basis coefficient for indices of length <= cutoff: the same peel
    as expand_in_grothendieck_basis, stopped quietly at the cutoff.  The rest
    of the expansion only involves indices of greater length, and is dropped
    (used for degree-truncated windows, where it contributes nothing)."""
    return Expansion(_sorted_terms(_peel(f, cutoff)[0]))


# ---------------------------------------------------------------------------
# transition identities
# ---------------------------------------------------------------------------


class TransitionCheck(_Frozen):
    __slots__ = ("lhs", "rhs", "equal", "signed_equal")

    def __init__(self, lhs: MultiPoly, rhs: MultiPoly, equal: bool,
                 signed_equal: bool | None = None):
        self._assign(lhs, rhs, equal, signed_equal)


def _transposition_products(element, fixed: int, indices, conj) -> dict:
    """Expansion of element * prod (1 + beta t) over the transpositions t of
    each index in indices with the fixed index, applied in order; t acts by
    conj(element, i, j) with i < j.  Returns {element: coefficient}."""
    terms = {element: BetaInt.of(1)}
    for a in indices:
        new = dict(terms)
        for y, c in terms.items():
            t = conj(y, *sorted((a, fixed)))
            new[t] = new.get(t, BetaInt()) + c * BetaInt.beta()
        terms = new
    return terms


def _combination(basis, terms: dict, nvars: int) -> MultiPoly:
    """Sum of basis(index) * coefficient over the {index: coefficient} dict
    of Z[beta] coefficients, accumulated in one dict.  The sum lives in
    the largest of nvars and the basis elements' variable counts."""
    parts = [(basis(index), c) for index, c in terms.items()]
    n = max([nvars] + [g.nvars for g, _ in parts])
    out: dict[int, int] = {}
    for g, c in parts:
        _add_multiple(out, n, g, c)
    return MultiPoly._raw(n, out)


def lenart_signed_terms(v: Permutation, k: int) -> tuple[tuple[Permutation, int, int], ...]:
    """All (w, sign, beta_power) in the signed one-variable expansion of
    (1 + beta*x_k) times the basis element of v: chains of length-raising
    transpositions below k (descending targets contribute the sign) followed
    by chains above k."""
    out: list[tuple[Permutation, int, int]] = []
    # every step is a Bruhat cover, which raises the length by one, so a
    # term's beta power is its number of steps; below k that is p

    def down_phase(u: Permutation, last_a: int, p: int):
        out.append((u, (-1) ** p, p))
        up_phase(u, None, p, p)
        for a in range(last_a - 1, 0, -1):
            if bruhat_cover_up(u, a, k):
                down_phase(u.times_transposition(a, k), a, p + 1)

    def up_phase(u: Permutation, last_b: int | None, p: int, power: int):
        bound = max(u.support, k) + 1
        top = bound if last_b is None else last_b - 1
        for b in range(top, k, -1):
            if bruhat_cover_up(u, k, b):
                t = u.times_transposition(k, b)
                out.append((t, (-1) ** p, power + 1))
                up_phase(t, b, p, power + 1)

    down_phase(v, k, 0)
    return tuple(out)


def verify_lenart_transition(v: Permutation, k: int) -> TransitionCheck:
    """Check the two-sided transition identity at index k >= 1, and
    cross-check the signed one-variable form against (1 + beta*x_k) * G_v."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    J, L = transition_indices_perm(v, k)
    times = Permutation.times_transposition
    left = _combination(grothendieck, _transposition_products(v, k, J, times), 1)
    rhs = _combination(grothendieck, _transposition_products(v, k, L, times), 1)
    lhs = _times_one_plus_beta_x(k, left)

    signed: dict[Permutation, BetaInt] = {}
    for w, sign, power in lenart_signed_terms(v, k):
        signed[w] = signed.get(w, BetaInt()) + BetaInt((0,) * power + (sign,))
    direct = _times_one_plus_beta_x(k, grothendieck(v))
    return TransitionCheck(lhs, rhs, lhs == rhs,
                           signed_equal=(_combination(grothendieck, signed, 1) == direct))


def _sp_transition_left(v: FpfInvolution, j: int, k: int, I) -> MultiPoly:
    """The left side of the symplectic transition for the 2-cycle v(j) = k:
    (1 + beta x_j)(1 + beta x_k) times the v-polynomial through the
    i-factors of the index list I."""
    terms = _transposition_products(v, j, I, FpfInvolution.conj_transposition)
    left = _combination(sp_grothendieck, terms, 1)
    return _times_one_plus_beta_x(j, _times_one_plus_beta_x(k, left))


def verify_sp_transition(v: FpfInvolution, j: int, k: int) -> TransitionCheck:
    """Check the symplectic transition identity for the 2-cycle v(j) = k."""
    I, L = fpf_transition_indices(v, j, k)
    lhs = _sp_transition_left(v, j, k, I)
    rhs = _combination(sp_grothendieck, _transposition_products(
        v, k, L, FpfInvolution.conj_transposition), 1)
    return TransitionCheck(lhs, rhs, lhs == rhs)


class RecurrenceCheck(_Frozen):
    __slots__ = ("z", "v", "j", "k", "l", "i_list", "certified", "lhs", "rhs")

    def __init__(self, z: FpfInvolution, v: FpfInvolution, j: int, k: int, l: int,
                 i_list: tuple[int, ...], certified: bool, lhs: MultiPoly, rhs: MultiPoly):
        self._assign(z, v, j, k, l, i_list, certified, lhs, rhs)


def _recurrence_step(z: FpfInvolution) -> tuple[int, int, FpfInvolution, int]:
    """The descent step at the last visible descent k of z: (k, l, v, j) with
    l the largest index beyond k mapped under min(k, z(k)), v = (k,l)z(k,l)
    and j = v(k) < k."""
    descents = visible_descents(z)
    if not descents:
        raise ValueError("the base involution admits no recurrence step")
    k = descents[-1]
    bound = min(k, z(k))
    l = max(t for t in range(k + 1, z.support + 1) if z(t) < bound)
    v = z.conj_transposition(k, l)
    j = v(k)
    if v(j) != k or not j < k:
        raise RuntimeError(f"no 2-cycle (j, {k}) with j < {k} below {z!r}")
    return k, l, v, j


def sp_transition_recurrence(z: FpfInvolution) -> RecurrenceCheck:
    """Descend from z by the step (k, l, v, j) at its last visible descent
    k (see _recurrence_step) and certify

        beta * [z-polynomial] = (1+beta x_j)(1+beta x_k) *
            [v-polynomial through the i-factors] - [v-polynomial]

    and that the upward index list of (v, j, k) is exactly {l}.
    """
    k, l, v, j = _recurrence_step(z)
    I, L = fpf_transition_indices(v, j, k)
    asc_plus_ok = L == (l,)
    lhs = MultiPoly.beta() * sp_grothendieck(z)
    rhs = _sp_transition_left(v, j, k, I) - sp_grothendieck(v)
    certified = asc_plus_ok and lhs == rhs
    return RecurrenceCheck(z, v, j, k, l, I, certified, lhs, rhs)


def _is_beta_homogeneous(g: MultiPoly, ell: int) -> bool:
    """True when every term beta^b x^a of g has |a| - b = ell."""
    return all(sum(exps) - bp == ell for bp, exps, _ in g.iter_beta_terms())


def beta_rescale_check(w: Permutation) -> bool:
    """Check that rescaling x by -beta and specializing beta to -1 reproduces
    (-beta)^length times the generic polynomial.

    Comparing the powers of beta on each x-monomial shows that this holds
    exactly when every term beta^b x^a has |a| - b = length(w), which is
    what is tested."""
    return _is_beta_homogeneous(grothendieck(w), perm_length(w))
