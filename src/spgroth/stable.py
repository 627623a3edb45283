"""Stable limits, shifted set-valued tableaux, and triangular basis expansions.

Stable limits are isobaric long-word images pi_{w0}, taken over a parabolic
quotient: the shape series G_lam is pi_{w0} of x^lam, and the stable limit
of a permutation is pi_{w0} of its polynomial.  Every term of a family
polynomial has degree at least the length of its index, and an isobaric
step never lowers a degree, so a stable limit whose index is longer than
the window's degree bound is zero and is returned before any polynomial is
built.  Set-valued tableaux remain only for the shifted shape series
GP_lam: one generator, shifted_set_valued_tableaux, yields each tableau as
a tuple of letter sets and shares each cell's list of allowed subsets
between the nodes that ask for it; GP_lam counts each tableau under its
packed monomial key, a sum of per-cell offsets, with no decoding.
Ordinary set-valued tableaux are the test oracle for G_lam and live in the
tests.

Symmetric-series identities are always asserted "at a window": in the
variables x_1..nvars, modulo terms of total degree above maxdeg.  Expansion
coefficients are exact for shapes of size at most maxdeg fitting inside
nvars rows (or parts); everything beyond that region is censored by the
window and is not reported.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from functools import cache, lru_cache

from ._frozen import _Frozen
from .coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    as_partition,
    as_strict_partition,
    fpf_length,
    fpf_transition_indices,
    is_fpf_grassmannian,
    partitions_of,
    perm_length,
    reduced_word,
    sp_shape,
)
from .grothendieck import (
    Expansion,
    _combination,
    _recurrence_step,
    _transposition_products,
    expand_in_grothendieck_basis_censored,
    grothendieck,
    sp_grothendieck,
)
from .polyring import (
    BETA_MAX,
    EXP_MAX,
    BetaInt,
    ExponentRangeError,
    MultiPoly,
    _layout,
    apply_word,
    isobaric,
    oplus,
    symmetrize_check,
    truncate,
)


class Window(_Frozen):
    """Finite probe of a symmetric power series: number of variables and a
    total-degree bound."""

    __slots__ = ("nvars", "maxdeg")

    def __init__(self, nvars: int, maxdeg: int):
        if nvars < 1 or maxdeg < 1:
            raise ValueError("window needs nvars >= 1 and maxdeg >= 1")
        self._assign(nvars, maxdeg)

    def clip(self, f: MultiPoly) -> MultiPoly:
        return truncate(f.restrict(self.nvars) if f.nvars > self.nvars else f,
                        self.maxdeg)


# ---------------------------------------------------------------------------
# shifted set-valued tableaux
# ---------------------------------------------------------------------------


def shifted_set_valued_tableaux(shape: tuple[int, ...], nvars: int, max_weight: int):
    """Semistandard shifted set-valued tableaux of the strict shape with
    marked letters of value at most nvars and at most max_weight letters in
    total.  Letters are marked: value v primed is 2v - 1 and unprimed is 2v,
    so integer order matches 1' < 1 < 2' < 2 < ...  Each cell holds a
    nonempty set; along a row min(here) >= max(left), strictly when
    max(left) is primed; down a column min(here) >= max(above), strictly
    unless max(above) is primed; the diagonal holds no primed letter.
    Yields each tableau as a tuple of sorted letter tuples, one per cell,
    cells read row by row from the diagonal.  Each tableau comes once, in
    lexicographic order of its cell sequence, a cell's subsets ordered by
    size and then lexicographically.

    Iterative: a stack of per-cell subset iterators, so deep shapes need no
    recursion.  A cell's allowed subsets depend only on its lower bound and
    its letter budget (letters left after the cells before it, less one for
    each cell after it), so the tuple for each (cell, lower bound, budget)
    is built once and shared by every node that asks for it; the memo is
    local to the call and freed with the generator.  The last cell is a
    plain loop over its tuple, with no stack push per tableau, and each
    tableau extends a tuple of the other cells made once per parent."""
    shape = as_strict_partition(shape)
    cells = [(i, i + j) for i, part in enumerate(shape) for j in range(part)]
    ncells = len(cells)
    if ncells == 0:
        yield ()
        return
    if max_weight < ncells:
        return
    index = {cell: t for t, cell in enumerate(cells)}
    # a missing neighbour points past the cells, at a sentinel letter -1,
    # which is primed and so bounds neither a row nor a column
    left = [index.get((i, j - 1), ncells) for i, j in cells]
    above = [index.get((i - 1, j), ncells) for i, j in cells]
    letters = tuple(range(1, 2 * nvars + 1))
    pools = [letters[1::2] if i == j else letters for i, j in cells]
    chosen: list[tuple[int, ...]] = [()] * ncells + [(-1,)]
    used = [0] * ncells  # letters in the cells before each cell
    memo: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}

    def options(t: int) -> tuple[tuple[int, ...], ...]:
        m = chosen[left[t]][-1]
        lo = m + 1 if m & 1 else m
        m = chosen[above[t]][-1]
        if m >= lo:
            lo = m if m & 1 else m + 1
        key = (t, lo, max_weight - used[t] - (ncells - t - 1))
        subsets = memo.get(key)
        if subsets is None:
            pool = pools[t][bisect_left(pools[t], lo):]
            subsets = memo[key] = tuple(itertools.chain.from_iterable(
                itertools.combinations(pool, size)
                for size in range(1, min(key[2], len(pool)) + 1)))
        return subsets

    last = ncells - 1
    if last == 0:
        for subset in options(0):
            yield (subset,)
        return
    stack = [iter(options(0))]
    while stack:
        t = len(stack) - 1
        subset = next(stack[-1], None)
        if subset is None:
            stack.pop()
            continue
        chosen[t] = subset
        used[t + 1] = used[t] + len(subset)
        if t + 1 < last:
            stack.append(iter(options(t + 1)))
            continue
        leaves = options(last)
        if leaves:
            prefix = tuple(chosen[:last])
            for leaf in leaves:
                yield prefix + (leaf,)


def gp_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """Shifted set-valued tableau generating function for the strict shape,
    truncated at the window: the sum of beta^(letters - |lam|) x^content,
    where the letters 2v - 1 and 2v count towards x_v.  Zero when lam has
    more parts than nvars, since the diagonal strictly increases, or when
    |lam| exceeds maxdeg, since every cell holds a letter.

    Each tableau is counted under its packed key, the key of 1 plus its
    cells' offsets, and no field carries: the offset of a cell's letter set
    S is the key of beta^(|S| - 1) x^content(S) less that of 1, made once
    per call, and keys are linear in their fields while none carries.  A value
    is unprimed at most once per column and primed at most once per row, so
    an exponent is at most 2 lam_1; lam_1 > EXP_MAX raises at once, as the
    row filling (row i all i) gives the term x^lam.  Tableaux stop one beta
    power past BETA_MAX, which some tableau reaches if any passes it, since
    dropping a letter from a cell of two keeps a tableau.  One range check
    then covers every key."""
    lam = as_strict_partition(lam)
    n = win.nvars
    if len(lam) > n or sum(lam) > win.maxdeg:
        return MultiPoly.zero(n)
    if lam and lam[0] > EXP_MAX:
        raise ExponentRangeError(f"exponent {lam[0]}")
    layout = _layout(n)

    @cache
    def offset(subset: tuple[int, ...]) -> int:
        exps = [0] * n
        for m in subset:
            exps[(m - 1) // 2] += 1
        return layout.pack(len(subset) - 1, tuple(exps)) - layout.zero

    max_weight = min(win.maxdeg, sum(lam) + BETA_MAX + 1)
    terms = dict(Counter(sum(map(offset, tab), layout.zero)
                         for tab in shifted_set_valued_tableaux(lam, n, max_weight)))
    layout.check(terms)
    return MultiPoly._raw(n, terms)


# ---------------------------------------------------------------------------
# stable limits through isobaric operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _quotient_word(cuts: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word of u = w0 * w0_J in S_n, n = cuts[-1], where w0_J
    reverses each block of positions between consecutive cuts (0 = cuts[0]
    < ... < cuts[-1] = n).  A polynomial symmetric in x_j, x_{j+1} inside
    every block is fixed by pi_j there, so pi_{w0} = pi_u pi_{w0_J} acts on
    it as pi_u.  Cutting at every position gives the long word."""
    w0_J = Permutation.from_oneline(v for a, b in zip(cuts, cuts[1:]) for v in range(b, a, -1))
    return reduced_word(Permutation.longest(cuts[-1]) * w0_J)


def _apply_pi_truncated(word: tuple[int, ...], f: MultiPoly, maxdeg: int) -> MultiPoly:
    # isobaric steps never move high degrees downward, so clipping every
    # step as it writes is exact for the final truncation; the first
    # truncate clips the input and rejects Laurent input
    f = truncate(f, maxdeg)
    for i in reversed(word):
        f = isobaric(i, f, maxdeg)
    return f


def stable_groth_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """Shape series at the window: the isobaric long-word image pi_{w0} of
    x^lam in nvars variables, zero when lam has more rows than nvars or
    |lam| exceeds maxdeg, since the series has no term below degree |lam|.
    x^lam is symmetric wherever parts repeat (trailing zeros included), so
    only the quotient w0 * w0_J acts, J the blocks of equal parts."""
    lam = as_partition(lam)
    n = win.nvars
    if len(lam) > n or sum(lam) > win.maxdeg:
        return MultiPoly.zero(n)
    exps = lam + (0,) * (n - len(lam))
    cuts = (0, *(j for j in range(1, n) if exps[j - 1] > exps[j]), n)
    return _apply_pi_truncated(_quotient_word(cuts), MultiPoly.monomial(exps), win.maxdeg)


def stable_groth_perm(w: Permutation, win: Window) -> MultiPoly:
    """Stable limit of the permutation family at the window: the isobaric
    long-word image pi_{w0} of the polynomial, computed in n = max(nvars,
    support) variables and then restricted.  Only the parabolic quotient
    u = w0 * w0_J of the long word is applied, J the ascents of w in
    1..n-1: the polynomial is symmetric at each ascent, where the isobaric
    operator acts as the identity.  Exact at the window; zero when the
    length of w exceeds maxdeg, since every term of the polynomial has
    degree at least that length."""
    if perm_length(w) > win.maxdeg:
        return MultiPoly.zero(win.nvars)
    n = max(win.nvars, w.support)
    word = _quotient_word((0, *w.descents(), n))
    f = _apply_pi_truncated(word, grothendieck(w).embed(n), win.maxdeg)
    return f.restrict(win.nvars)


@lru_cache(maxsize=256)
def _gp_sp_cached(oneline: tuple[int, ...], nvars: int, maxdeg: int) -> MultiPoly:
    win = Window(nvars, maxdeg)
    expansion = expand_in_grothendieck_basis_censored(
        sp_grothendieck(FpfInvolution(oneline)), maxdeg)
    return _combination(lambda w: stable_groth_perm(w, win), expansion.as_dict(), nvars)


def gp_sp(z: FpfInvolution, win: Window) -> MultiPoly:
    """Symplectic stable limit at the window, by expanding in the
    permutation basis and stabilizing term by term.  Coefficients on indices
    of length above maxdeg are censored; their stable images vanish at the
    window.  The terms are window values, so their sum is one too.  Zero
    when the fpf length of z exceeds maxdeg, since every term of the
    polynomial has degree at least that length.  The recurrences ask for
    the same (z, window) many times, so the last few hundred results are
    kept."""
    if fpf_length(z) > win.maxdeg:
        return MultiPoly.zero(win.nvars)
    return _gp_sp_cached(z.oneline, win.nvars, win.maxdeg)


def _gp_operand(lam: tuple[int, ...], n: int) -> MultiPoly:
    """x^lam times the product over rows i and columns j > i of
    (x_i (+) x_j) / x_i, as a Laurent polynomial in n variables."""
    r = len(lam)
    exps = list(lam) + [0] * (n - len(lam))
    f = MultiPoly.monomial(tuple(exps))
    inverse_x = {i: MultiPoly.x(i, n, power=-1) for i in range(1, r + 1)}
    for i in range(1, r + 1):
        for j in range(i + 1, n + 1):
            f = f * oplus(MultiPoly.x(i, n), MultiPoly.x(j, n)) * inverse_x[i]
    return f


def gp_via_pi_formula(lam: tuple[int, ...], n: int) -> MultiPoly:
    """Isobaric long-word image of the shifted-shape operand; the result is
    asserted to be a polynomial."""
    lam = as_strict_partition(lam)
    if len(lam) > n:
        raise ValueError("shape has more parts than variables")
    f = apply_word(isobaric, _quotient_word(tuple(range(n + 1))), _gp_operand(lam, n))
    if f.has_negative_exponents():
        raise RuntimeError("isobaric image failed to be a polynomial")
    return f


# ---------------------------------------------------------------------------
# triangular expansions into the shape-indexed bases
# ---------------------------------------------------------------------------


def _triangular_expand(f: MultiPoly, win: Window, strict: bool, basis) -> Expansion:
    """Expand a window-symmetric polynomial over the shapes that fit the
    window: the partitions (strict ones when strict) of size at most maxdeg
    with at most nvars parts.  partitions_of lists them by increasing size,
    then in descending lexicographic order (a linear extension of
    dominance, most dominant first); the pivot is the coefficient of the
    shape monomial itself, and basis(lam, win) the basis element."""
    if not symmetrize_check(f, win.nvars, win.maxdeg):
        raise ValueError("input is not symmetric at the window")
    rem = win.clip(f)
    found = []
    for size in range(win.maxdeg + 1):
        for lam in partitions_of(size, win.nvars, strict):
            c = rem.coefficient(lam)
            if c:
                found.append((lam, c))
                # rem and every basis element are window values already
                rem = rem - basis(lam, win) * c
    if rem:
        raise ValueError(
            "nonzero in-window remainder: input is not in the basis span at "
            f"this window (left: {rem.canonical_text()})")
    return Expansion(tuple(found))


def expand_in_G_basis(f: MultiPoly, win: Window) -> Expansion:
    """Expand a window-symmetric polynomial over partition shapes.  Exact
    for shapes of size <= maxdeg with at most nvars rows."""
    return _triangular_expand(f, win, False, stable_groth_partition)


def expand_in_GP_basis(f: MultiPoly, win: Window) -> Expansion:
    """Expand a window-symmetric polynomial over strict shapes.  Exact for
    shapes of size <= maxdeg with at most nvars parts."""
    return _triangular_expand(f, win, True, gp_partition)


# ---------------------------------------------------------------------------
# stable identities
# ---------------------------------------------------------------------------


def verify_f_grass(z: FpfInvolution, win: Window) -> bool:
    """Grassmannian-type involutions stabilize to the shape series of their
    symplectic shape."""
    if is_fpf_grassmannian(z) is None:
        raise ValueError(f"{z!r} is not FPF-Grassmannian")
    return gp_sp(z, win) == gp_partition(sp_shape(z), win)


def _gp_combination(terms: dict, win: Window) -> MultiPoly:
    """Window value of the sum of c * (series of y) over {y: c}; the terms
    are window values already.  The stable series is invariant under the
    even shift, so the series of the base stands in for each y."""
    return _combination(lambda y: gp_sp(y.base, win), terms, win.nvars)


def _unframe(terms: dict, d: int) -> dict:
    """Read {u: c} over a frame of offset d as Z-indexed involutions."""
    return {ShiftedFpfInvolution(u, d): c for u, c in terms.items()}


def verify_stable_sp_transition(v: ShiftedFpfInvolution, j: int, k: int, win: Window) -> bool:
    """Stable two-sided transition for a Z-indexed 2-cycle v(j) = k: compare
    the window values of both operator products.

    The products are the finite ones on a frame, a positive representative
    with two spare indices below both j and the support; covers reach no
    further down, and the stable series ignores the shift."""
    if v.value(j) != k or not j < k:
        raise ValueError(f"need v({j}) = {k} with j < k")
    y, d = v.with_headroom(min(j, v.min_support()) - 2)
    I, L = fpf_transition_indices(y, j + d, k + d)
    conj = FpfInvolution.conj_transposition
    lhs = _transposition_products(y, j + d, I, conj)
    rhs = _transposition_products(y, k + d, L, conj)
    return (_gp_combination(_unframe(lhs, d), win)
            == _gp_combination(_unframe(rhs, d), win))


class GPRecurrenceCertificate(_Frozen):
    __slots__ = ("z", "v", "j", "k", "l", "i_list", "terms", "verified")

    def __init__(self, z: ShiftedFpfInvolution, v: ShiftedFpfInvolution, j: int, k: int,
                 l: int, i_list: tuple[int, ...],
                 terms: tuple[tuple[ShiftedFpfInvolution, BetaInt], ...], verified: bool):
        self._assign(z, v, j, k, l, i_list, terms, verified)


def gp_sp_positive_recurrence(z: ShiftedFpfInvolution | FpfInvolution,
                              win: Window) -> GPRecurrenceCertificate:
    """Positive recurrence at the last visible descent: the stable series of
    z is the sum over nonempty subsets A of the downward cover list of
    beta^(|A|-1) times the series of the A-shifted involution.  The
    certificate lists each shifted involution with its summed coefficient.

    The descent step and the cover list are the finite ones on a frame with
    two spare indices below the support; the certificate reads them back on
    Z."""
    if isinstance(z, FpfInvolution):
        z = ShiftedFpfInvolution(z)
    y, d = z.with_headroom(z.min_support() - 2)
    k, l, v, j = _recurrence_step(y)
    I, _ = fpf_transition_indices(v, j, k)
    # (prod - 1) / beta: drop the empty subset, then one beta from each term
    terms = _transposition_products(v, j, I, FpfInvolution.conj_transposition)
    terms[v] -= 1
    terms = _unframe({u: BetaInt(c.coeffs[1:]) for u, c in terms.items() if c}, d)
    # the stable series is invariant under the even shift
    verified = _gp_combination(terms, win) == gp_sp(z.base, win)
    return GPRecurrenceCertificate(
        z, ShiftedFpfInvolution(v, d), j - d, k - d, l - d,
        tuple(i - d for i in I), tuple(terms.items()), verified)
