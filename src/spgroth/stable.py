"""Stable limits, shifted set-valued tableaux, and triangular basis expansions.

Stable limits are isobaric long-word images pi_{w0}, taken over a parabolic
quotient: the shape series G_lam is pi_{w0} of x^lam, and the stable limit
of a permutation is pi_{w0} of its polynomial.  Every term of a family
polynomial has degree at least the length of its index, and an isobaric
step never lowers a degree, so a stable limit whose index is longer than
the window's degree bound is zero and is returned before any polynomial is
built.  Set-valued tableaux remain only for the shifted shape series
GP_lam: one generator, shifted_set_valued_tableaux, walks the tableaux and
folds each into a start value plus a weight per cell, so GP_lam gets each
tableau's packed monomial key for one add.  Per-cell letter caps keep each
cell to letters that the cells after it can still follow, so no branch of
the walk ends empty, and the last two cells come from memoized tables, so
the walk does its per-node work once per filling of the cells before them.
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
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache

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
    isobaric,
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


def _letter_caps(cells: list[tuple[int, int]], pools: list[tuple[int, ...]]) -> list[int]:
    """The largest letter each cell holds in some tableau, or 0 when it holds
    none.  Walking back from the last cell, a cell's cap is the largest
    letter m of its pool that leaves its right neighbour a letter >= m + (m &
    1) and its lower neighbour one >= m + 1 - (m & 1), diagonal or not, each
    at most that neighbour's cap.  Both bounds grow with m, so a partial
    tableau whose cells stay within their caps completes by filling each
    later cell with its cap alone, and no tableau passes a cap.  A cap of 0
    makes 0 the cap of the cells left of and above it, and every cell lies
    right of or below the first, so either every cap is positive or there
    is no tableau and every cap is 0."""
    index = {cell: t for t, cell in enumerate(cells)}
    # a missing neighbour points past the cells, at a cap that bounds nothing
    caps = [0] * len(cells) + [max(itertools.chain.from_iterable(pools), default=0) + 2]
    for t in reversed(range(len(cells))):
        i, j = cells[t]
        right = caps[index.get((i, j + 1), -1)]
        below = caps[index.get((i + 1, j), -1)]
        k = bisect_right(pools[t], min(right - (right & 1), below - 1 + (below & 1)))
        caps[t] = pools[t][k - 1] if k else 0
    return caps[:-1] if caps[0] else [0] * len(cells)


def shifted_set_valued_tableaux(shape: tuple[int, ...], nvars: int, max_weight: int,
                                weight, start):
    """Semistandard shifted set-valued tableaux of the strict shape with
    marked letters of value at most nvars and at most max_weight letters in
    total, folded: for each tableau, start + weight(S_1) + ... + weight(S_k)
    over its letter sets, cells read row by row from the diagonal (weight =
    lambda s: (s,) and start = () give the tableau itself).  Letters are
    marked: value v primed is 2v - 1 and unprimed is 2v, so integer order
    matches 1' < 1 < 2' < 2 < ...  Each cell holds a nonempty sorted tuple;
    along a row min(here) >= max(left), strictly when max(left) is primed;
    down a column min(here) >= max(above), strictly unless max(above) is
    primed; the diagonal holds no primed letter.  Tableaux come once each,
    in lexicographic order of their cell sequences, a cell's subsets ordered
    by size and then lexicographically.

    A stack of per-cell iterators, so deep shapes need no recursion.  Each
    cell takes letters up to its cap (_letter_caps), so every partial
    tableau completes.  A cell's subsets depend only on its lower bound and
    its letter budget, so those of each (cell, bound, budget) and their
    weights are built once per call and shared.  Each level keeps its
    running value, start plus the weights before it.  The stack stops at
    the next-to-last cell, the pair cell: the last cell's subsets depend
    only on the pair cell's bound and budget, its subset, and the largest
    letter of the last cell's upper neighbour when that neighbour comes
    before the pair cell.  So per such key a table lists, for each subset
    of the pair cell, its weight and the last cell's weights, and the two
    cells loop over it: one add per tableau."""
    shape = as_strict_partition(shape)
    cells = [(i, i + j) for i, part in enumerate(shape) for j in range(part)]
    ncells = len(cells)
    if ncells == 0:
        yield start
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
    stop = [bisect_right(pool, cap) for pool, cap in zip(pools, _letter_caps(cells, pools))]
    top = [0] * ncells + [-1]  # the largest letter of each chosen cell
    used = [0] * ncells  # letters in the cells before each cell
    value = [start] * ncells  # start plus the weights of the cells before each cell
    memo: dict[tuple[int, int, int], tuple[tuple, tuple]] = {}

    def bound(t: int) -> tuple[int, int, int]:
        # the cell, its lower bound and its letter budget
        m = top[left[t]]
        lo = m + 1 if m & 1 else m
        m = top[above[t]]
        if m >= lo:
            lo = m if m & 1 else m + 1
        return t, lo, max_weight - used[t] - (ncells - t - 1)

    def options(key: tuple[int, int, int]) -> tuple[tuple, tuple]:
        # the subsets' weights, and the subsets as (largest letter, size, weight)
        entry = memo.get(key)
        if entry is None:
            t, lo, budget = key
            pool = pools[t][bisect_left(pools[t], lo):stop[t]]
            subsets = tuple(itertools.chain.from_iterable(
                itertools.combinations(pool, size)
                for size in range(1, min(budget, len(pool)) + 1)))
            weights = tuple(map(weight, subsets))
            entry = memo[key] = weights, tuple(zip(map(max, subsets), map(len, subsets), weights))
        return entry

    last = ncells - 1
    if last == 0:
        for w in options(bound(0))[0]:
            yield start + w
        return
    pair = last - 1
    # the last cell's upper neighbour when it comes before the pair cell, or
    # the sentinel; a neighbour at the pair cell is read from each subset
    up = above[last] if above[last] < pair else ncells
    tables: dict[tuple[int, int, int, int], list[tuple]] = {}

    def prefixes():
        # the running value at the pair cell of each filling of the cells before it
        if pair == 0:
            yield start
            return
        stack = [iter(options(bound(0))[1])]
        while stack:
            t = len(stack) - 1
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            top[t], size, w = node
            used[t + 1] = used[t] + size
            value[t + 1] = value[t] + w
            if t + 1 < pair:
                stack.append(iter(options(bound(t + 1))[1]))
            else:
                yield value[pair]

    for running in prefixes():
        key = bound(pair) + (top[up],)
        table = tables.get(key)
        if table is None:
            table = tables[key] = []
            for top[pair], size, w in options(key[:3])[1]:
                used[last] = used[pair] + size
                table.append((w, options(bound(last))[0]))
        for w1, weights in table:
            running1 = running + w1
            for w in weights:
                yield running1 + w


def _letter_set_weight(nvars: int):
    """The packed-key offset of a letter set S in nvars variables, the key
    of beta^(|S| - 1) x^content(S) less that of 1.  Keys are linear while
    no field carries, so it is the sum of the units of S's letters, 2v - 1
    and 2v each adding that of beta x_v, less the unit of beta."""
    layout = _layout(nvars)
    # units[v] is the unit of beta x_v, and units[0] that of beta alone
    units = [layout.pack(1, tuple(int(j == v) for j in range(1, nvars + 1))) - layout.zero
             for v in range(nvars + 1)]
    return lambda subset: sum(units[(m + 1) // 2] for m in subset) - units[0]


def gp_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """Shifted set-valued tableau generating function for the strict shape,
    truncated at the window: the sum of beta^(letters - |lam|) x^content,
    where the letters 2v - 1 and 2v count towards x_v.  Zero when lam has
    more parts than nvars, since the diagonal strictly increases, or when
    |lam| exceeds maxdeg, since every cell holds a letter.

    The walk folds each tableau into its packed key: the key of 1 plus, per
    cell, the offset of its letter set (_letter_set_weight), as keys are
    linear in their fields while none carries.  A value is unprimed at most
    once per column and primed at most once per row, so an exponent is at
    most 2 lam_1; lam_1 > EXP_MAX raises at once, as the row filling (row i
    all i) gives the term x^lam.  Tableaux stop one beta power past
    BETA_MAX, which some tableau reaches if any passes it, since dropping a
    letter from a cell of two keeps a tableau.  One range check then covers
    every key."""
    lam = as_strict_partition(lam)
    n = win.nvars
    if len(lam) > n or sum(lam) > win.maxdeg:
        return MultiPoly.zero(n)
    if lam and lam[0] > EXP_MAX:
        raise ExponentRangeError(f"exponent {lam[0]}")
    layout = _layout(n)
    max_weight = min(win.maxdeg, sum(lam) + BETA_MAX + 1)
    terms = dict(Counter(shifted_set_valued_tableaux(lam, n, max_weight,
                                                     _letter_set_weight(n), layout.zero)))
    layout.check(terms)
    return MultiPoly._raw(n, terms)


# ---------------------------------------------------------------------------
# stable limits through isobaric operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _quotient_word(cuts: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    """A reduced word of u = w0 * w0_J in S_n, n = cuts[-1], less its left
    factor in <s_nvars, ..., s_{n-1}>; w0_J reverses each block between
    consecutive cuts (0 = cuts[0] < ... < cuts[-1] = n).  pi_j fixes a
    polynomial symmetric in x_j, x_{j+1}, so pi_{w0} acts as pi_u on one
    symmetric inside every block.  pi_k with k >= nvars is the identity
    modulo (x_{nvars+1}, ..., x_n) and maps that ideal into itself, so the
    factor is invisible in nvars variables; without it, u lists its values
    from nvars on in increasing order.  All cuts and nvars = n give the
    long word."""
    w0_J = Permutation.from_oneline(v for a, b in zip(cuts, cuts[1:]) for v in range(b, a, -1))
    high = iter(range(nvars, cuts[-1] + 1))
    u = (Permutation.longest(cuts[-1]) * w0_J).oneline
    return reduced_word(Permutation.from_oneline(next(high) if v >= nvars else v for v in u))


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
    return _apply_pi_truncated(_quotient_word(cuts, n), MultiPoly.monomial(exps), win.maxdeg)


def stable_groth_perm(w: Permutation, win: Window) -> MultiPoly:
    """Stable limit of the permutation family at the window: the isobaric
    long-word image pi_{w0} of the polynomial, computed in n = max(nvars,
    support) variables and then restricted.  Only the parabolic quotient
    u = w0 * w0_J of the long word is applied, J the ascents of w in 1..n-1
    (the polynomial is symmetric at each ascent, where the isobaric operator
    acts as the identity), less the left factor of u in the steps from
    nvars on, which the restriction cannot see.  Exact at the window; zero
    when the length of w exceeds maxdeg, since every term of the polynomial
    has degree at least that length."""
    if perm_length(w) > win.maxdeg:
        return MultiPoly.zero(win.nvars)
    n = max(win.nvars, w.support)
    word = _quotient_word((0, *w.descents(), n), win.nvars)
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
