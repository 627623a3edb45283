"""Shared oracles and generators for the test suite.

Everything here is deliberately brute force and independent of the library
code paths it checks.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from functools import cache

from spgroth.coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    as_partition,
    as_strict_partition,
    dearc,
    fpf_cover_up,
    is_fpf_grassmannian,
    perm_length,
    permutation_from_code,
    reduced_word,
    sp_rothe_diagram,
    sp_shape,
    theta,
)
from spgroth.grothendieck import ExpansionDegreeError, grothendieck, schubert, sp_grothendieck
from spgroth.polyring import (
    BETA_MAX,
    EXP_MAX,
    EXP_MIN,
    BetaInt,
    ExponentRangeError,
    MultiPoly,
    _add_multiple,
    _layout,
    apply_word,
    beta_divided_diff,
    divided_diff,
    isobaric,
    oplus,
    truncate,
)
from spgroth.stable import Window


def oracle_inversions(word) -> int:
    word = tuple(word)
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


def oracle_length_of(perm: Permutation, upto: int | None = None) -> int:
    n = upto or perm.support
    return oracle_inversions([perm(i) for i in range(1, n + 1)])


def oracle_lex_least_reduced_word(w: Permutation) -> tuple[int, ...]:
    """Exhaustive search over words of the right length, smallest alphabet
    first, returning the lexicographically least product equal to w."""
    target_len = oracle_length_of(w)
    top = max(w.support, 2)
    for word in itertools.product(range(1, top), repeat=target_len):
        v = Permutation.identity()
        for i in word:
            v = v * Permutation.s(i)
        if v == w:
            return word
    raise AssertionError("no reduced word found")


def oracle_fpf_length(z: FpfInvolution, pad: int = 0) -> int:
    n = z.support + pad
    return sum(1 for j in range(1, n + 1) for i in range(1, j)
               if z(j) < i and z(i) > z(j))


def oracle_min_conjugating_length(z: FpfInvolution, n: int) -> int:
    """min length of w in S_n with w^{-1} theta w = z, by exhaustive search."""
    best = None
    for word in itertools.permutations(range(1, n + 1)):
        w = Permutation.from_oneline(word)
        winv = w.inverse()
        if all(winv(theta(w(i))) == z(i) for i in range(1, n + 1)):
            l = oracle_inversions(word)
            best = l if best is None else min(best, l)
    return best


def conj_by_transposition(z: FpfInvolution, i: int, j: int) -> FpfInvolution:
    """(i,j) z (i,j) by composing the three maps on 1..n, n an even bound
    past i, j and the support, with z read off its word and theta."""
    def t(x):
        return j if x == i else i if x == j else x

    def zz(x):
        return z.oneline[x - 1] if x <= z.support else theta(x)

    n = max(z.support, i, j) + 2
    n += n % 2
    return FpfInvolution.from_oneline(t(zz(t(x))) for x in range(1, n + 1))


@cache
def _oracle_groth(oneline: tuple[int, ...]) -> MultiPoly:
    w = Permutation(oneline)
    m = w.support
    if m <= 1:
        return MultiPoly.one(1)
    if w == Permutation.longest(m):
        return MultiPoly.monomial(tuple(m - 1 - t for t in range(m)))
    i = next(i for i in range(1, m) if w(i) < w(i + 1))
    return beta_divided_diff(i, _oracle_groth(w.times_s(i).oneline).embed(m))


def oracle_grothendieck(w: Permutation) -> MultiPoly:
    """The permutation family by its definition: the staircase monomial at
    the reversal of the support, then beta divided differences down the
    first-ascent chain.  Carries the library's nvars convention (the
    support, or 1 for the identity)."""
    return _oracle_groth(w.oneline)


@cache
def _oracle_sp_groth(oneline: tuple[int, ...]) -> MultiPoly:
    z = FpfInvolution(oneline)
    m = max(z.support, 2)
    if z == (FpfInvolution.top(m) if z.support else FpfInvolution.theta_involution()):
        f = MultiPoly.one(m - 1)
        for i in range(1, m):
            for j in range(i + 1, m - i + 1):
                f = f * oplus(MultiPoly.x(i, m - 1), MultiPoly.x(j, m - 1))
        return f
    i = next(i for i in range(1, m) if z(i) < z(i + 1))
    return beta_divided_diff(i, _oracle_sp_groth(z.conj_s(i).oneline).embed(m))


def oracle_sp_grothendieck(z: FpfInvolution) -> MultiPoly:
    """The symplectic family by its definition: the dense product over the
    staircase at n...321, then beta divided differences down the
    first-ascent chain.  Carries the library's nvars convention (m - 1 for
    n...321 and theta, else the support)."""
    return _oracle_sp_groth(z.oneline)


def oracle_product(factors, nvars: int) -> MultiPoly:
    """The product by the generic kernel, one factor at a time."""
    f = MultiPoly.one(nvars)
    for g in factors:
        f = f * g
    return f


def oracle_sp_dominant_poly(z: FpfInvolution, nvars: int | None = None) -> MultiPoly:
    """The closed product over the diagram as a chain of generic products,
    one x_i (+) x_j at a time, in the library's variable count."""
    cells = sorted(sp_rothe_diagram(z))
    n = max((i for i, _ in cells), default=1) if nvars is None else nvars
    return oracle_product([oplus(MultiPoly.x(i, n), MultiPoly.x(j, n)) for i, j in cells], n)


def _oracle_schubert_level(bottom: MultiPoly) -> dict[Permutation, BetaInt]:
    """A homogeneous polynomial as a Z[beta]-combination of Schubert
    polynomials of its degree: peel the pivot named by the code of the
    lexicographically least exponent vector until nothing is left."""
    found: dict[Permutation, BetaInt] = {}
    work = MultiPoly._raw(bottom.nvars, dict(bottom.terms))  # reduced in place
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise RuntimeError("schubert extraction failed to terminate")
        exps = min(work.x_monomials())
        w = permutation_from_code(exps)
        rw = reduced_word(w)
        ambient = max(work.nvars, max(rw) + 1 if rw else 1)
        c = apply_word(divided_diff, rw, work.embed(ambient)).constant_term()
        if c != work.coefficient(exps):
            raise RuntimeError(f"pivot extraction mismatch at {w!r}")
        found[w] = c
        s = schubert(w)
        if s.nvars > work.nvars:
            work = work.embed(s.nvars)
        _add_multiple(work.terms, work.nvars, s, -c)
    return found


def oracle_expand_groth(f: MultiPoly, max_deg: int, censor: bool):
    """The permutation-basis expansion as two nested loops: each pass
    expands the whole lowest-degree part of the remainder in Schubert
    polynomials, then takes the matching Grothendieck polynomials off the
    remainder.  With censor the loop stops quietly at max_deg; otherwise
    passing it raises ExpansionDegreeError.  Returns the nonzero terms,
    ordered by length and then one-line word."""
    if f.has_negative_exponents():
        raise ValueError("expansion requires a polynomial")
    rem = MultiPoly._raw(f.nvars, dict(f.terms))  # reduced in place
    found: dict[Permutation, BetaInt] = {}
    while rem:
        d = rem.min_degree()
        if d > max_deg:
            if censor:
                break
            raise ExpansionDegreeError(
                f"expansion exceeded max_deg={max_deg} (bottom degree {d})", rem)
        for w, c in _oracle_schubert_level(rem.degree_part(d)).items():
            found[w] = c
            g = grothendieck(w)
            if g.nvars > rem.nvars:
                rem = rem.embed(g.nvars)
            _add_multiple(rem.terms, rem.nvars, g, -c)
    return tuple(sorted(((w, c) for w, c in found.items() if c),
                        key=lambda it: (perm_length(it[0]), it[0].oneline)))


def oracle_is_sp_dominant(z: FpfInvolution) -> bool:
    """Sp-dominance read off the diagram as a set of cells: the nonempty
    columns are 1..k, column j holds exactly rows j+1 .. j+mu_j, and mu is
    a strict partition."""
    cols: dict[int, set[int]] = {}
    for i, j in sp_rothe_diagram(z):
        cols.setdefault(j, set()).add(i)
    if set(cols) != set(range(1, len(cols) + 1)):
        return False
    mu = [len(cols[j]) for j in range(1, len(cols) + 1)]
    return (all(cols[j] == set(range(j + 1, j + mu[j - 1] + 1)) for j in cols)
            and all(mu[t] > mu[t + 1] for t in range(len(mu) - 1)))


def fpf_ascents(z: FpfInvolution) -> list[int]:
    """The i < max(support, 2) with z(i) < z(i + 1): the conjugations the
    symplectic family climbs by."""
    return [i for i in range(1, max(z.support, 2)) if z(i) < z(i + 1)]


def oracle_sp_dominance_distance(z: FpfInvolution) -> int:
    """Fewest ascent conjugations from z to an Sp-dominant involution, by a
    breadth-first search that stops at the first level holding one."""
    level, steps = {z}, 0
    while not any(oracle_is_sp_dominant(y) for y in level):
        level = {y.conj_s(i) for y in level for i in fpf_ascents(y)}
        steps += 1
        if not level:
            raise AssertionError(f"no Sp-dominant involution above {z!r}")
    return steps


def _long_word(n: int) -> tuple[int, ...]:
    return reduced_word(Permutation.longest(n))


def _truncate_each_step(word: tuple[int, ...], f: MultiPoly, maxdeg: int) -> MultiPoly:
    """The isobaric word applied to f (rightmost index first), with a
    separate truncate after every unclipped isobaric step."""
    f = truncate(f, maxdeg)
    for i in reversed(word):
        f = truncate(isobaric(i, f), maxdeg)
    return f


def long_word_stable_groth_perm(w: Permutation, win: Window) -> MultiPoly:
    """The stable limit of the permutation family through the whole long
    word of max(nvars, support), truncated after every isobaric step, then
    restricted to the window's variables."""
    n = max(win.nvars, w.support)
    f = _truncate_each_step(_long_word(n), grothendieck(w).embed(n), win.maxdeg)
    return f.restrict(win.nvars)


def long_word_stable_groth_partition(lam: tuple[int, ...], n: int) -> MultiPoly:
    """The shape series in n variables as the untruncated isobaric image of
    x^lam through the whole long word."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("shape has more rows than variables")
    return apply_word(isobaric, _long_word(n), MultiPoly.monomial(lam + (0,) * (n - len(lam))))


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
    """The shifted shape series in n variables as the untruncated isobaric
    image of the shifted operand through the whole long word; the result
    is asserted to be a polynomial."""
    lam = as_strict_partition(lam)
    if len(lam) > n:
        raise ValueError("shape has more parts than variables")
    f = apply_word(isobaric, _long_word(n), _gp_operand(lam, n))
    if f.has_negative_exponents():
        raise RuntimeError("isobaric image failed to be a polynomial")
    return f


def gp_sp_stabilized(z: FpfInvolution, win: Window) -> MultiPoly:
    """The symplectic stable limit through the whole long word of growing n,
    until the window agrees twice, within 8 extra variables; a third
    agreement is checked."""
    n = max(win.nvars, z.support, 2)
    max_extra = 8
    values = []
    for extra in range(max_extra + 1):
        f = _truncate_each_step(_long_word(n + extra), sp_grothendieck(z).embed(n + extra),
                                win.maxdeg)
        values.append(win.clip(f))
        if len(values) >= 2 and values[-1] == values[-2]:
            g = _truncate_each_step(_long_word(n + extra + 1),
                                    sp_grothendieck(z).embed(n + extra + 1), win.maxdeg)
            if win.clip(g) != values[-1]:
                raise RuntimeError("window agreement was not stable")
            return values[-1]
    raise RuntimeError(f"no window stabilization within {max_extra} steps")


def sp_grassmannian_formula(z: FpfInvolution) -> MultiPoly:
    """The paper's closed isobaric formula for the symplectic polynomial of
    an FPF-Grassmannian involution, via its decoded (n, phi) data."""
    decoded = is_fpf_grassmannian(z)
    if decoded is None:
        raise ValueError(f"{z!r} is not FPF-Grassmannian")
    n, phis = decoded
    if not phis:
        return MultiPoly.one(1)
    # a trailing phi = n contributes a zero shape part but a real operator row
    lam = tuple(n - p for p in phis)
    f = _gp_operand(lam, n)
    for t in range(len(phis), 0, -1):
        for i in range(t, phis[t - 1]):
            f = isobaric(i, f)
    if f.has_negative_exponents():
        raise RuntimeError("isobaric image failed to be a polynomial")
    return f


# -- flagged Hecke-word sums ---------------------------------------------------
#
# Both finite families by their Hecke-word formulas, which call no operator
# of the kernel.  A flagged word of rank n is a = a^1 a^2 ... a^(n-1), each
# row a^r strictly decreasing in the letters r..n-1; it weighs
# x_1^|a^1| ... x_(n-1)^|a^(n-1)| times beta^(|a| - length of its index),
# and its index is where its letters carry a start state, one at a time.


def _flagged_words(n: int):
    """(letters, row lengths) of each of the 2^(n(n-1)/2) flagged words of
    rank n."""
    rows = [[tuple(reversed(subset)) for size in range(n - r + 1)
             for subset in itertools.combinations(range(r, n), size)]
            for r in range(1, n)]
    for choice in itertools.product(*rows):
        yield tuple(itertools.chain.from_iterable(choice)), tuple(map(len, choice))


def _flagged_sums(n: int, start: tuple[int, ...], act, length) -> dict:
    """{final state: its sum}: act(state, i) is the state after the letter
    i, or None where the word dies; length(state) is its index's length."""
    counts: dict = {}
    for word, sizes in _flagged_words(n):
        state = start
        for i in word:
            state = act(state, i)
            if state is None:
                break
        else:
            terms = counts.setdefault(state, {})
            key = (len(word), sizes)
            terms[key] = terms.get(key, 0) + 1
    nvars = max(n - 1, 1)
    pad = (0,) * (nvars - (n - 1))
    return {state: MultiPoly(nvars, {(size - length(state), sizes + pad): c
                                     for (size, sizes), c in terms.items()})
            for state, terms in counts.items()}


def _demazure_step(u: tuple[int, ...], i: int) -> tuple[int, ...]:
    """u * s_i where u(i) < u(i+1), else u."""
    if u[i - 1] > u[i]:
        return u
    return u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]


def _fpf_demazure_step(y: tuple[int, ...], i: int) -> tuple[int, ...] | None:
    """None where y(i) = i + 1, s_i y s_i where y(i) < y(i+1), else y."""
    if y[i - 1] == i + 1:
        return None
    if y[i - 1] > y[i]:
        return y

    def s(v: int) -> int:
        return i + 1 if v == i else i if v == i + 1 else v

    return tuple(s(y[s(v) - 1]) for v in range(1, len(y) + 1))


def flagged_hecke_groth(n: int) -> dict[Permutation, MultiPoly]:
    """G_w for every w in S_n: the sum over flagged words whose right
    Demazure product from the identity is w, at beta^(|a| - length(w))."""
    sums = _flagged_sums(n, tuple(range(1, n + 1)), _demazure_step, oracle_inversions)
    return {Permutation.from_oneline(u): f for u, f in sums.items()}


def flagged_hecke_sp_groth(n: int) -> dict[FpfInvolution, MultiPoly]:
    """The symplectic polynomial of every fpf involution of even rank n: the
    sum over flagged words that carry theta to z under the fpf Demazure
    action, at beta^(|a| - fpf length(z))."""
    theta_n = tuple(v + 1 if v % 2 else v - 1 for v in range(1, n + 1))
    sums = _flagged_sums(n, theta_n, _fpf_demazure_step,
                         lambda y: oracle_fpf_length(FpfInvolution.from_oneline(y)))
    return {FpfInvolution.from_oneline(y): f for y, f in sums.items()}


# -- partitions ----------------------------------------------------------------
#
# The two enumerators that partitions_of replaced.  Each bounds the largest
# part, not the number of parts, so the shape expansions had to transpose
# (G) or filter (GP) what they listed.


def oracle_partitions_of(n: int, max_part: int | None = None):
    """Partitions of n with parts at most max_part, in descending
    lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in oracle_partitions_of(n - first, first):
            yield (first,) + rest


def oracle_strict_partitions_of(n: int, max_part: int | None = None):
    """Strict partitions of n with parts at most max_part, in descending
    lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in oracle_strict_partitions_of(n - first, first - 1):
            yield (first,) + rest


# -- ordinary set-valued tableaux ---------------------------------------------
#
# The shape series G_lam by Buch's set-valued tableaux (Acta Math. 2002).
# They are the shifted filling rule of the library over unprimed letters
# only: the letter 2v stands for v, rows are weak and columns strict.


def oracle_set_valued_tableaux(shape: tuple[int, ...], nvars: int, max_weight: int):
    """Semistandard set-valued fillings of the partition shape with entries
    in 1..nvars and at most max_weight letters in total, each as a dict
    keyed by (row, col) of sorted tuples."""
    shape = as_partition(shape)
    cells = [(i, j) for i in range(1, len(shape) + 1) for j in range(1, shape[i - 1] + 1)]
    unprimed = tuple(range(2, 2 * nvars + 1, 2))
    for tab in oracle_fillings(cells, [unprimed] * len(cells), max_weight):
        yield {cell: tuple(m // 2 for m in subset) for cell, subset in tab.items()}


def oracle_stable_groth_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """The shape series at the window as the sum of beta^(letters - |lam|)
    x^content over the set-valued tableaux of at most maxdeg letters."""
    lam = as_partition(lam)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for tab in oracle_set_valued_tableaux(lam, win.nvars, win.maxdeg):
        exps = [0] * win.nvars
        for subset in tab.values():
            for v in subset:
                exps[v - 1] += 1
        key = (sum(exps) - sum(lam), tuple(exps))
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(win.nvars, counts)


# The tableau engine before its option lists were memoized: a stack of fresh
# per-cell subset iterators over any cells and letter pools, rebuilt at every
# node, and the shifted shape series summed over exponent lists.  Oracles
# for the order of the shifted tableaux, for the series, and the filler of
# the ordinary set-valued tableaux above.


def oracle_fillings(cells: list[tuple[int, int]], pools: list[tuple[int, ...]], max_weight: int):
    """Set-valued fillings of the cells (each after its left and upper
    neighbours) by nonempty subsets of their letter pools, with at most
    max_weight letters, under the marked-letter rules of the library's
    shifted_set_valued_tableaux and in its order: per cell a sorted tuple,
    as a dict keyed by cell."""
    ncells = len(cells)
    if ncells == 0:
        yield {}
        return
    if max_weight < ncells:
        return
    index = {cell: t for t, cell in enumerate(cells)}
    left = [index.get((i, j - 1)) for i, j in cells]
    above = [index.get((i - 1, j)) for i, j in cells]
    chosen: list[tuple[int, ...]] = [()] * ncells
    used = [0] * ncells  # letters in the cells before each cell

    def options(t: int):
        lo = 0
        if left[t] is not None:
            m = chosen[left[t]][-1]
            lo = m + 1 if m % 2 else m
        if above[t] is not None:
            m = chosen[above[t]][-1]
            lo = max(lo, m if m % 2 else m + 1)
        pool = pools[t][bisect_left(pools[t], lo):]
        budget = max_weight - used[t] - (ncells - t - 1)
        return itertools.chain.from_iterable(
            itertools.combinations(pool, size) for size in range(1, min(budget, len(pool)) + 1))

    last = ncells - 1
    stack = [options(0)]
    while stack:
        t = len(stack) - 1
        subset = next(stack[-1], None)
        if subset is None:
            stack.pop()
            continue
        chosen[t] = subset
        if t == last:
            yield dict(zip(cells, chosen))
        else:
            used[t + 1] = used[t] + len(subset)
            stack.append(options(t + 1))


def shifted_cells(lam: tuple[int, ...], nvars: int):
    """The cells of the strict shape, row by row from the diagonal, and
    their letter pools, as the library's shifted_set_valued_tableaux builds
    them: marked letters up to nvars, unprimed only on the diagonal."""
    lam = as_strict_partition(lam)
    cells = [(i, i + j - 1) for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]
    letters = tuple(range(1, 2 * nvars + 1))
    unprimed = letters[1::2]
    return cells, [letters if i != j else unprimed for i, j in cells]


@cache
def letter_set_offset(subset: tuple[int, ...], nvars: int) -> int:
    """The packed-key offset of a letter set in nvars variables, straight
    from pack: the key of beta^(|S| - 1) x^content(S) less that of 1, the
    letters 2v - 1 and 2v counting towards x_v."""
    exps = [0] * nvars
    for m in subset:
        exps[(m - 1) // 2] += 1
    layout = _layout(nvars)
    return layout.pack(len(subset) - 1, tuple(exps)) - layout.zero


def oracle_gp_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """The shifted shape series at the window as the sum of beta^(letters -
    |lam|) x^content over the shifted set-valued tableaux, one exponent list
    per tableau.  The tableaux come from oracle_fillings, on the cells and
    letter pools that the library's shifted_set_valued_tableaux builds."""
    lam = as_strict_partition(lam)
    weight = sum(lam)
    cells, pools = shifted_cells(lam, win.nvars)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for tab in oracle_fillings(cells, pools, win.maxdeg):
        exps = [0] * win.nvars
        size = 0
        for subset in tab.values():
            size += len(subset)
            for m in subset:
                exps[(m - 1) // 2] += 1
        key = (size - weight, tuple(exps))
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(win.nvars, counts)


# -- words and shapes ---------------------------------------------------------


def permutation_from_word(word) -> Permutation:
    w = Permutation.identity()
    for i in word:
        w = w * Permutation.s(i)
    return w


def shift_perm(m: int, w: Permutation) -> Permutation:
    """The permutation fixing 1..m and acting as w shifted up by m."""
    return Permutation.from_oneline(
        list(range(1, m + 1)) + [v + m for v in w.oneline])


def grassmannian_perm(lam: tuple[int, ...]) -> Permutation:
    """The unique permutation with at most one descent, at position
    len(lam), whose i-th value is i + lam[k - i] below the descent."""
    lam = as_partition(lam)
    k = len(lam)
    head = [i + lam[k - i] for i in range(1, k + 1)]
    rest = [v for v in range(1, (k + lam[0] if lam else 0) + 1) if v not in head]
    return Permutation.from_oneline(head + rest)


def oracle_is_fpf_grassmannian(z: FpfInvolution):
    """is_fpf_grassmannian with its two range checks on phi, which no
    involution fails."""
    arcs = dearc(z)
    if not arcs:
        return (0, ())
    firsts = tuple(a for a, _ in arcs)
    seconds = tuple(b for _, b in arcs)
    n = seconds[0] - 1
    r = len(arcs)
    if seconds != tuple(n + t for t in range(1, r + 1)):
        return None
    if not all(firsts[t] < firsts[t + 1] for t in range(r - 1)):
        return None
    if firsts[-1] > n or firsts[0] < 1:
        return None
    return (n, firsts)


def fpf_grassmannian_from_shape(lam: tuple[int, ...], n: int) -> FpfInvolution:
    """The involution whose dearc consists of the arcs (n - lam_i, n + i);
    inverse of is_fpf_grassmannian on its image.

    The positions of [n] not used by those arcs must pair among themselves,
    so the number of arcs matches the parity of n: when n - len(lam) is odd
    an extra arc (n, n + len(lam) + 1), contributing a zero shape part, is
    appended.  Decodes whose construction does not survive the arc-deletion
    round trip name no involution and raise ValueError.
    """
    lam = as_strict_partition(lam)
    if not lam:
        return FpfInvolution.theta_involution()
    if lam[0] >= n:
        raise ValueError(f"need lam[0] < n, got {lam} with n={n}")
    phis = tuple(n - l for l in lam)
    if (n - len(phis)) % 2:
        phis = phis + (n,)
    cycles = [(phi, n + t + 1) for t, phi in enumerate(phis)]
    leftover = [p for p in range(1, n + 1) if p not in phis]
    cycles.extend((leftover[t], leftover[t + 1]) for t in range(0, len(leftover), 2))
    z = FpfInvolution.from_cycles(cycles)
    if is_fpf_grassmannian(z) != (n, phis) or sp_shape(z) != lam:
        raise ValueError(f"no involution decodes to shape {lam} at n={n}")
    return z


def ascent_chain_to_top(z: FpfInvolution, n: int) -> tuple[int, ...]:
    """A word (i_1, ..., i_m) so that conjugating z by s_{i_1}, s_{i_2}, ...
    in turn raises the fpf length by one each step and ends at n...321.

    Deterministic rule: always conjugate at the least i with z(i) < z(i+1).
    """
    if n % 2:
        raise ValueError("need even n")
    if n < z.support:
        raise ValueError(f"n={n} below support {z.support}")
    word = []
    cur = z
    top = FpfInvolution.top(n) if n else FpfInvolution.theta_involution()
    while cur != top:
        i = next(i for i in range(1, n) if cur(i) < cur(i + 1))
        word.append(i)
        cur = cur.conj_s(i)
    return tuple(word)


def _oracle_groups(f: MultiPoly) -> list[tuple[tuple[int, ...], list[int]]]:
    """(exponents, dense beta coefficients) by increasing (total degree,
    exponents), built from iter_beta_terms() sorted by (sum(e), e, bp)."""
    groups: list[tuple[tuple[int, ...], list[int]]] = []
    for bp, exps, c in sorted(f.iter_beta_terms(), key=lambda t: (sum(t[1]), t[1], t[0])):
        if not groups or groups[-1][0] != exps:
            groups.append((exps, []))
        coeffs = groups[-1][1]
        coeffs.extend([0] * (bp + 1 - len(coeffs)))
        coeffs[bp] = c
    return groups


def oracle_canonical_text(f: MultiPoly) -> str:
    """The serializer by its definition: per x-monomial in the canonical
    order, the bracket form of its Z[beta] coefficient, then the x-factors."""
    parts = []
    for exps, coeffs in _oracle_groups(f):
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(exps) if e]
        parts.append(BetaInt(tuple(coeffs)).bracket()
                     + (" * " + " ".join(factors) if factors else ""))
    return " + ".join(parts) if parts else "0"


def oracle_json_obj(f: MultiPoly) -> list[dict]:
    """The JSON terms by their definition, in the same order."""
    return [{"exps": list(exps), "beta": coeffs} for exps, coeffs in _oracle_groups(f)]


def oracle_json_text(f: MultiPoly) -> str:
    """The JSON terms as the CLI's dump prints them: keys sorted, no spaces."""
    return json.dumps(oracle_json_obj(f), sort_keys=True, separators=(",", ":"))


# -- the tuple-keyed kernel: {(beta power, exponents): c} dicts ---------------
#
# Reference versions of the packed kernel's operators, kept in the form they
# had before the packing: every key carries its exponent tuple, and nothing
# bounds an exponent.  All operands of one call have equal-length tuples.


def ref_pack(nvars: int, bp: int, exps: tuple[int, ...]) -> int:
    """The packed key of beta^bp x^exps, one shifted field at a time."""
    lay = _layout(nvars)
    if len(exps) != nvars:
        raise ValueError("exponent vector length != nvars")
    if not 0 <= bp <= BETA_MAX:
        raise ExponentRangeError(f"beta power {bp}")
    key = lay.zero + bp + (sum(exps) << lay.top)
    for e, s in zip(exps, lay.shift):
        if not EXP_MIN <= e <= EXP_MAX:
            raise ExponentRangeError(f"exponent {e}")
        key += e << s
    return key


def ref_terms(f: MultiPoly) -> dict[tuple[int, tuple[int, ...]], int]:
    return {(bp, exps): c for bp, exps, c in f.iter_beta_terms()}


def _accumulate(out: dict, key, c: int) -> None:
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        _accumulate(out, key, c)
    return out


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (bp1, e1), c1 in a.items():
        for (bp2, e2), c2 in b.items():
            _accumulate(out, (bp1 + bp2, tuple(x + y for x, y in zip(e1, e2))), c1 * c2)
    return out


def ref_embed(a: dict, nvars: int) -> dict:
    return {(bp, exps + (0,) * (nvars - len(exps))): c for (bp, exps), c in a.items()}


def ref_restrict(a: dict, nvars: int) -> dict:
    """Set the variables beyond x_nvars to 0."""
    out = {}
    for (bp, exps), c in a.items():
        tail = exps[nvars:]
        if any(e > 0 for e in tail):
            continue
        if any(e < 0 for e in tail):
            raise ValueError("restriction of a negative exponent")
        out[(bp, exps[:nvars])] = c
    return out


def ref_act_si(i: int, a: dict) -> dict:
    out = {}
    for (bp, exps), c in a.items():
        e = list(exps)
        e[i - 1], e[i] = e[i], e[i - 1]
        out[(bp, tuple(e))] = c
    return out


def ref_divided_diff(i: int, a: dict) -> dict:
    out: dict = {}
    for (bp, exps), c in a.items():
        p, q = exps[i - 1], exps[i]
        if p == q:
            continue
        lo, hi, sign = (q, p, c) if p > q else (p, q, -c)
        base = list(exps)
        for t in range(hi - lo):
            base[i - 1], base[i] = hi - 1 - t, lo + t
            _accumulate(out, (bp, tuple(base)), sign)
    return out


def _ref_times(i: int, a: dict, beta: int) -> dict:
    """x_i * beta^beta * a."""
    out = {}
    for (bp, exps), c in a.items():
        e = list(exps)
        e[i - 1] += 1
        out[(bp + beta, tuple(e))] = c
    return out


def ref_beta_divided_diff(i: int, a: dict) -> dict:
    return ref_divided_diff(i, ref_add(a, _ref_times(i + 1, a, 1)))


def ref_isobaric(i: int, a: dict) -> dict:
    return ref_beta_divided_diff(i, _ref_times(i, a, 0))


def ref_truncate(a: dict, max_degree: int) -> dict:
    if any(e < 0 for _, exps in a for e in exps):
        raise ValueError("truncate requires a polynomial")
    return {k: c for k, c in a.items() if sum(k[1]) <= max_degree}


def ref_set_beta(a: dict, value: BetaInt | int) -> dict:
    v = BetaInt.of(value)
    out: dict = {}
    for (bp, exps), c in a.items():
        for k, ck in enumerate((v ** bp).coeffs):
            if ck:
                _accumulate(out, (k, exps), c * ck)
    return out


def ref_scale_x_by_neg_beta(a: dict) -> dict:
    out: dict = {}
    for (bp, exps), c in a.items():
        if any(e < 0 for e in exps):
            raise ValueError("substitution requires a polynomial")
        d = sum(exps)
        _accumulate(out, (bp + d, exps), c * (-1) ** d)
    return out


def is_homogeneous(f: MultiPoly) -> bool:
    return f.min_degree() == f.total_degree()


def oracle_beta_zero(f: MultiPoly) -> MultiPoly:
    """f at beta = 0, by substitution."""
    return MultiPoly(f.nvars, ref_set_beta(ref_terms(f), 0))


def oracle_beta_rescale(f: MultiPoly, ell: int) -> bool:
    """The rescale equation (-beta)^ell * f = f(beta = -1)(x -> -beta*x),
    built by substitution."""
    a = ref_terms(f)
    lhs = ref_mul(a, {(ell, (0,) * f.nvars): (-1) ** ell})
    return lhs == ref_scale_x_by_neg_beta(ref_set_beta(a, -1))


def random_beta_poly(rng, nvars=3, max_deg=3, max_beta=2, terms=5,
                     laurent=False) -> MultiPoly:
    f = MultiPoly.zero(nvars)
    lo = -2 if laurent else 0
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(lo, max_deg) for _ in range(nvars))
        # the coefficient is drawn before the beta power
        coeff = rng.randint(-3, 3)
        f = f + MultiPoly(nvars, {(rng.randint(0, max_beta), exps): coeff})
    return f


def symmetrize_block(f: MultiPoly, lo: int, hi: int) -> MultiPoly:
    """Sum of all permutations of the variables x_lo..x_hi applied to f."""
    from spgroth.polyring import act_si

    out = MultiPoly.zero(f.nvars)
    indices = list(range(lo, hi + 1))
    for perm in itertools.permutations(indices):
        g = f
        # apply the permutation as a product of adjacent swaps (selection sort)
        order = list(perm)
        pos = {v: t for t, v in enumerate(order)}
        current = list(indices)
        for t, want in enumerate(order):
            s = current.index(want)
            while s > t:
                i = indices[s - 1]
                g = act_si(i, g)
                current[s - 1], current[s] = current[s], current[s - 1]
                s -= 1
        out = out + g
    return out


def poly_from_beta_terms(nvars: int, rows) -> MultiPoly:
    """Build a polynomial from (coefficient, beta_power, exponents) rows."""
    f = MultiPoly.zero(nvars)
    for coeff, bpow, exps in rows:
        exps = tuple(exps) + (0,) * (nvars - len(exps))
        f = f + MultiPoly(nvars, {(bpow, exps): coeff})
    return f


# frozen published tables: (coefficient, beta power, exponents) rows

S3_TABLE = {
    "123": [(1, 0, ())],
    "213": [(1, 0, (1,))],
    "132": [(1, 0, (1,)), (1, 0, (0, 1)), (1, 1, (1, 1))],
    "231": [(1, 0, (1, 1))],
    "312": [(1, 0, (2,))],
    "321": [(1, 0, (2, 1))],
}

SP4_TABLE = {
    "2143": [(1, 0, ())],
    "3412": [(1, 0, (1,)), (1, 0, (0, 1)), (1, 1, (1, 1))],
    "4321": [(1, 0, (2,)), (1, 0, (1, 1)), (1, 0, (1, 0, 1)), (1, 0, (0, 1, 1)),
             (2, 1, (1, 1, 1)), (1, 1, (2, 1)), (1, 1, (2, 0, 1)), (1, 2, (2, 1, 1))],
}

SP_351624_TERMS = [
    (1, 0, (2,)), (2, 0, (1, 1)), (1, 0, (0, 2)), (1, 0, (1, 0, 1)),
    (1, 0, (0, 1, 1)), (1, 0, (1, 0, 0, 1)), (1, 0, (0, 1, 0, 1)),
    (2, 1, (2, 1)), (2, 1, (1, 2)), (1, 1, (2, 0, 1)), (3, 1, (1, 1, 1)),
    (1, 1, (0, 2, 1)), (1, 1, (2, 0, 0, 1)), (3, 1, (1, 1, 0, 1)),
    (1, 1, (0, 2, 0, 1)), (1, 1, (1, 0, 1, 1)), (1, 1, (0, 1, 1, 1)),
    (1, 2, (2, 2)), (2, 2, (2, 1, 1)), (2, 2, (1, 2, 1)), (2, 2, (2, 1, 0, 1)),
    (2, 2, (1, 2, 0, 1)), (1, 2, (2, 0, 1, 1)), (3, 2, (1, 1, 1, 1)),
    (1, 2, (0, 2, 1, 1)), (1, 3, (2, 2, 1)), (1, 3, (2, 2, 0, 1)),
    (2, 3, (2, 1, 1, 1)), (2, 3, (1, 2, 1, 1)), (1, 4, (2, 2, 1, 1)),
]

LENART_13452_SIGNED = {
    ((1, 3, 4, 5, 2), 1, 0),
    ((1, 3, 5, 4, 2), 1, 1),
    ((1, 4, 3, 5, 2), -1, 1),
    ((1, 4, 5, 3, 2), -1, 2),
    ((3, 4, 1, 5, 2), 1, 2),
    ((3, 4, 5, 1, 2), 1, 3),
    ((3, 4, 2, 5, 1), 1, 3),
    ((3, 4, 5, 2, 1), 1, 4),
}


def oracle_lenart_signed_terms(v: Permutation, k: int) -> tuple:
    """The signed one-variable expansion by the same chains as the library,
    each step tested by comparing lengths: (w, sign, length(w) -
    length(v)), in the library's order."""
    out = []

    def down_phase(u: Permutation, last_a: int, p: int):
        out.append((u, (-1) ** p, perm_length(u) - perm_length(v)))
        up_phase(u, None, p)
        for a in range(last_a - 1, 0, -1):
            t = u.times_transposition(a, k)
            if perm_length(t) == perm_length(u) + 1:
                down_phase(t, a, p + 1)

    def up_phase(u: Permutation, last_b: int | None, p: int):
        top = max(u.support, k) + 1 if last_b is None else last_b - 1
        for b in range(top, k, -1):
            t = u.times_transposition(k, b)
            if perm_length(t) == perm_length(u) + 1:
                out.append((t, (-1) ** p, perm_length(t) - perm_length(v)))
                up_phase(t, b, p)

    down_phase(v, k, 0)
    return tuple(out)


def oracle_tableaux(cells, pools, max_weight: int, row_ok, col_ok) -> list[tuple]:
    """Every filling of the cells by nonempty subsets of their pools with at
    most max_weight letters, such that row_ok(a, b) holds for each letter a
    of a cell and b of its right neighbour, and col_ok(a, b) for each letter
    a of a cell and b of the cell below.  Each filling is a tuple of
    (cell, sorted letters) pairs in cell order."""
    choices = [[c for size in range(1, len(pool) + 1) for c in itertools.combinations(pool, size)]
               for pool in pools]
    out = []
    for filling in itertools.product(*choices):
        if sum(map(len, filling)) > max_weight:
            continue
        entries = dict(zip(cells, filling))
        if all(row_ok(a, b) for (i, j), here in entries.items()
               for a in entries.get((i, j - 1), ()) for b in here) and \
                all(col_ok(a, b) for (i, j), here in entries.items()
                    for a in entries.get((i - 1, j), ()) for b in here):
            out.append(tuple(entries.items()))
    return out


# Z-indexed transition machinery computed on the shifted involution itself,
# one cover test and one conjugation at a time.  The downward list scans from
# four steps under both j and the support, two further down than the frame
# the library builds, so a cover the frame could miss would show.


def oracle_shifted_cover_up(v: ShiftedFpfInvolution, i: int, j: int) -> bool:
    y, d = v.with_headroom(min(i, j) - 2)
    return fpf_cover_up(y, i + d, j + d)


def oracle_shifted_conj(v: ShiftedFpfInvolution, i: int, j: int) -> ShiftedFpfInvolution:
    y, d = v.with_headroom(min(i, j))
    return ShiftedFpfInvolution(y.conj_transposition(i + d, j + d), d)


def oracle_shifted_cover_list_below(v: ShiftedFpfInvolution, j: int) -> tuple[int, ...]:
    lo = min(j, v.min_support()) - 4
    return tuple(i for i in range(lo, j) if oracle_shifted_cover_up(v, i, j))


def oracle_shifted_cover_list_above(v: ShiftedFpfInvolution, k: int) -> tuple[int, ...]:
    y, d = v.with_headroom(k)
    k_pos = k + d
    m = max(y.support, k_pos + (k_pos % 2))
    return tuple(l for l in range(m + 1 - d, k, -1) if oracle_shifted_cover_up(v, k, l))


def oracle_shifted_products(v: ShiftedFpfInvolution, fixed: int, indices) -> dict:
    """{involution: coefficient} of v * prod (1 + beta t) over the
    transpositions t of each index with the fixed index, in order."""
    terms = {v: BetaInt.of(1)}
    for a in indices:
        new = dict(terms)
        for y, c in terms.items():
            t = oracle_shifted_conj(y, *sorted((a, fixed)))
            new[t] = new.get(t, BetaInt()) + c * BetaInt.beta()
        terms = new
    return terms


def oracle_positive_recurrence(z: ShiftedFpfInvolution) -> tuple:
    """(v, j, k, l, i_list, terms) of the positive recurrence at the last
    visible descent of z, on Z: the fields of its certificate but the
    verdict."""
    top = max(z.base.support - z.offset, z.min_support())
    k = max(i for i in range(z.min_support(), top + 1)
            if z.value(i + 1) < min(i, z.value(i)))
    bound = min(k, z.value(k))
    l = max(t for t in range(k + 1, top + 1) if z.value(t) < bound)
    v = oracle_shifted_conj(z, k, l)
    j = v.value(k)
    I = oracle_shifted_cover_list_below(v, j)
    terms = oracle_shifted_products(v, j, I)
    terms[v] -= 1
    terms = {y: BetaInt(c.coeffs[1:]) for y, c in terms.items() if c}
    return v, j, k, l, I, tuple(terms.items())
