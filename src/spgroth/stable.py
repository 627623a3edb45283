"""Stable limits, set-valued tableaux, and triangular basis expansions.

Symmetric-series identities are always asserted "at a window": in the
variables x_1..nvars, modulo terms of total degree above maxdeg.  Expansion
coefficients are exact for shapes of size at most maxdeg fitting inside
nvars rows (or parts); everything beyond that region is censored by the
window and is not reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    as_partition,
    as_strict_partition,
    is_fpf_grassmannian,
    partitions_of,
    reduced_word,
    sp_shape,
    strict_partitions_of,
    visible_descents,
)
from .grothendieck import (
    expand_in_grothendieck_basis_censored,
    grothendieck,
    sp_grothendieck,
)
from .polyring import (
    BetaInt,
    MultiPoly,
    apply_word,
    isobaric,
    oplus,
    symmetrize_check,
    truncate,
)


@dataclass(frozen=True)
class Window:
    """Finite probe of a symmetric power series: number of variables and a
    total-degree bound."""

    nvars: int
    maxdeg: int

    def __post_init__(self):
        if self.nvars < 1 or self.maxdeg < 1:
            raise ValueError("window needs nvars >= 1 and maxdeg >= 1")

    def clip(self, f: MultiPoly) -> MultiPoly:
        return truncate(f.restrict(self.nvars) if f.nvars > self.nvars else f,
                        self.maxdeg)


# ---------------------------------------------------------------------------
# tableau enumeration
# ---------------------------------------------------------------------------


def _subsets_from(letters: tuple[int, ...], lo_index: int, max_size: int):
    """Nonempty subsets of letters[lo_index:], as sorted tuples."""
    pool = letters[lo_index:]
    for size in range(1, min(max_size, len(pool)) + 1):
        yield from itertools.combinations(pool, size)


def set_valued_tableaux(shape: tuple[int, ...], nvars: int, max_weight: int):
    """Semistandard set-valued fillings of the partition shape with entries
    in 1..nvars and at most max_weight letters in total.  Yields per cell a
    sorted tuple, as a dict keyed by (row, col)."""
    shape = as_partition(shape)
    cells = [(i, j) for i in range(1, len(shape) + 1) for j in range(1, shape[i - 1] + 1)]
    letters = tuple(range(1, nvars + 1))
    ncells = len(cells)

    def fill(idx: int, entries: dict, used: int):
        if idx == ncells:
            yield dict(entries)
            return
        i, j = cells[idx]
        lo = 1
        left = entries.get((i, j - 1))
        if left:
            lo = max(lo, left[-1])          # row: max(left) <= min(here)
        up = entries.get((i - 1, j))
        if up:
            lo = max(lo, up[-1] + 1)        # column: max(above) < min(here)
        if lo > nvars:
            return
        budget = max_weight - used - (ncells - idx - 1)
        for subset in _subsets_from(letters, lo - 1, budget):
            entries[(i, j)] = subset
            yield from fill(idx + 1, entries, used + len(subset))
            del entries[(i, j)]

    if ncells == 0:
        yield {}
        return
    if max_weight >= ncells:
        yield from fill(0, {}, 0)


def stable_groth_partition(lam: tuple[int, ...], win: Window) -> MultiPoly:
    """Set-valued tableau generating function for the partition shape,
    truncated at the window."""
    lam = as_partition(lam)
    weight = sum(lam)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for tab in set_valued_tableaux(lam, win.nvars, win.maxdeg):
        exps = [0] * win.nvars
        size = 0
        for subset in tab.values():
            size += len(subset)
            for v in subset:
                exps[v - 1] += 1
        key = (size - weight, tuple(exps))
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(win.nvars, counts)


# marked letters: value v primed -> 2v - 1, unprimed -> 2v (so integer order
# matches the order 1' < 1 < 2' < 2 < ...)


def _is_primed(m: int) -> bool:
    return m % 2 == 1


def _letter_value(m: int) -> int:
    return (m + 1) // 2


def shifted_set_valued_tableaux(shape: tuple[int, ...], nvars: int, max_weight: int,
                                diagonal_primes: bool = False):
    """Semistandard shifted set-valued fillings of the strict shape with
    marked letters of value at most nvars and at most max_weight letters.
    Rows may share only unprimed letters, columns only primed ones; primed
    letters are excluded from the diagonal unless diagonal_primes is set."""
    shape = as_strict_partition(shape)
    cells = [(i, i + j - 1) for i in range(1, len(shape) + 1) for j in range(1, shape[i - 1] + 1)]
    letters = tuple(range(1, 2 * nvars + 1))
    unprimed = tuple(range(2, 2 * nvars + 1, 2))
    ncells = len(cells)

    def fill(idx: int, entries: dict, used: int):
        if idx == ncells:
            yield dict(entries)
            return
        i, j = cells[idx]
        diagonal = i == j
        pool = letters if (diagonal_primes or not diagonal) else unprimed
        lo = 1
        left = entries.get((i, j - 1))
        if left:
            m = left[-1]
            lo = max(lo, m if not _is_primed(m) else m + 1)
        up = entries.get((i - 1, j))
        if up:
            m = up[-1]
            lo = max(lo, m if _is_primed(m) else m + 1)
        budget = max_weight - used - (ncells - idx - 1)
        start = 0
        while start < len(pool) and pool[start] < lo:
            start += 1
        for subset in _subsets_from(pool, start, budget):
            entries[(i, j)] = subset
            yield from fill(idx + 1, entries, used + len(subset))
            del entries[(i, j)]

    if ncells == 0:
        yield {}
        return
    if max_weight >= ncells:
        yield from fill(0, {}, 0)


def gp_partition(lam: tuple[int, ...], win: Window, diagonal_primes: bool = False) -> MultiPoly:
    """Shifted set-valued tableau generating function for the strict shape,
    truncated at the window."""
    lam = as_strict_partition(lam)
    weight = sum(lam)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for tab in shifted_set_valued_tableaux(lam, win.nvars, win.maxdeg, diagonal_primes):
        exps = [0] * win.nvars
        size = 0
        for subset in tab.values():
            size += len(subset)
            for m in subset:
                exps[_letter_value(m) - 1] += 1
        key = (size - weight, tuple(exps))
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(win.nvars, counts)


# ---------------------------------------------------------------------------
# stable limits through isobaric operators
# ---------------------------------------------------------------------------


@cache
def _long_word(n: int) -> tuple[int, ...]:
    return reduced_word(Permutation.longest(n))


def _apply_pi_truncated(word: tuple[int, ...], f: MultiPoly, maxdeg: int) -> MultiPoly:
    # isobaric steps never move high degrees downward, so clipping after
    # every step is exact for the final truncation
    f = truncate(f, maxdeg)
    for i in reversed(word):
        f = truncate(isobaric(i, f), maxdeg)
    return f


@cache
def _stable_groth_perm_cached(oneline: tuple[int, ...], nvars: int, maxdeg: int) -> MultiPoly:
    w = Permutation(oneline)
    n = max(nvars, w.support)
    f = _apply_pi_truncated(_long_word(n), grothendieck(w).embed(n), maxdeg)
    return f.restrict(nvars)


def stable_groth_perm(w: Permutation, win: Window) -> MultiPoly:
    """Stable limit of the permutation family at the window: the isobaric
    long-word image of the polynomial, computed in max(nvars, support)
    variables and then restricted.  Exact at the window."""
    return _stable_groth_perm_cached(w.oneline, win.nvars, win.maxdeg)


def gp_sp(z: FpfInvolution, win: Window) -> MultiPoly:
    """Symplectic stable limit at the window, by expanding in the
    permutation basis and stabilizing term by term.  Coefficients on indices
    of length above maxdeg are censored; their stable images vanish at the
    window."""
    expansion = expand_in_grothendieck_basis_censored(sp_grothendieck(z), win.maxdeg)
    f = MultiPoly.zero(win.nvars)
    for w, c in expansion.terms:
        f = f + stable_groth_perm(w, win) * c
    return win.clip(f)


def gp_sp_stabilized(z: FpfInvolution, win: Window, max_extra: int = 8) -> MultiPoly:
    """Cross-check route: isobaric long-word images for growing n until the
    window stabilizes twice; asserts a third agreement."""
    n = max(win.nvars, z.support, 2)
    values = []
    for extra in range(max_extra + 1):
        f = _apply_pi_truncated(_long_word(n + extra), sp_grothendieck(z).embed(n + extra),
                                win.maxdeg)
        values.append(win.clip(f))
        if len(values) >= 2 and values[-1] == values[-2]:
            g = _apply_pi_truncated(_long_word(n + extra + 1),
                                    sp_grothendieck(z).embed(n + extra + 1), win.maxdeg)
            if win.clip(g) != values[-1]:
                raise RuntimeError("window agreement was not stable")
            return values[-1]
    raise RuntimeError(f"no window stabilization within {max_extra} steps")


def g_via_pi_formula(lam: tuple[int, ...], n: int) -> MultiPoly:
    """Isobaric long-word image of the shape monomial, in n variables."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("shape has more rows than variables")
    exps = tuple(lam) + (0,) * (n - len(lam))
    return apply_word("pi", _long_word(n), MultiPoly.monomial(exps))


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
    f = apply_word("pi", _long_word(n), _gp_operand(lam, n))
    if f.has_negative_exponents():
        raise AssertionError("isobaric image failed to be a polynomial")
    return f


def sp_grassmannian_formula(z: FpfInvolution) -> MultiPoly:
    """Closed isobaric formula for the symplectic polynomial of a
    Grassmannian-type involution, via its decoded (n, phi) data."""
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
        raise AssertionError("isobaric image failed to be a polynomial")
    return f


# ---------------------------------------------------------------------------
# triangular expansions into the shape-indexed bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GLambdaExpansion:
    terms: tuple[tuple[tuple[int, ...], BetaInt], ...]
    window: Window

    def as_dict(self):
        return dict(self.terms)

    def coefficient(self, lam) -> BetaInt:
        return self.as_dict().get(tuple(lam), BetaInt())

    def is_beta_positive(self) -> bool:
        return all(c.is_nonnegative() for _, c in self.terms)


@dataclass(frozen=True)
class GPLambdaExpansion(GLambdaExpansion):
    pass


def _triangular_expand(f: MultiPoly, win: Window, shapes_of, basis_at_window, max_parts):
    """Shared elimination: shapes by increasing size, then descending
    lexicographic (a linear extension of dominance, most dominant first);
    the pivot is the coefficient of the shape monomial itself."""
    rem = win.clip(f.restrict(win.nvars) if f.nvars > win.nvars else f)
    found = []
    for size in range(win.maxdeg + 1):
        for lam in shapes_of(size):
            if len(lam) > max_parts:
                continue
            c = rem.coefficient(lam)
            if c:
                found.append((lam, c))
                rem = win.clip(rem - basis_at_window(lam) * c)
    if rem:
        raise ValueError(
            "nonzero in-window remainder: input is not in the basis span at "
            f"this window (left: {rem.canonical_text()})")
    return tuple(found)


def expand_in_G_basis(f: MultiPoly, win: Window) -> GLambdaExpansion:
    """Expand a window-symmetric polynomial over partition shapes.  Exact
    for shapes of size <= maxdeg with at most nvars rows."""
    if not symmetrize_check(f, win.nvars, win.maxdeg):
        raise ValueError("input is not symmetric at the window")
    terms = _triangular_expand(f, win, partitions_of,
                               lambda lam: stable_groth_partition(lam, win), win.nvars)
    return GLambdaExpansion(terms, win)


def expand_in_GP_basis(f: MultiPoly, win: Window) -> GPLambdaExpansion:
    """Expand a window-symmetric polynomial over strict shapes.  Exact for
    shapes of size <= maxdeg with at most nvars parts."""
    if not symmetrize_check(f, win.nvars, win.maxdeg):
        raise ValueError("input is not symmetric at the window")
    terms = _triangular_expand(f, win, strict_partitions_of,
                               lambda lam: gp_partition(lam, win), win.nvars)
    return GPLambdaExpansion(terms, win)


# ---------------------------------------------------------------------------
# stable identities
# ---------------------------------------------------------------------------


def verify_f_grass(z: FpfInvolution, win: Window) -> bool:
    """Grassmannian-type involutions stabilize to the shape series of their
    symplectic shape."""
    if is_fpf_grassmannian(z) is None:
        raise ValueError(f"{z!r} is not FPF-Grassmannian")
    return gp_sp(z, win) == gp_partition(sp_shape(z), win)


def _gp_of_shifted(z: ShiftedFpfInvolution, win: Window) -> MultiPoly:
    # the stable series is invariant under the even shift, so the smallest
    # positive representative stands in for the Z-indexed involution
    return gp_sp(z.normalized().base, win)


def _shifted_cover_list_below(v: ShiftedFpfInvolution, j: int) -> tuple[int, ...]:
    """All integers i < j (possibly nonpositive) with a cover at (i, j);
    below two steps under the support everything acts like the base point
    and covers stop."""
    lo = v.min_support() - 2
    return tuple(i for i in range(lo, j) if v.cover_up(i, j))


def _shifted_cover_list_above(v: ShiftedFpfInvolution, k: int) -> tuple[int, ...]:
    y, d = v.with_headroom(k)
    k_pos = k + d
    m = max(y.support, k_pos + (k_pos % 2))
    return tuple(l for l in range(m + 1 - d, k, -1) if v.cover_up(k, l))


def verify_stable_sp_transition(v: ShiftedFpfInvolution, j: int, k: int, win: Window) -> bool:
    """Stable two-sided transition for a Z-indexed 2-cycle v(j) = k: compare
    the window values of both operator products."""
    if v.value(j) != k or not j < k:
        raise ValueError(f"need v({j}) = {k} with j < k")
    I = _shifted_cover_list_below(v, j)
    L = _shifted_cover_list_above(v, k)

    def side(indices, fixed):
        terms: list[tuple[ShiftedFpfInvolution, int]] = [(v, 0)]
        for a in indices:
            terms = terms + [(y.conj_transposition(*sorted((a, fixed))), p + 1)
                             for y, p in terms]
        f = MultiPoly.zero(win.nvars)
        for y, p in terms:
            f = f + _gp_of_shifted(y, win) * (BetaInt.beta() ** p)
        return win.clip(f)

    return side(I, j) == side(L, k)


@dataclass(frozen=True)
class GPRecurrenceCertificate:
    z: ShiftedFpfInvolution
    v: ShiftedFpfInvolution
    j: int
    k: int
    l: int
    i_list: tuple[int, ...]
    terms: tuple[tuple[tuple[int, ...], ShiftedFpfInvolution, int], ...]
    verified: bool


def gp_sp_positive_recurrence(z: ShiftedFpfInvolution | FpfInvolution,
                              win: Window) -> GPRecurrenceCertificate:
    """Positive recurrence at the last visible descent: the stable series of
    z is the sum over nonempty subsets A of the downward cover list of
    beta^(|A|-1) times the series of the A-shifted involution."""
    if isinstance(z, FpfInvolution):
        z = ShiftedFpfInvolution(z)
    descents = z.visible_descents()
    if not descents:
        raise ValueError("the base involution admits no recurrence step")
    k = descents[-1]
    bound = min(k, z.value(k))
    l = max(t for t in range(k + 1, z.max_support() + 1) if z.value(t) < bound)
    v = z.conj_transposition(k, l)
    j = v.value(k)
    I = _shifted_cover_list_below(v, j)
    terms = []
    total = MultiPoly.zero(win.nvars)
    for size in range(1, len(I) + 1):
        for subset in itertools.combinations(I, size):
            y = v
            for a in subset:
                y = y.conj_transposition(*sorted((a, j)))
            terms.append((subset, y, size - 1))
            total = total + _gp_of_shifted(y, win) * (BetaInt.beta() ** (size - 1))
    verified = win.clip(total) == _gp_of_shifted(z, win)
    return GPRecurrenceCertificate(z, v, j, k, l, I, tuple(terms), verified)
