"""Shared oracles and generators for the test suite.

Everything here is deliberately brute force and independent of the library
code paths it checks.
"""

from __future__ import annotations

import itertools
from functools import cache

from spgroth.coxeter import FpfInvolution, Permutation, theta
from spgroth.polyring import MultiPoly, beta_divided_diff, oplus


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
    return z.conj_transposition(i, j)


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


def oracle_canonical_text(f: MultiPoly) -> str:
    """The serializer by its definition: the bracket form of each
    canonical_terms() coefficient, then the x-factors."""
    parts = []
    for exps, coeff in f.canonical_terms():
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(exps) if e]
        parts.append(coeff.bracket() + (" * " + " ".join(factors) if factors else ""))
    return " + ".join(parts) if parts else "0"


def random_beta_poly(rng, nvars=3, max_deg=3, max_beta=2, terms=5,
                     laurent=False) -> MultiPoly:
    f = MultiPoly.zero(nvars)
    lo = -2 if laurent else 0
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(lo, max_deg) for _ in range(nvars))
        f = f + MultiPoly.monomial(exps, coeff=rng.randint(-3, 3),
                                   beta_power=rng.randint(0, max_beta))
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
        f = f + MultiPoly.monomial(exps, coeff=coeff, beta_power=bpow)
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
