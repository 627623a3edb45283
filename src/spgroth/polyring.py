"""Exact sparse Laurent polynomials over Z[beta], with divided differences.

A polynomial is stored as a map from (beta_power, exponent_vector) to an
integer coefficient, where exponent_vector is a tuple of length `nvars`
(negative entries allowed, so the ring is Laurent).  All arithmetic is exact
integer arithmetic; no coefficient ring beyond Z[beta] is supported.

The canonical term order used for serialization is graded lexicographic on
the x-exponent vector, then beta degree.  Serialized output is bit-stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class BetaInt:
    """A polynomial in beta with integer coefficients: coeffs[k] is the
    coefficient of beta^k.  No trailing zeros are stored."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def of(value: "BetaInt | int") -> "BetaInt":
        if isinstance(value, BetaInt):
            return value
        return BetaInt((value,)) if value else BetaInt()

    @staticmethod
    def beta() -> "BetaInt":
        return BetaInt((0, 1))

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            object.__setattr__(self, "coeffs", _strip(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "BetaInt | int") -> "BetaInt":
        other = BetaInt.of(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return BetaInt(_strip(tuple(out)))

    __radd__ = __add__

    def __neg__(self) -> "BetaInt":
        return BetaInt(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "BetaInt | int") -> "BetaInt":
        return self + (-BetaInt.of(other))

    def __mul__(self, other: "BetaInt | int") -> "BetaInt":
        other = BetaInt.of(other)
        if not self.coeffs or not other.coeffs:
            return BetaInt()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return BetaInt(_strip(tuple(out)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BetaInt":
        result = BetaInt.of(1)
        for _ in range(n):
            result = result * self
        return result

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def bracket(self) -> str:
        """Dense bracket form, e.g. ``[1,2]`` for 1 + 2*beta."""
        return "[" + ",".join(str(c) for c in (self.coeffs or (0,))) + "]"

    def __repr__(self) -> str:
        return f"BetaInt({self.bracket()})"


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


Key = tuple[int, tuple[int, ...]]  # (beta power, x exponents)


class MultiPoly:
    """Sparse Laurent polynomial in x_1..x_nvars over Z[beta].

    Treat instances as immutable.  Binary operations embed both operands
    into the larger variable count, and equality ignores unused trailing
    variables, so a polynomial compares equal to any embedding of itself.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Key, int] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        self.terms: dict[Key, int] = {}
        if terms:
            for (bp, exps), c in terms.items():
                if not c:
                    continue
                if len(exps) != nvars:
                    raise ValueError("exponent vector length != nvars")
                self.terms[(bp, tuple(exps))] = c

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Key, int]) -> "MultiPoly":
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int = 1) -> "MultiPoly":
        return MultiPoly._raw(nvars, {})

    @staticmethod
    def one(nvars: int = 1) -> "MultiPoly":
        return MultiPoly.constant(1, nvars)

    @staticmethod
    def constant(c: BetaInt | int, nvars: int = 1) -> "MultiPoly":
        c = BetaInt.of(c)
        zero = (0,) * nvars
        return MultiPoly._raw(nvars, {(k, zero): v for k, v in enumerate(c.coeffs) if v})

    @staticmethod
    def x(i: int, nvars: int | None = None, power: int = 1) -> "MultiPoly":
        if nvars is None:
            nvars = i
        if not 1 <= i <= nvars:
            raise ValueError(f"variable x{i} outside 1..{nvars}")
        exps = tuple(power if j == i - 1 else 0 for j in range(nvars))
        return MultiPoly._raw(nvars, {(0, exps): 1})

    @staticmethod
    def beta(nvars: int = 1) -> "MultiPoly":
        return MultiPoly.constant(BetaInt.beta(), nvars)

    @staticmethod
    def monomial(exps: Iterable[int], coeff: BetaInt | int = 1, beta_power: int = 0) -> "MultiPoly":
        exps = tuple(exps)
        c = BetaInt.of(coeff)
        terms: dict[Key, int] = {}
        for k, v in enumerate(c.coeffs):
            if v:
                terms[(beta_power + k, exps)] = v
        return MultiPoly._raw(max(1, len(exps)), terms if exps else
                              {(bp, (0,)): v for (bp, _), v in terms.items()})

    # -- ring operations ---------------------------------------------------

    def embed(self, nvars: int) -> "MultiPoly":
        if nvars < self.nvars:
            raise ValueError("cannot shrink; use restrict")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._raw(nvars, {(bp, exps + pad): c for (bp, exps), c in self.terms.items()})

    def restrict(self, nvars: int) -> "MultiPoly":
        """Set x_{nvars+1} = x_{nvars+2} = ... = 0."""
        if nvars >= self.nvars:
            return self.embed(nvars) if nvars > self.nvars else self
        out: dict[Key, int] = {}
        for (bp, exps), c in self.terms.items():
            tail = exps[nvars:]
            if any(e > 0 for e in tail):
                continue
            if any(e < 0 for e in tail):
                raise ValueError("restriction of a negative exponent")
            out[(bp, exps[:nvars])] = c
        return MultiPoly._raw(nvars, out)

    def _paired(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        n = max(self.nvars, other.nvars)
        return self.embed(n), other.embed(n)

    def __add__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        a, b = self._paired(other)
        out = dict(a.terms)
        for key, c in b.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MultiPoly._raw(a.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = BetaInt.of(other)
            out: dict[Key, int] = {}
            for (bp, exps), v in self.terms.items():
                for k, ck in enumerate(c.coeffs):
                    if not ck:
                        continue
                    key = (bp + k, exps)
                    s = out.get(key, 0) + v * ck
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            return MultiPoly._raw(self.nvars, out)
        a, b = self._paired(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        out = {}
        get = out.get
        for (bp1, e1), c1 in a.terms.items():
            for (bp2, e2), c2 in b.terms.items():
                key = (bp1 + bp2, tuple(map(add, e1, e2)))
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return MultiPoly._raw(a.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        result = MultiPoly.one(self.nvars)
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, BetaInt)):
                other = MultiPoly.constant(other, self.nvars)
            else:
                return NotImplemented
        return self._normalized() == other._normalized()

    def _normalized(self) -> dict[tuple[int, tuple[int, ...]], int]:
        out = {}
        for (bp, exps), c in self.terms.items():
            n = len(exps)
            while n and exps[n - 1] == 0:
                n -= 1
            out[(bp, exps[:n])] = c
        return out

    # -- queries -----------------------------------------------------------

    def coefficient(self, exps: Iterable[int]) -> BetaInt:
        """Coefficient in Z[beta] of the x-monomial with the given exponents."""
        exps = tuple(exps)
        if len(exps) < self.nvars:
            exps = exps + (0,) * (self.nvars - len(exps))
        elif len(exps) > self.nvars:
            if any(exps[self.nvars:]):
                return BetaInt()
            exps = exps[: self.nvars]
        pairs = [(bp, c) for (bp, e), c in self.terms.items() if e == exps]
        if not pairs:
            return BetaInt()
        out = [0] * (max(bp for bp, _ in pairs) + 1)
        for bp, c in pairs:
            out[bp] += c
        return BetaInt(_strip(tuple(out)))

    def constant_term(self) -> BetaInt:
        return self.coefficient((0,) * self.nvars)

    def total_degree(self) -> int:
        """Largest total x-degree (0 for the zero polynomial)."""
        return max((sum(e) for (_, e) in self.terms), default=0)

    def min_degree(self) -> int:
        return min((sum(e) for (_, e) in self.terms), default=0)

    def degree_part(self, d: int) -> "MultiPoly":
        return MultiPoly._raw(self.nvars, {k: c for k, c in self.terms.items() if sum(k[1]) == d})

    def bottom(self) -> "MultiPoly":
        return self.degree_part(self.min_degree())

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for (_, exps) in self.terms for e in exps)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for (_, e) in self.terms}
        return len(degrees) <= 1

    def x_monomials(self) -> set[tuple[int, ...]]:
        return {e for (_, e) in self.terms}

    def iter_beta_terms(self) -> Iterator[tuple[int, tuple[int, ...], int]]:
        for (bp, exps), c in self.terms.items():
            yield bp, exps, c

    # -- canonical serialization --------------------------------------------

    def _canonical_groups(self) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
        """(exponents, {beta power: coefficient}) in the canonical order."""
        grouped: dict[tuple[int, ...], dict[int, int]] = {}
        for (bp, exps), c in self.terms.items():
            bps = grouped.get(exps)
            if bps is None:
                grouped[exps] = {bp: c}
            else:
                bps[bp] = c
        for _, exps in sorted((sum(e), e) for e in grouped):
            yield exps, grouped[exps]

    def canonical_terms(self) -> list[tuple[tuple[int, ...], BetaInt]]:
        """Terms as (exponents, Z[beta]-coefficient), in the canonical order."""
        out = []
        for exps, bps in self._canonical_groups():
            coeffs = [0] * (max(bps) + 1)
            for bp, c in bps.items():
                coeffs[bp] = c
            out.append((exps, BetaInt(tuple(coeffs))))
        return out

    def canonical_text(self) -> str:
        """The canonical_terms() coefficients in bracket form with their
        x-factors, written in one pass without building a BetaInt per term."""
        names: dict[tuple[int, int], str] = {}
        parts = []
        for exps, bps in self._canonical_groups():
            if len(bps) == 1:
                [(bp, c)] = bps.items()
                text = "[" + "0," * bp + str(c) + "]"
            else:
                coeffs = [0] * (max(bps) + 1)
                for bp, c in bps.items():
                    coeffs[bp] = c
                text = "[" + ",".join(map(str, coeffs)) + "]"
            factors = []
            for i, e in enumerate(exps):
                if e:
                    name = names.get((i, e))
                    if name is None:
                        name = names[(i, e)] = f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    factors.append(name)
            parts.append(text + " * " + " ".join(factors) if factors else text)
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> list[dict]:
        return [{"exps": list(exps), "beta": list(coeff.coeffs)}
                for exps, coeff in self.canonical_terms()]

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.canonical_text()!r})"


# -- operators --------------------------------------------------------------


def oplus(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f + g + beta*f*g."""
    return f + g + MultiPoly.beta(1) * f * g


def act_si(i: int, f: MultiPoly) -> MultiPoly:
    """Interchange the variables x_i and x_{i+1}."""
    _check_index(i, f)
    a, b = i - 1, i
    out = {}
    for (bp, exps), c in f.terms.items():
        if exps[a] != exps[b]:
            e = list(exps)
            e[a], e[b] = e[b], e[a]
            out[(bp, tuple(e))] = c
        else:
            out[(bp, exps)] = c
    return MultiPoly._raw(f.nvars, out)


def divided_diff(i: int, f: MultiPoly) -> MultiPoly:
    """(f - s_i f) / (x_i - x_{i+1}); the division is always exact,
    including on Laurent input."""
    _check_index(i, f)
    a, b = i - 1, i
    out: dict[Key, int] = {}
    for (bp, exps), c in f.terms.items():
        p, q = exps[a], exps[b]
        if p == q:
            continue
        if p > q:
            lo, hi, sign = q, p, c
        else:
            lo, hi, sign = p, q, -c
        base = list(exps)
        for t in range(hi - lo):
            base[a] = hi - 1 - t
            base[b] = lo + t
            key = (bp, tuple(base))
            s = out.get(key, 0) + sign
            if s:
                out[key] = s
            else:
                del out[key]
    return MultiPoly._raw(f.nvars, out)


def _times_one_plus_beta_x(i: int, f: MultiPoly) -> MultiPoly:
    out = dict(f.terms)
    a = i - 1
    for (bp, exps), c in f.terms.items():
        e = list(exps)
        e[a] += 1
        key = (bp + 1, tuple(e))
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return MultiPoly._raw(f.nvars, out)


def _times_x(i: int, f: MultiPoly) -> MultiPoly:
    a = i - 1
    out = {}
    for (bp, exps), c in f.terms.items():
        e = list(exps)
        e[a] += 1
        out[(bp, tuple(e))] = c
    return MultiPoly._raw(f.nvars, out)


def beta_divided_diff(i: int, f: MultiPoly) -> MultiPoly:
    """The beta-deformed divided difference applied to f: the plain divided
    difference of (1 + beta*x_{i+1}) * f."""
    _check_index(i, f)
    return divided_diff(i, _times_one_plus_beta_x(i + 1, f))


def isobaric(i: int, f: MultiPoly) -> MultiPoly:
    """The isobaric operator: beta divided difference applied to x_i * f."""
    _check_index(i, f)
    return beta_divided_diff(i, _times_x(i, f))


OPERATORS: dict[str, Callable[[int, MultiPoly], MultiPoly]] = {
    "partial": divided_diff,
    "beta": beta_divided_diff,
    "pi": isobaric,
}


def apply_word(kind: str, word: Iterable[int], f: MultiPoly) -> MultiPoly:
    """Apply the operator composition indexed by the word, rightmost index
    acting first (the subscripts read as an operator product)."""
    op = OPERATORS[kind]
    for i in reversed(tuple(word)):
        f = op(i, f)
    return f


def truncate(f: MultiPoly, max_degree: int) -> MultiPoly:
    """Drop all monomials of total x-degree above max_degree."""
    if f.has_negative_exponents():
        raise ValueError("truncate requires a polynomial, not a Laurent polynomial")
    return MultiPoly._raw(
        f.nvars, {k: c for k, c in f.terms.items() if sum(k[1]) <= max_degree})


def set_beta(f: MultiPoly, value: BetaInt | int) -> MultiPoly:
    """Substitute a value for beta (an integer or an element of Z[beta])."""
    v = BetaInt.of(value)
    out: dict[Key, int] = {}
    powers: dict[int, BetaInt] = {0: BetaInt.of(1)}
    for (bp, exps), c in f.terms.items():
        if bp not in powers:
            powers[bp] = v ** bp
        for k, ck in enumerate(powers[bp].coeffs):
            if not ck:
                continue
            key = (k, exps)
            s = out.get(key, 0) + c * ck
            if s:
                out[key] = s
            else:
                del out[key]
    return MultiPoly._raw(f.nvars, out)


def scale_x_by_neg_beta(f: MultiPoly) -> MultiPoly:
    """Substitute x_i -> -beta * x_i for every variable."""
    out: dict[Key, int] = {}
    for (bp, exps), c in f.terms.items():
        if any(e < 0 for e in exps):
            raise ValueError("substitution requires a polynomial")
        d = sum(exps)
        key = (bp + d, exps)
        s = out.get(key, 0) + c * (-1) ** d
        if s:
            out[key] = s
        else:
            del out[key]
    return MultiPoly._raw(f.nvars, out)


def symmetrize_check(f: MultiPoly, nvars: int, max_degree: int | None = None) -> bool:
    """True if f is symmetric in x_1..x_nvars, optionally modulo terms of
    total degree above max_degree."""
    g = f if max_degree is None else truncate(f, max_degree)
    for i in range(1, nvars):
        h = act_si(i, g)
        if max_degree is not None:
            h = truncate(h, max_degree)
        if h != g:
            return False
    return True


def _check_index(i: int, f: MultiPoly) -> None:
    if not 1 <= i or i + 1 > f.nvars:
        raise ValueError(f"operator index {i} needs variables x{i}, x{i + 1} <= nvars={f.nvars}")
