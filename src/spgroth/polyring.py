"""Exact sparse Laurent polynomials over Z[beta], with divided differences.

A polynomial in x_1..x_n is a dict from packed monomial keys to nonzero
integer coefficients (the packed-monomial layout of Monagan and Pearce).  A
key is one Python int made of fields of FIELD_BITS bits.  From the low end
they hold the beta power, then the exponents of x_n, ..., x_1; above them
sits the signed total x-degree, unbounded.  Exponent fields are biased, so
negative exponents are allowed and the ring is Laurent.  The layout gives:

* sorting the keys gives the canonical term order: total degree, then the
  exponent vector lexicographically, then the beta power;
* the key of a product of two monomials is the sum of their keys minus the
  key of 1, and the simple swap, the divided differences and the products
  with x_i and 1 + beta*x_i add multiples of field units to a key;
* truncation by total degree is one integer compare per term, and an
  isobaric step clipped at a degree bound (isobaric(i, f, max_degree))
  is one compare per pair, made before the pair's beta run is written.

Every exponent lies in EXP_MIN..EXP_MAX (-16384..16383) and every beta
power in 0..BETA_MAX (0..32767).  The top bit of each field is a guard bit
that stays clear on every stored key; an operation whose result would leave
the range raises ExponentRangeError, a ValueError, and never wraps into a
neighbouring field.

Stored coefficients are never zero.  Sums, differences, every row of a
product after the first, the product with 1 + beta*x_i and the in-place
Z[beta]-multiples all keep this through one accumulation rule,
_add_scaled: add a copy of one term dict, its keys moved by a shift and
its coefficients scaled by a nonzero factor, into another, and delete each
key whose coefficient cancels.  The divided difference and the isobaric
pass write several terms per input term, so they sum first and drop the
zeros once at the end.

_product multiplies beta-homogeneous polynomials (every term beta^b x^a has
the same |a| - b) with nonnegative exponents and coefficients by Kronecker
substitution.  The product is beta-homogeneous too, with |a| - b the sum L
of the factors' values, so no two of its terms share an x-monomial: it is
computed at beta = 1, and b is read back as |a| - L.  It is one Python
integer with a slot per exponent vector: mixed radix, x_1 most
significant, x_v of radix one more than the sum of the factors' largest
exponents of x_v.  A slot takes 1, 2, 4 or 8 bytes, the fewest that hold
the product of the factors' coefficient sums, which bounds every
coefficient, so no slot carries.  Each term of a factor costs one shift
and add.  The slots are then read through a memoryview, one block of high
variables at a time; a key is linear in the exponents, so a block's keys
are its high part plus those of the nonzero low slots.

Tuples stay at the boundary: the constructor accepts {(beta_power,
exponents): c}, and the queries return exponent tuples.  Both serialized
forms, the canonical text and the JSON terms array, come from one pass over
the sorted keys, which are already in the canonical order.  Given a write
callable, the serializers pass it the text in pieces of at most _CHUNK whole
terms and return None, so the whole text is never held.  All arithmetic is
exact integer arithmetic; no coefficient ring beyond Z[beta] is supported.
Serialized output is bit-stable across runs.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache, reduce
from itertools import chain, compress
from operator import and_, mul, or_

from ._frozen import _Frozen


class BetaInt(_Frozen):
    """A polynomial in beta with integer coefficients: coeffs[k] is the
    coefficient of beta^k.  No trailing zeros are stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n] if n < len(coeffs) else coeffs)

    @staticmethod
    def of(value: "BetaInt | int") -> "BetaInt":
        if isinstance(value, BetaInt):
            return value
        if not isinstance(value, int):
            raise TypeError(f"not a polynomial in beta: {value!r}")
        return BetaInt((value,)) if value else BetaInt()

    @staticmethod
    def beta() -> "BetaInt":
        return BetaInt((0, 1))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # any other operand gets NotImplemented, so Python tries its reflected
    # operation (a MultiPoly then takes self as a constant)
    def __add__(self, other: "BetaInt | int") -> "BetaInt":
        if not isinstance(other, (BetaInt, int)):
            return NotImplemented
        a, b = self.coeffs, BetaInt.of(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return BetaInt(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "BetaInt":
        return BetaInt(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "BetaInt | int") -> "BetaInt":
        if not isinstance(other, (BetaInt, int)):
            return NotImplemented
        return self + (-BetaInt.of(other))

    def __rsub__(self, other: int) -> "BetaInt":
        return (-self).__add__(other)

    def __mul__(self, other: "BetaInt | int") -> "BetaInt":
        if not isinstance(other, (BetaInt, int)):
            return NotImplemented
        other = BetaInt.of(other)
        if not self.coeffs or not other.coeffs:
            return BetaInt()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return BetaInt(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BetaInt":
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial in beta")
        result, square = BetaInt.of(1), self
        while n:  # square and multiply
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def bracket(self) -> str:
        """Dense bracket form, e.g. ``[1,2]`` for 1 + 2*beta."""
        return "[" + ",".join(str(c) for c in (self.coeffs or (0,))) + "]"

    def __repr__(self) -> str:
        return f"BetaInt({self.bracket()})"


# -- packed monomial keys ------------------------------------------------------

FIELD_BITS = 16
_FIELD_CODE = "h"  # struct code of a signed FIELD_BITS-bit field
_FIELD = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_BIAS = 1 << (FIELD_BITS - 2)  # stored exponent field = exponent + _BIAS
EXP_MIN, EXP_MAX = -_BIAS, _BIAS - 1
BETA_MAX = _GUARD - 1
_RANGE = f"exponents {EXP_MIN}..{EXP_MAX}, beta powers 0..{BETA_MAX}"


class ExponentRangeError(ValueError):
    """An exponent or beta power outside the packed range."""

    def __init__(self, what: str):
        super().__init__(f"{what} outside the packed range ({_RANGE})")


class _Layout:
    """Field positions of the keys of polynomials in `nvars` variables."""

    __slots__ = ("nvars", "shift", "top", "zero", "guard", "x_mask", "x_bias", "nbytes",
                 "unpack_x", "pack_fields", "x_guard")

    def __init__(self, nvars: int):
        w = FIELD_BITS
        self.nvars = nvars
        self.shift = tuple(w * (nvars - j) for j in range(nvars))  # of x_1..x_n
        self.top = w * (nvars + 1)  # of the total degree
        # the key of 1; also the mask of the bit that is set in an exponent
        # field exactly when the exponent is nonnegative.  Both masks repeat
        # one field, so they are built from bytes in linear time
        field = w // 8
        self.zero = int.from_bytes(_BIAS.to_bytes(field, "big") * nvars + bytes(field), "big")
        self.guard = int.from_bytes(_GUARD.to_bytes(field, "big") * (nvars + 1), "big")
        self.x_mask = (1 << (w * nvars)) - 1
        self.x_bias = self.zero >> w
        self.nbytes = field * nvars
        self.unpack_x = struct.Struct(">" + _FIELD_CODE * nvars).unpack
        self.pack_fields = struct.Struct(">" + _FIELD_CODE * (nvars + 1)).pack
        self.x_guard = self.guard ^ _GUARD  # the guard bits of the exponents

    def pack(self, bp: int, exps: tuple[int, ...]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("exponent vector length != nvars")
        if not 0 <= bp <= BETA_MAX:
            raise ExponentRangeError(f"beta power {bp}")
        # every field as a signed FIELD_BITS-bit integer; an exponent is in
        # range exactly when its field's guard bit equals the bit below it
        try:
            fields = int.from_bytes(self.pack_fields(*exps, bp), "big")
        except struct.error:  # past the signed field, or not an integer
            fields = None
        if fields is None or (fields ^ (fields << 1)) & self.x_guard:
            for e in exps:
                if not EXP_MIN <= e <= EXP_MAX:
                    raise ExponentRangeError(f"exponent {e}")
            raise TypeError(f"exponents must be integers, got {exps!r}")
        # clear the guard bits and flip the bias bits: each field turns
        # from e mod 2^FIELD_BITS into the stored e + _BIAS
        return ((fields & ~self.x_guard) ^ self.zero) + (sum(exps) << self.top)

    def exps(self, xkey: int) -> tuple[int, ...]:
        """The exponent tuple of a key shifted right by one field."""
        # flip each field's bias bit and copy it into the guard bit: the
        # fields then read as signed integers equal to the exponents
        y = (xkey & self.x_mask) ^ self.x_bias
        y |= (y & self.x_bias) << 1
        return self.unpack_x(y.to_bytes(self.nbytes, "big"))

    def check(self, keys: Iterable[int]) -> None:
        """Raise unless every guard bit of every key is clear."""
        if reduce(or_, keys, 0) & self.guard:
            raise ExponentRangeError("exponent or beta power")


@cache
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


def _add_scaled(out: dict[int, int], terms: dict[int, int], shift: int, factor: int) -> None:
    """out += factor * terms in place, each key of terms moved by shift;
    a key whose coefficient sums to zero is removed.  factor is nonzero,
    so such a key was already in out.  The caller checks the range."""
    get = out.get
    for k, c in terms.items():
        key = k + shift
        s = get(key, 0) + c * factor
        if s:
            out[key] = s
        else:
            del out[key]


TupleKey = tuple[int, tuple[int, ...]]  # (beta power, x exponents)


class MultiPoly:
    """Sparse Laurent polynomial in x_1..x_nvars over Z[beta].

    `terms` maps packed keys (see the module docstring) to coefficients.
    Treat instances as immutable.  Binary operations embed both operands
    into the larger variable count, and equality ignores unused trailing
    variables, so a polynomial compares equal to any embedding of itself.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[TupleKey, int] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        self.terms: dict[int, int] = {}
        if terms:
            pack = _layout(nvars).pack
            for (bp, exps), c in terms.items():
                if c:
                    self.terms[pack(bp, tuple(exps))] = c

    @classmethod
    def _raw(cls, nvars: int, terms: dict[int, int]) -> "MultiPoly":
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
        return MultiPoly.monomial((0,) * nvars, c)

    @staticmethod
    def x(i: int, nvars: int | None = None, power: int = 1) -> "MultiPoly":
        if nvars is None:
            nvars = i
        if not 1 <= i <= nvars:
            raise ValueError(f"variable x{i} outside 1..{nvars}")
        return MultiPoly.monomial(tuple(power if j == i - 1 else 0 for j in range(nvars)))

    @staticmethod
    def beta(nvars: int = 1) -> "MultiPoly":
        return MultiPoly.constant(BetaInt.beta(), nvars)

    @staticmethod
    def monomial(exps: Iterable[int], coeff: BetaInt | int = 1) -> "MultiPoly":
        exps = tuple(exps) or (0,)
        return MultiPoly(len(exps), {(k, exps): v for k, v in enumerate(BetaInt.of(coeff).coeffs)})

    # -- ring operations ---------------------------------------------------

    def embed(self, nvars: int) -> "MultiPoly":
        if nvars < self.nvars:
            raise ValueError("cannot shrink; use restrict")
        if nvars == self.nvars:
            return self
        # the new variables x_{n+1}..x_nvars take the fields just above beta
        cut = FIELD_BITS * (nvars - self.nvars + 1)
        pad = _layout(nvars).zero & ((1 << cut) - 1)
        return MultiPoly._raw(nvars, {((k >> FIELD_BITS) << cut) + (k & _FIELD) + pad: c
                                      for k, c in self.terms.items()})

    def restrict(self, nvars: int) -> "MultiPoly":
        """Set x_{nvars+1} = x_{nvars+2} = ... = 0."""
        if nvars >= self.nvars:
            return self.embed(nvars)
        lay = _layout(self.nvars)
        cut = FIELD_BITS * (self.nvars - nvars + 1)
        tail_mask = (1 << cut) - 1 - _FIELD
        pad = lay.zero & tail_mask
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            if k & tail_mask != pad:
                # a dropped exponent is nonzero, so the term vanishes unless
                # none is positive; the bias bits (pad) mark those >= 0
                if (k & pad != pad
                        and not any(e > 0 for e in lay.exps(k >> FIELD_BITS)[nvars:])):
                    raise ValueError("restriction of a negative exponent")
                continue
            out[((k >> cut) << FIELD_BITS) + (k & _FIELD)] = c
        return MultiPoly._raw(nvars, out)

    def _paired(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        n = max(self.nvars, other.nvars)
        return self.embed(n), other.embed(n)

    def _plus(self, other: "MultiPoly | BetaInt | int", factor: int) -> "MultiPoly":
        """self + factor * other."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        a, b = self._paired(other)
        out = dict(a.terms)
        _add_scaled(out, b.terms, 0, factor)
        return MultiPoly._raw(a.nvars, out)

    def __add__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return MultiPoly.constant(other, self.nvars)._plus(self, -1)

    def __mul__(self, other: "MultiPoly | BetaInt | int") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        a, b = self._paired(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        lay = _layout(a.nvars)
        zero = lay.zero
        out: dict[int, int] = {}
        for k2, c2 in b.terms.items():
            k2 -= zero
            if out:
                _add_scaled(out, a.terms, k2, c2)
            else:
                # the first row of products has distinct keys
                out = {k1 + k2: c1 * c2 for k1, c1 in a.terms.items()}
        lay.check(out)
        return MultiPoly._raw(a.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
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
        a, b = self._paired(other)
        return a.terms == b.terms

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
        if not all(EXP_MIN <= e <= EXP_MAX for e in exps):
            return BetaInt()
        lo = _layout(self.nvars).pack(0, exps)
        hi = lo + _FIELD
        pairs = [(k - lo, c) for k, c in self.terms.items() if lo <= k <= hi]
        if not pairs:
            return BetaInt()
        out = [0] * (max(bp for bp, _ in pairs) + 1)
        for bp, c in pairs:
            out[bp] += c
        return BetaInt(tuple(out))

    def constant_term(self) -> BetaInt:
        return self.coefficient((0,) * self.nvars)

    def total_degree(self) -> int:
        """Largest total x-degree (0 for the zero polynomial)."""
        return max(self.terms) >> _layout(self.nvars).top if self.terms else 0

    def min_degree(self) -> int:
        return min(self.terms) >> _layout(self.nvars).top if self.terms else 0

    def degree_part(self, d: int) -> "MultiPoly":
        top = _layout(self.nvars).top
        lo, hi = d << top, (d + 1) << top
        return MultiPoly._raw(self.nvars, {k: c for k, c in self.terms.items() if lo <= k < hi})

    def bottom(self) -> "MultiPoly":
        return self.degree_part(self.min_degree())

    def has_negative_exponents(self) -> bool:
        zero = _layout(self.nvars).zero
        return (reduce(and_, self.terms, zero) & zero) != zero

    def x_monomials(self) -> set[tuple[int, ...]]:
        exps = _layout(self.nvars).exps
        return {exps(xk) for xk in {k >> FIELD_BITS for k in self.terms}}

    def iter_beta_terms(self) -> Iterator[tuple[int, tuple[int, ...], int]]:
        exps = _layout(self.nvars).exps
        for k, c in self.terms.items():
            yield k & _FIELD, exps(k >> FIELD_BITS), c

    # -- canonical serialization --------------------------------------------

    def canonical_text(self, write: Callable[[str], object] | None = None) -> str | None:
        """The terms in the canonical order, each its Z[beta]-coefficient in
        bracket form with its x-factors, joined by " + "; "0" for the zero
        polynomial.  Given write, the pieces go to it and None is returned."""
        return _emit(_serialize(self, as_json=False) if self.terms else ("0",), write)

    def canonical_json_terms(self, write: Callable[[str], object] | None = None) -> str | None:
        """The terms in the canonical order as the text of a JSON array of
        {"beta": [...], "exps": [...]} objects, keys sorted, no spaces.
        Given write, the pieces go to it and None is returned."""
        return _emit(chain(("[",), _serialize(self, as_json=True), ("]",)), write)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.canonical_text()!r})"


_CHUNK = 2048  # terms joined per piece of serialized text


def _emit(pieces: Iterable[str], write: Callable[[str], object] | None) -> str | None:
    """The pieces joined, or None once each has gone to write."""
    if write is None:
        return "".join(pieces)
    for piece in pieces:
        write(piece)


def _factors_text(exps: tuple[int, ...], first: int) -> str:
    """The nonzero x-factors of x_first, x_first+1, ..., joined by spaces."""
    return " ".join([f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in enumerate(exps, first) if e])


def _exps_text(exps: tuple[int, ...], first: int) -> str:
    """The exponents joined by commas; first goes unused."""
    return ",".join(map(str, exps))


def _serialize(f: MultiPoly, as_json: bool) -> Iterator[str]:
    """Yield the terms of f in the canonical order as text, joined by " + ",
    or as JSON objects, joined by ","; nothing for the zero polynomial.

    One pass over the sorted keys.  The keys of one x-monomial are adjacent,
    with their beta powers increasing, so each run extends the dense
    coefficient text of its monomial.  The monomial's text is memoized per
    half, x_1..x_cut and the rest: each half takes far fewer values than the
    whole.  A miss writes the half from its exponents, by _factors_text or
    _exps_text.  Each piece yielded is one chunk of at most _CHUNK terms,
    joined, or the separator between two chunks; a run of beta powers is one
    term, never split across chunks."""
    n = f.nvars
    terms = f.terms
    exps = _layout(n).exps
    if as_json:
        head, mid, open_, close, sep, write = '{"beta":[', ",", '],"exps":[', "]}", ",", _exps_text
    else:
        head, mid, open_, close, sep, write = "[", " ", "] * ", "", " + ", _factors_text
    cut = (n + 1) // 2
    lo_bits = FIELD_BITS * (n - cut)
    lo_mask, hi_mask = (1 << lo_bits) - 1, (1 << (FIELD_BITS * cut)) - 1
    hi_text: dict[int, str] = {}
    lo_text: dict[int, str] = {}
    chunk: list[str] = []
    append = chunk.append
    run = None
    for k in sorted(terms):
        xk = k >> FIELD_BITS
        bp = k & _FIELD
        if xk == run:  # a higher beta power of the same monomial
            text += "," + "0," * (bp - last - 1) + str(terms[k])
            last = bp
            continue
        if run is not None:
            append(text + tail)
            if len(chunk) == _CHUNK:
                yield sep.join(chunk)
                yield sep
                chunk.clear()
        run, last = xk, bp
        text = head + "0," * bp + str(terms[k])
        hi, lo = (xk >> lo_bits) & hi_mask, xk & lo_mask
        t_hi = hi_text.get(hi)
        if t_hi is None:
            t_hi = hi_text[hi] = write(exps(xk)[:cut], 1)
        t_lo = lo_text.get(lo)
        if t_lo is None:
            t_lo = lo_text[lo] = write(exps(xk)[cut:], cut + 1)
        factors = t_hi + mid + t_lo if t_hi and t_lo else t_hi or t_lo
        tail = open_ + factors + close if factors else "]"
    if run is not None:
        append(text + tail)
        yield sep.join(chunk)


# -- operators --------------------------------------------------------------


def oplus(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f + g + beta*f*g."""
    return f + g + MultiPoly.beta(1) * f * g


_SLOTS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))  # slot bytes, memoryview code
_BLOCK = 1 << 12  # most slots decoded per block


def _product(factors: Iterable[MultiPoly], nvars: int) -> MultiPoly:
    """The product of the factors in nvars variables, by Kronecker
    substitution at beta = 1 (see the module docstring).  Each factor must
    have nonnegative exponents and coefficients and be beta-homogeneous,
    else ValueError; ExponentRangeError where __mul__ would raise it."""
    lay = _layout(nvars)
    deg = [0] * nvars  # the product's largest exponent of each variable
    rows = []
    bound, ell, top_beta = 1, 0, 0  # bound: the sum of the product's coefficients
    for f in factors:
        terms = list(f.embed(nvars).iter_beta_terms())
        if not terms:
            return MultiPoly.zero(nvars)
        lengths = {sum(a) - b for b, a, _ in terms}
        if len(lengths) > 1 or f.has_negative_exponents() or min(f.terms.values()) < 0:
            raise ValueError("a factor of _product is not beta-homogeneous "
                             "with nonnegative exponents and coefficients")
        ell += lengths.pop()
        top_beta += max(b for b, _, _ in terms)
        deg = [d + max(col) for d, col in zip(deg, zip(*(a for _, a, _ in terms)))]
        bound *= sum(c for _, _, c in terms)
        rows.append(terms)
    # nothing cancels, so the product reaches each of these bounds
    if max(deg) > EXP_MAX or top_beta > BETA_MAX:
        raise ExponentRangeError("exponent or beta power")
    width, code = next((s for s in _SLOTS if bound >> 8 * s[0] == 0), (0, ""))
    if not width:
        raise ValueError(f"product coefficients up to {bound} need more than 8 bytes")
    stride = [1] * nvars  # slots per unit of each variable, x_n least significant
    for v in range(nvars - 1, 0, -1):
        stride[v - 1] = stride[v] * (deg[v] + 1)
    acc = 1
    for terms in rows:
        shifts = [(8 * width * sum(map(mul, a, stride)), c) for _, a, c in terms]
        acc = sum(acc << s if c == 1 else (acc << s) * c for s, c in shifts)
    view = memoryview(acc.to_bytes(stride[0] * (deg[0] + 1) * width, sys.byteorder))
    del acc
    view = view.cast(code)
    if sys.byteorder == "big":  # slot 0 came last
        view = view[::-1]

    # the key of each slot is linear in its exponents, since b = |a| - ell
    def keys(first: int, stop: int, start: int) -> list[int]:
        out = [start]
        for v in range(first, stop):
            unit = (1 << lay.shift[v]) + (1 << lay.top) + 1
            out = [k + e * unit for k in out for e in range(deg[v] + 1)]
        return out

    cut = next(v for v in range(nvars) if stride[v] <= _BLOCK)
    low = keys(cut + 1, nvars, 0)
    size = len(low)
    out: dict[int, int] = {}
    for i, high in enumerate(keys(0, cut + 1, lay.zero - ell)):
        block = view[i * size:(i + 1) * size]
        out.update(zip(map(high.__add__, compress(low, block)), compress(block, block)))
    return MultiPoly._raw(nvars, out)


def _swap_step(i: int, f: MultiPoly) -> tuple[int, int, int]:
    """(shift of the x_{i+1} field, the key change that lowers x_i and
    raises x_{i+1} by one, the key change of dividing by x_i)."""
    _check_index(i, f)
    lay = _layout(f.nvars)
    lo = lay.shift[i]
    return lo, (1 << lo) - (1 << (lo + FIELD_BITS)), (1 << (lo + FIELD_BITS)) + (1 << lay.top)


def act_si(i: int, f: MultiPoly) -> MultiPoly:
    """Interchange the variables x_i and x_{i+1}."""
    lo, step, _ = _swap_step(i, f)
    out = {}
    for k, c in f.terms.items():
        pair = k >> lo
        out[k + (((pair >> FIELD_BITS) & _FIELD) - (pair & _FIELD)) * step] = c
    return MultiPoly._raw(f.nvars, out)


def divided_diff(i: int, f: MultiPoly) -> MultiPoly:
    """(f - s_i f) / (x_i - x_{i+1}); the division is always exact,
    including on Laurent input."""
    lo, step, down = _swap_step(i, f)
    swap_down = step + down
    out: dict[int, int] = {}
    get = out.get
    for k, c in f.terms.items():
        pair = k >> lo
        d = ((pair >> FIELD_BITS) & _FIELD) - (pair & _FIELD)  # e_i - e_{i+1}
        # a difference of one (the commonest) gives a single term
        if d == 1:
            k -= down
        elif d == -1:
            k -= swap_down
            c = -c
        elif d == 0:
            continue
        else:
            if d > 0:
                k -= down
            else:
                k += d * step - down
                c, d = -c, -d
            # x_i^(p-1-t) x_{i+1}^(q+t) for t < d, where p > q are the two exponents
            for key in range(k, k + d * step, step):
                out[key] = get(key, 0) + c
            continue
        out[k] = get(k, 0) + c
    # cancelled terms are dropped once, after the sums
    return MultiPoly._raw(f.nvars, {k: c for k, c in out.items() if c})


def _times_one_plus_beta_x(i: int, f: MultiPoly) -> MultiPoly:
    """(1 + beta*x_i) * f, in at least i variables."""
    if i > f.nvars:
        f = f.embed(i)
    lay = _layout(f.nvars)
    inc = (1 << lay.shift[i - 1]) + (1 << lay.top) + 1
    out = dict(f.terms)
    _add_scaled(out, f.terms, inc, 1)
    lay.check(out)
    return MultiPoly._raw(f.nvars, out)


def _add_multiple(terms: dict[int, int], nvars: int, g: MultiPoly, c: BetaInt) -> None:
    """terms += c * g in place, where terms holds the keys of a polynomial
    in nvars >= g.nvars variables and c is a polynomial in beta.

    Each power beta^p of c adds p to the beta field of g's keys, so the sum
    is one pass over g per nonzero coefficient of c, written into terms with
    cancelled keys removed.  The range is checked before anything is
    written: ExponentRangeError if a beta power would pass BETA_MAX."""
    if not c:
        return
    top = len(c.coeffs) - 1
    if top > BETA_MAX:
        raise ExponentRangeError(f"beta power {top}")
    gterms = g.embed(nvars).terms
    # only the beta field moves, and the top power moves it furthest
    _layout(nvars).check(map(top.__add__, gterms))
    for p, a in enumerate(c.coeffs):
        if a:
            _add_scaled(terms, gterms, p, a)


def beta_divided_diff(i: int, f: MultiPoly) -> MultiPoly:
    """The beta-deformed divided difference applied to f: the plain divided
    difference of (1 + beta*x_{i+1}) * f."""
    _check_index(i, f)
    return divided_diff(i, _times_one_plus_beta_x(i + 1, f))


def isobaric(i: int, f: MultiPoly, max_degree: int | None = None) -> MultiPoly:
    """The isobaric operator: beta divided difference applied to x_i * f.

    One pass over f, a pair {m, s_i m} at a time.  Write m = x_i^a
    x_{i+1}^b * rest with d = a - b > 0, and c, c' for the coefficients of m
    and of s_i m (0 if absent).  The pair maps to

        c * (m + s_i m) + (c - c') * (interior + beta * x_{i+1} * run),

    where run is the d terms m (x_{i+1}/x_i)^t for 0 <= t < d, and interior
    is run without m; a term with a = b maps to itself.  So the pass starts
    from a copy of f, and a pair with equal coefficients writes nothing.

    The range rule is that of x_i * f followed by (1 + beta*x_{i+1}) *
    (x_i * f): ExponentRangeError if any term has e_i or e_{i+1} at EXP_MAX
    or its beta power at BETA_MAX, even where the runs cancel or are
    clipped.

    With max_degree, f must have no term of total degree above it (else
    ValueError), and the result is truncate(isobaric(i, f), max_degree).
    Only the beta run raises the degree, by exactly one, so the clip is one
    compare per pair: a beta run above max_degree is never written."""
    lo, step, _ = _swap_step(i, f)
    lay = _layout(f.nvars)
    terms = f.terms
    # add one to the x_i, x_{i+1} and beta fields: a guard bit marks an edge
    lay.check(map(((1 << lo) + (1 << (lo + FIELD_BITS)) + 1).__add__, terms))
    up = (1 << lo) + (1 << lay.top) + 1  # the key change of beta * x_{i+1}
    if max_degree is None:
        # above every key: exponents are at most EXP_MAX, and a run adds one
        limit = (lay.nvars * EXP_MAX + 2) << lay.top
    else:
        limit = (max_degree + 1) << lay.top
        if terms and max(terms) >= limit:
            raise ValueError(f"isobaric input has terms above max_degree={max_degree}")
    out = dict(terms)
    get = out.get
    partner_of = terms.get
    for k, c in terms.items():
        pair = k >> lo
        d = ((pair >> FIELD_BITS) & _FIELD) - (pair & _FIELD)  # e_i - e_{i+1}
        if d > 0:
            partner = k + d * step
            delta = c - partner_of(partner, 0)
            if not delta:
                continue
            out[partner] = get(partner, 0) + delta  # s_i m takes c
        elif d < 0:
            above = k + d * step
            if above in terms:
                continue  # visited from its partner
            out[k] = get(k, 0) - c  # its partner is absent (c = 0), so it goes
            k, delta, d = above, -c, -d
        else:
            continue
        if d == 1:  # the commonest: no interior, one beta term
            k += up
            if k < limit:
                out[k] = get(k, 0) + delta
            continue
        end = k + d * step
        for key in range(k + step, end, step):
            out[key] = get(key, 0) + delta
        if k + up < limit:
            for key in range(k + up, end + up, step):
                out[key] = get(key, 0) + delta
    # cancelled terms are dropped once, after the sums, and only when there
    # are any
    if not all(out.values()):
        out = {k: c for k, c in out.items() if c}
    return MultiPoly._raw(f.nvars, out)


def apply_word(op: Callable[[int, MultiPoly], MultiPoly], word: Iterable[int],
               f: MultiPoly) -> MultiPoly:
    """Apply the composition of op indexed by the word, rightmost index
    acting first (the subscripts read as an operator product), e.g.
    apply_word(divided_diff, (1, 2), f) is divided_diff(1, divided_diff(2, f))."""
    for i in reversed(tuple(word)):
        f = op(i, f)
    return f


def truncate(f: MultiPoly, max_degree: int) -> MultiPoly:
    """Drop all monomials of total x-degree above max_degree."""
    if f.has_negative_exponents():
        raise ValueError("truncate requires a polynomial, not a Laurent polynomial")
    limit = (max_degree + 1) << _layout(f.nvars).top
    return MultiPoly._raw(f.nvars, {k: c for k, c in f.terms.items() if k < limit})


def symmetrize_check(f: MultiPoly, nvars: int, max_degree: int) -> bool:
    """True if f, read in at least nvars variables, is symmetric in
    x_1..x_nvars modulo terms of total degree above max_degree."""
    g = truncate(f.embed(max(nvars, f.nvars)), max_degree)
    # the swaps keep the total degree, so their images need no truncation
    return all(act_si(i, g) == g for i in range(1, nvars))


def _check_index(i: int, f: MultiPoly) -> None:
    if not 1 <= i or i + 1 > f.nvars:
        raise ValueError(f"operator index {i} needs variables x{i}, x{i + 1} <= nvars={f.nvars}")
