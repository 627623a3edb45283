"""Permutations, fixed-point-free involutions, and their Bruhat combinatorics.

Conventions:
  * Permutations of the positive integers with finite support, stored in
    one-line notation trimmed to minimal length (so the last entry of a
    nonempty word is never its own position).
  * Composition is (u * v)(i) = u(v(i)); transpositions written (i, j) act
    on positions when multiplied on the right.
  * Fixed-point-free involutions agree with theta: i -> i - (-1)^i beyond
    their (even) support and are stored trimmed to minimal even length.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass


def theta(i: int) -> int:
    """The base-point involution (1,2)(3,4)(5,6)... on any integer."""
    return i - 1 if i % 2 == 0 else i + 1


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    oneline: tuple[int, ...] = ()

    def __post_init__(self):
        w = self.oneline
        n = len(w)
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation word: {w}")
        if n and w[-1] == n:
            raise ValueError(f"not canonical (trailing fixed point): {w}")

    @staticmethod
    def from_oneline(word) -> "Permutation":
        word = list(word)
        while word and word[-1] == len(word):
            word.pop()
        return Permutation(tuple(word))

    @staticmethod
    def identity() -> "Permutation":
        return Permutation(())

    @staticmethod
    def s(i: int) -> "Permutation":
        """The simple transposition exchanging i and i+1."""
        return Permutation.from_oneline(list(range(1, i)) + [i + 1, i])

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation.from_oneline(range(n, 0, -1))

    @property
    def support(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        if 1 <= i <= len(self.oneline):
            return self.oneline[i - 1]
        return i

    def __mul__(self, other: "Permutation") -> "Permutation":
        n = max(self.support, other.support)
        return Permutation.from_oneline(self(other(i)) for i in range(1, n + 1))

    def inverse(self) -> "Permutation":
        word = [0] * self.support
        for i, v in enumerate(self.oneline):
            word[v - 1] = i + 1
        return Permutation(tuple(word))

    def times_transposition(self, i: int, j: int) -> "Permutation":
        """Right multiplication by (i, j): exchanges positions i and j."""
        n = max(self.support, i, j)
        word = [self(k) for k in range(1, n + 1)]
        word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
        return Permutation.from_oneline(word)

    def times_s(self, i: int) -> "Permutation":
        return self.times_transposition(i, i + 1)

    def descents(self) -> tuple[int, ...]:
        w = self.oneline
        return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])

    def code(self) -> tuple[int, ...]:
        w = self.oneline
        code = [sum(1 for j in range(i + 1, len(w)) if w[j] < w[i])
                for i in range(len(w))]
        while code and code[-1] == 0:
            code.pop()
        return tuple(code)

    def __repr__(self) -> str:
        return f"Permutation({format_word(self.oneline)})" if self.oneline else "Permutation(id)"


def perm_length(w: Permutation) -> int:
    """Number of inversions."""
    word = w.oneline
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_l) with w = s_{i_1} s_{i_2} ... s_{i_l}.

    Deterministic rule: repeatedly strip the smallest descent by right
    multiplication, then reverse the strip order.
    """
    word = []
    cur = w
    while cur.oneline:
        i = cur.descents()[0]
        word.append(i)
        cur = cur.times_s(i)
    return tuple(reversed(word))


def permutation_from_code(code) -> Permutation:
    """Inverse of Permutation.code: any finitely supported sequence of
    nonnegative integers is the code of a unique permutation."""
    code = list(code)
    while code and code[-1] == 0:
        code.pop()
    pool = list(range(1, len(code) + max(code, default=0) + 2))
    word = []
    for c in code:
        word.append(pool.pop(c))
    word.extend(pool)
    return Permutation.from_oneline(word)


def bruhat_cover_up(w: Permutation, i: int, j: int) -> bool:
    """True if right multiplication by (i, j) covers w in Bruhat order."""
    if not i < j:
        raise ValueError("need i < j")
    wi, wj = w(i), w(j)
    if wi > wj:
        return False
    return not any(wi < w(e) < wj for e in range(i + 1, j))


def transition_indices_perm(v: Permutation, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index lists (J, L): all j < k with v covered by v(j,k), increasing,
    and all l > k with v covered by v(k,l), decreasing.  L is finite; covers
    cannot occur past max(support, k) + 1."""
    J = tuple(j for j in range(1, k) if bruhat_cover_up(v, j, k))
    bound = max(v.support, k) + 1
    L = tuple(l for l in range(bound, k, -1) if bruhat_cover_up(v, k, l))
    return J, L


def all_permutations(n: int):
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation.from_oneline(word)


# ---------------------------------------------------------------------------
# fixed-point-free involutions
# ---------------------------------------------------------------------------


def fpf_value(z: tuple[int, ...], i: int) -> int:
    """z(i) for the canonical word of an fpf involution: theta(i) beyond it."""
    return z[i - 1] if 1 <= i <= len(z) else theta(i)


def conj_word(z: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The canonical one-line word of (i,j) z (i,j), for the canonical word
    of an fpf involution z."""
    n = max(len(z), i + i % 2, j + j % 2)  # len(z) is even
    w = [*z, *(theta(t) for t in range(len(z) + 1, n + 1))]
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return _trim_theta_pairs([j if v == i else i if v == j else v for v in w])


def _trim_theta_pairs(word: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The one-line word of an fpf involution without its trailing pairs
    (n, n - 1) on which it agrees with theta: the canonical word."""
    n = len(word)
    while n >= 2 and word[n - 1] == n - 1 and word[n - 2] == n:
        n -= 2
    return tuple(word[:n])


@dataclass(frozen=True)
class FpfInvolution:
    oneline: tuple[int, ...] = ()

    def __post_init__(self):
        z = self.oneline
        n = len(z)
        if n % 2:
            raise ValueError("fpf involution word must have even length")
        if sorted(z) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation word: {z}")
        for i in range(1, n + 1):
            v = z[i - 1]
            if v == i or z[v - 1] != i:
                raise ValueError(f"not fixed-point-free involution: {z}")
        if n >= 2 and z[n - 2] == n and z[n - 1] == n - 1:
            raise ValueError(f"not canonical (trailing theta pair): {z}")

    @staticmethod
    def from_oneline(word) -> "FpfInvolution":
        return FpfInvolution(_trim_theta_pairs(tuple(word)))

    @staticmethod
    def from_cycles(cycles) -> "FpfInvolution":
        pairs = [tuple(sorted(c)) for c in cycles]
        n = max((b for _, b in pairs), default=0)
        if n % 2:
            n += 1
        word = [theta(i) for i in range(1, n + 1)]
        for a, b in pairs:
            word[a - 1], word[b - 1] = b, a
        for i in range(1, n + 1):
            if word[word[i - 1] - 1] != i or word[i - 1] == i:
                raise ValueError(
                    "cycles do not extend the default pairing to an involution")
        return FpfInvolution.from_oneline(word)

    @staticmethod
    def theta_involution() -> "FpfInvolution":
        return FpfInvolution(())

    @staticmethod
    def top(n: int) -> "FpfInvolution":
        """The reversal n...321, the maximal element supported in [n]."""
        if n % 2:
            raise ValueError("need even n")
        return FpfInvolution.from_oneline(range(n, 0, -1))

    @property
    def support(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return fpf_value(self.oneline, i)

    def conj_s(self, i: int) -> "FpfInvolution":
        return self.conj_transposition(i, i + 1)

    def conj_transposition(self, i: int, j: int) -> "FpfInvolution":
        """(i,j) z (i,j) as an involution."""
        return FpfInvolution(conj_word(self.oneline, i, j))

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self.cycles_in_rank(self.support)

    def cycles_in_rank(self, n: int) -> tuple[tuple[int, int], ...]:
        """All 2-cycles (i, z(i)) with i < z(i) <= n, including base pairs
        beyond the canonical support."""
        return tuple((i, self(i)) for i in range(1, n + 1) if i < self(i) <= n)

    def __repr__(self) -> str:
        return (f"FpfInvolution({format_word(self.oneline)})"
                if self.oneline else "FpfInvolution(theta)")


def fpf_length(z: FpfInvolution) -> int:
    """Number of pairs (i, j) with z(i) > z(j) < i < j: the cells of the
    diagram."""
    return len(sp_rothe_diagram(z))


def fpf_cover_up(y: FpfInvolution, i: int, j: int) -> bool:
    """True if (i,j) y (i,j) covers y in the fpf Bruhat order, by the arc
    criterion: the arcs at i and j must sit in one of the raising shapes,
    with no interior point matched strictly between their partners.

    The case with both i below its partner and j above its partner (two
    disjoint arcs inside [i, j]) is a raising shape too, although the cited
    two-case proposition leaves it implicit; the length-jump equivalence is
    enforced by exhaustive test.
    """
    if i == j:
        raise ValueError("need distinct indices")
    if i > j:
        raise ValueError("need i < j")
    yi, yj = y(i), y(j)
    if yi < i:
        ok = (yi < i < j < yj) or (yi < yj < i)
    elif j < yj:
        ok = j < yi < yj
    else:
        ok = i < yi < yj < j
    if not ok:
        return False
    return not any(yi < y(e) < yj for e in range(i + 1, j))


def fpf_transition_indices(v: FpfInvolution, j: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a 2-cycle v(j) = k with j < k: all i < j with v covered by
    (i,j)v(i,j), increasing, and all l > k with v covered by (k,l)v(k,l),
    decreasing.  Covers cannot occur past the even support ceiling + 1."""
    if v(j) != k or not j < k:
        raise ValueError(f"need v({j}) = {k} with j < k")
    I = tuple(i for i in range(1, j) if fpf_cover_up(v, i, j))
    m = max(v.support, k + (k % 2))
    L = tuple(l for l in range(m + 1, k, -1) if fpf_cover_up(v, k, l))
    return I, L


def visible_descents(z: FpfInvolution) -> tuple[int, ...]:
    """All i with z(i+1) < min(i, z(i))."""
    return tuple(i for i in range(1, z.support + 1)
                 if z(i + 1) < min(i, z(i)))


def sp_rothe_diagram(z: FpfInvolution) -> frozenset[tuple[int, int]]:
    """Cells (i, z(j)) over the pairs (i, j) with z(i) > z(j) < i < j."""
    n = z.support
    return frozenset((i, z(j)) for j in range(1, n + 1) for i in range(1, j)
                     if z(j) < i and z(i) > z(j))


def sp_code(z: FpfInvolution) -> tuple[int, ...]:
    """Row counts of the diagram, without trailing zeros."""
    rows = Counter(i for i, _ in sp_rothe_diagram(z))
    return tuple(rows[i] for i in range(1, max(rows, default=0) + 1))


def sp_shape(z: FpfInvolution) -> tuple[int, ...]:
    """Transpose of the sorted symplectic code."""
    return transpose_partition(tuple(sorted(sp_code(z), reverse=True)))


def dearc(z: FpfInvolution) -> tuple[tuple[int, int], ...]:
    """Partial matching left after deleting every arc {a < b} whose interior
    points are all matched upward (e < z(e) for all a < e < b)."""
    kept = []
    for a, b in z.arcs():
        if not all(z(e) > e for e in range(a + 1, b)):
            kept.append((a, b))
    return tuple(kept)


def is_fpf_grassmannian(z: FpfInvolution):
    """Decode (n, phi) with dearc(z) = (phi_1, n+1)(phi_2, n+2)...; returns
    None when dearc has no such form.  The r = 0 witness (0, ()) is returned
    exactly for the base involution."""
    arcs = dearc(z)
    if not arcs:
        return (0, ())
    firsts = tuple(a for a, _ in arcs)
    seconds = tuple(b for _, b in arcs)
    n = seconds[0] - 1
    r = len(arcs)
    if seconds != tuple(n + t for t in range(1, r + 1)):
        return None
    # dearc lists arcs by increasing first point, and a first above n would
    # sit among the seconds n+1..n+r, so phi is increasing inside [1, n]
    return (n, firsts)


def shift_fpf(m: int, z: FpfInvolution) -> FpfInvolution:
    """Prepend m base pairs: the involution (21)^m x z."""
    word = list(range(1, 2 * m + 1))
    for i in range(0, 2 * m, 2):
        word[i], word[i + 1] = word[i + 1], word[i]
    word.extend(v + 2 * m for v in z.oneline)
    return FpfInvolution.from_oneline(word)


def all_fpf_involutions(n: int):
    """All fixed-point-free involutions of [n] (n even), i.e. all perfect
    matchings, as canonical involutions."""
    if n % 2:
        raise ValueError("need even n")

    def matchings(points):
        if not points:
            yield []
            return
        a = points[0]
        for t in range(1, len(points)):
            b = points[t]
            rest = points[1:t] + points[t + 1:]
            for m in matchings(rest):
                yield [(a, b)] + m

    for m in matchings(tuple(range(1, n + 1))):
        yield FpfInvolution.from_cycles(m)


# ---------------------------------------------------------------------------
# shifted (Z-indexed) involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedFpfInvolution:
    """A Z-indexed fpf involution written as a positive-support involution
    shifted left by an even offset: value(i) = base(i + offset) - offset,
    acting as i -> i - (-1)^i far below the support.  The stored
    representative is the one of least offset: leading base pairs (2, 1)
    are stripped while the offset is at least 2, and the base involution
    theta has offset 0, so equal involutions on Z compare and hash equal.
    Transition machinery runs on the positive representatives given by
    with_headroom."""

    base: FpfInvolution
    offset: int = 0

    def __post_init__(self):
        base, off = self.base, self.offset
        if off % 2 or off < 0:
            raise ValueError("offset must be even and nonnegative")
        while off >= 2 and base.oneline[:2] == (2, 1):
            base = FpfInvolution.from_oneline(v - 2 for v in base.oneline[2:])
            off -= 2
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offset", off if base.oneline else 0)

    def value(self, i: int) -> int:
        return self.base(i + self.offset) - self.offset

    def min_support(self) -> int:
        return 1 - self.offset

    def with_headroom(self, lowest_index: int) -> tuple[FpfInvolution, int]:
        """A positive representative: (y, d) with value(i) = y(i + d) - d and
        lowest_index + d >= 1."""
        d = self.offset
        if lowest_index + d < 1:
            extra = 1 - lowest_index - d
            extra += extra % 2
            d += extra
        return shift_fpf((d - self.offset) // 2, self.base), d

    def __repr__(self) -> str:
        return f"ShiftedFpfInvolution({self.base!r}, offset={self.offset})"


# ---------------------------------------------------------------------------
# partitions and text encodings
# ---------------------------------------------------------------------------


def as_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not a partition: {parts}")
    return parts


def as_strict_partition(parts) -> tuple[int, ...]:
    parts = as_partition(parts)
    if any(parts[i] == parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not a strict partition: {parts}")
    return parts


def transpose_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts or parts[0] == 0:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def partitions_of(n: int, max_parts: int | None = None, strict: bool = False):
    """Partitions of n with at most max_parts parts (all of them by
    default), with distinct parts when strict, in descending lexicographic
    order.  A branch stops as soon as the parts left cannot hold the rest
    of n."""

    def fill(rest: int, largest: int, count: int):
        if not rest:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            # the most that count parts of at most first can hold
            k = min(count, first) if strict else count
            if k * first - strict * (k * (k - 1) // 2) < rest:
                return
            for tail in fill(rest - first, first - strict, count - 1):
                yield (first,) + tail

    yield from fill(n, n, n if max_parts is None else max_parts)


def format_word(word) -> str:
    word = tuple(word)
    if not word:
        return "-"
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return tuple(int(ch) for ch in text)


def parse_permutation(text: str) -> Permutation:
    return Permutation.from_oneline(parse_word(text))


def parse_fpf(text: str) -> FpfInvolution:
    return FpfInvolution.from_oneline(parse_word(text))


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return as_partition(int(p) for p in text.split(","))


def format_partition(parts) -> str:
    return ",".join(str(p) for p in parts) if parts else "-"
