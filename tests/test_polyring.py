import json
import random

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as stgs

from spgroth.coxeter import (
    FpfInvolution,
    Permutation,
    all_permutations,
    reduced_word,
)
from spgroth.grothendieck import sp_grothendieck
from spgroth.polyring import (
    _BIAS,
    _CHUNK,
    _GUARD,
    _Layout,
    _add_multiple,
    _layout,
    _product,
    _times_one_plus_beta_x,
    BETA_MAX,
    EXP_MAX,
    EXP_MIN,
    FIELD_BITS,
    BetaInt,
    ExponentRangeError,
    MultiPoly,
    act_si,
    apply_word,
    beta_divided_diff,
    divided_diff,
    isobaric,
    oplus,
    symmetrize_check,
    truncate,
)

from helpers import (
    _ref_times,
    oracle_canonical_text,
    oracle_json_obj,
    oracle_json_text,
    oracle_product,
    permutation_from_word,
    random_beta_poly,
    ref_act_si,
    ref_pack,
    ref_add,
    ref_beta_divided_diff,
    ref_divided_diff,
    ref_embed,
    ref_isobaric,
    ref_mul,
    ref_restrict,
    ref_terms,
    ref_truncate,
    shift_perm,
    symmetrize_block,
)

X = MultiPoly.x
BETA = BetaInt.beta()


def range_text(what: str) -> str:
    return f"{what} outside the packed range (exponents -16384..16383, beta powers 0..32767)"


# the text of every range error raised by a check of an operation's keys
RANGE_TEXT = range_text("exponent or beta power")


def range_error(call, *args) -> str:
    """The text of the ExponentRangeError that call(*args) raises."""
    with pytest.raises(ExponentRangeError) as info:
        call(*args)
    return str(info.value)


def poly_strategy(nvars=3, laurent=False):
    lo = -2 if laurent else 0
    monom = stgs.tuples(
        stgs.tuples(*([stgs.integers(lo, 3)] * nvars)),
        stgs.integers(0, 2),
        stgs.integers(-3, 3).filter(bool),
    )
    return stgs.lists(monom, min_size=1, max_size=5).map(
        lambda rows: sum(
            (MultiPoly(nvars, {(bp, exps): c}) for exps, bp, c in rows),
            MultiPoly.zero(nvars)))


def terms_strategy(nvars, laurent=True):
    """{(beta power, exponents): c} dicts, zero coefficients included."""
    lo = -3 if laurent else 0
    key = stgs.tuples(stgs.integers(0, 3), stgs.tuples(*([stgs.integers(lo, 4)] * nvars)))
    return stgs.dictionaries(key, stgs.integers(-3, 3), max_size=6)


def sized_terms(laurent=True):
    """(nvars, terms) with nvars from 1 to 4."""
    return stgs.integers(1, 4).flatmap(
        lambda n: stgs.tuples(stgs.just(n), terms_strategy(n, laurent)))


@stgs.composite
def isobaric_inputs(draw):
    """(i, f) with f = g + sign * s_i g + h for small Laurent g, h of mixed
    beta powers: pairs {m, s_i m} with equal, unequal and absent partners."""
    n = draw(stgs.integers(2, 4))
    i = draw(stgs.integers(1, n - 1))
    g, h = (MultiPoly(n, draw(terms_strategy(n))) for _ in range(2))
    sign = draw(stgs.sampled_from((0, 1, -1)))
    return i, g + sign * act_si(i, g) + h


def isobaric_branches(i: int, f: MultiPoly) -> set[str]:
    """The branches of the isobaric pair pass that the terms of f reach."""
    a = ref_terms(f)
    out = set()
    for (bp, exps), c in a.items():
        p, q = exps[i - 1], exps[i]
        swapped = exps[:i - 1] + (q, p) + exps[i + 1:]
        partner = a.get((bp, swapped))
        if p == q:
            out.add("fixed")
        elif partner is None:
            out.add("alone above" if p > q else "alone below")
        elif p > q:
            out.add("equal pair" if partner == c else "unequal pair")
    return out


class TestBetaInt:
    def test_ring(self):
        a = BetaInt((1, 2))
        b = BetaInt((0, -2, 1))
        assert (a + b).coeffs == (1, 0, 1)
        assert (a * b).coeffs == (0, -2, -3, 2)
        assert (a - a) == BetaInt()
        assert not BetaInt()
        assert BetaInt((1, 0, 0)).coeffs == (1,)
        assert (BETA ** 3).coeffs == (0, 0, 0, 1)

    def test_power_by_squaring(self):
        assert BetaInt.beta() ** 20000 == BetaInt((0,) * 20000 + (1,))
        assert (BetaInt((1, 1)) ** 5).coeffs == (1, 5, 10, 10, 5, 1)
        assert BetaInt((2, -1)) ** 0 == BetaInt.of(1)
        assert BetaInt() ** 3 == BetaInt()
        with pytest.raises(ValueError):
            BETA ** -1

    def test_bracket(self):
        assert BetaInt((1, 2)).bracket() == "[1,2]"
        assert BetaInt().bracket() == "[0]"

    def test_positivity(self):
        assert BetaInt((0, 3)).is_nonnegative()
        assert not BetaInt((1, -1)).is_nonnegative()

    def test_int_operands(self):
        assert 1 - BETA == BetaInt((1, -1))
        assert BETA - 1 == BetaInt((-1, 1))
        assert 2 + BETA == BETA + 2 == BetaInt((2, 1))
        assert 3 * BETA == BETA * 3 == BetaInt((0, 3))

    def test_polynomial_operand_is_not_a_coefficient(self):
        # a MultiPoly on either side takes the BetaInt as a constant
        assert repr(BETA - X(1, 2)) == "MultiPoly(2, '[0,1] + [-1] * x1')"
        assert repr(BETA + X(1, 2)) == "MultiPoly(2, '[0,1] + [1] * x1')"
        assert repr(BETA * X(1, 2)) == "MultiPoly(2, '[0,1] * x1')"
        assert repr(X(1, 2) - BETA) == "MultiPoly(2, '[0,-1] + [1] * x1')"
        with pytest.raises(TypeError):
            BetaInt.of(X(1))
        with pytest.raises(TypeError):
            BETA - "x"
        with pytest.raises(TypeError):
            "x" - BETA


class TestRingOps:
    def test_cancellation(self):
        assert X(1, 2) + (-X(1, 2)) == MultiPoly.zero(2)

    def test_product_difference_of_squares(self):
        f = (X(1, 2) + X(2, 2)) * (X(1, 2) - X(2, 2))
        assert f == X(1, 2) ** 2 - X(2, 2) ** 2

    def test_one_plus_beta_x_product(self):
        f = (1 + MultiPoly.beta(2) * X(1, 2)) * (1 + MultiPoly.beta(2) * X(2, 2))
        want = (MultiPoly.one(2) + MultiPoly.beta(2) * X(1, 2)
                + MultiPoly.beta(2) * X(2, 2)
                + MultiPoly.beta(2) ** 2 * X(1, 2) * X(2, 2))
        assert f == want

    def test_power(self):
        assert X(1, 2) ** 0 == MultiPoly.one(2)
        assert X(1, 2) ** 3 == X(1, 2, 3)
        with pytest.raises(ValueError, match="negative power"):
            X(1, 2) ** -1

    def test_embedding_insensitive_equality(self):
        assert X(1, 2) == X(1, 5)
        assert X(1, 2) != X(2, 2)

    def test_coefficient_queries(self):
        f = oplus(X(1, 2), X(2, 2))
        assert f.coefficient((1, 1)) == BETA
        assert f.coefficient((1, 0)) == BetaInt.of(1)
        assert f.coefficient((5, 5)) == BetaInt()

    def test_equality_with_constants_and_foreign_objects(self):
        assert MultiPoly.constant(3, 2) == 3
        assert MultiPoly.zero(2) == 0
        assert MultiPoly.one(2) != 2
        assert MultiPoly.beta(2) == BETA
        assert MultiPoly.beta(2) + 1 == BetaInt((1, 1))
        assert X(1, 2) != BETA
        # a foreign object compares by identity: __eq__ defers
        assert MultiPoly.one(2).__eq__("1") is NotImplemented
        assert MultiPoly.one(2) != "1"

    def test_coefficient_of_longer_exponent_vector(self):
        f = oplus(X(1, 2), X(2, 2))
        # a zero tail names the same monomial, a nonzero tail none of f's
        assert f.coefficient((1, 1, 0, 0)) == BETA
        assert f.coefficient((1, 0, 0)) == BetaInt.of(1)
        assert f.coefficient((1, 1, 1)) == BetaInt()
        assert f.coefficient((0, 0, 0, 2)) == BetaInt()

    def test_coefficient_outside_packed_range(self):
        f = X(1, 2, EXP_MAX) + X(2, 2, EXP_MIN)
        assert f.coefficient((EXP_MAX, 0)) == BetaInt.of(1)
        assert f.coefficient((0, EXP_MIN)) == BetaInt.of(1)
        assert f.coefficient((EXP_MAX + 1, 0)) == BetaInt()
        assert f.coefficient((0, EXP_MIN - 1)) == BetaInt()

    def test_constructor_and_embed_reject_bad_sizes(self):
        with pytest.raises(ValueError, match="^nvars must be positive$"):
            MultiPoly(0)
        with pytest.raises(ValueError, match="^cannot shrink; use restrict$"):
            MultiPoly.one(3).embed(2)


class TestOplus:
    def test_examples(self):
        x, zero = X(1, 2), MultiPoly.zero(2)
        assert oplus(x, zero) == x
        assert oplus(X(1, 2), X(2, 2)) == X(1, 2) + X(2, 2) + MultiPoly.beta(2) * X(1, 2) * X(2, 2)
        assert oplus(x, x) == 2 * x + MultiPoly.beta(2) * x * x


def homogeneous_factor(rng, nvars: int, ell: int, max_deg: int = 3, terms: int = 4) -> MultiPoly:
    """A random polynomial with positive coefficients in which every term
    beta^b x^a has |a| - b = ell; zero when no drawn monomial has |a| >= ell."""
    rows = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exps) >= ell:
            rows[(sum(exps) - ell, exps)] = rng.randint(1, 3)
    return MultiPoly(nvars, rows)


def coefficient_bound(factors) -> int:
    bound = 1
    for f in factors:
        bound *= sum(f.terms.values())
    return bound


class TestProduct:
    """_product, the Kronecker-substitution product, against the chain of
    generic products."""

    def test_random_products(self, rng):
        for _ in range(300):
            nvars = rng.randint(1, 4)
            factors = [homogeneous_factor(rng, rng.randint(1, nvars), rng.randint(-1, 3))
                       for _ in range(rng.randint(0, 5))]
            got = _product(factors, nvars)
            want = oracle_product(factors, nvars)
            assert got.nvars == nvars and got.terms == want.terms, factors

    @pytest.mark.parametrize("width", (1, 2, 4, 8))
    def test_each_slot_width(self, width):
        # each case needs exactly this many bytes per slot: its coefficient
        # bound fits in width bytes and not in the width below
        top = (1 << 8 * width) - 1
        x = [X(v, 3) for v in (1, 2, 3)]
        k = {1: 5, 2: 10, 4: 20, 8: 40}[width]  # 3^k fits
        cases = [
            [top * x[1]],  # one slot holds the largest value
            [x[0] + x[2], oplus(x[0], x[1]), (top // 6) * x[1], MultiPoly.constant(1, 3)],
            [oplus(x[0], x[1])] * (k - 1) + [oplus(x[1], x[2])],
        ]
        for factors in cases:
            bound = coefficient_bound(factors)
            assert bound < 1 << 8 * width and (width == 1 or bound >= 1 << 4 * width)
            got = _product(factors, 3)
            assert got.nvars == 3 and got.terms == oracle_product(factors, 3).terms

    def test_empty_and_zero(self):
        one = _product([], 3)
        assert one.nvars == 3 and one == MultiPoly.one(3)
        zero = _product([X(1, 3), MultiPoly.zero(3), X(2, 3)], 3)
        assert zero.nvars == 3 and zero.terms == {}

    def test_range_errors_equal_mul(self):
        # the coefficients are nonnegative, so the product reaches the
        # degree bound and the bound check is exact
        at_edge = MultiPoly(2, {(BETA_MAX - 1, (EXP_MAX - 1, 0)): 1})
        for f, g in ((X(1, 2, EXP_MAX), X(1, 2)), (MultiPoly(2, {(BETA_MAX, (0, 0)): 1}),
                                                    MultiPoly.beta(2))):
            assert range_error(_product, [f, g], 2) == range_error(lambda: f * g) == RANGE_TEXT
        assert _product([at_edge, oplus(X(1, 2), X(2, 2))], 2).terms == \
            (at_edge * oplus(X(1, 2), X(2, 2))).terms
        assert _product([X(1, 2, EXP_MAX - 1), X(1, 2)], 2) == X(1, 2, EXP_MAX)

    def test_rejects_other_factors(self):
        x = X(1, 2)
        for bad in (X(1, 2, -1), -x, x + 1, x + MultiPoly.beta(2) * x):
            with pytest.raises(ValueError, match="not beta-homogeneous with nonnegative"):
                _product([X(2, 2), bad], 2)
        # a coefficient bound past 8 bytes: 3^41 > 2^64 > 3^40
        for factors in ([MultiPoly.constant(1 << 64, 2)], [oplus(x, X(2, 2))] * 41):
            with pytest.raises(ValueError, match="need more than 8 bytes"):
                _product(factors, 2)
        with pytest.raises(ValueError, match="cannot shrink"):
            _product([X(3, 3)], 2)


class TestActSi:
    def test_examples(self):
        assert act_si(1, X(1, 2)) == X(2, 2)
        assert act_si(1, X(1, 2) * X(2, 2)) == X(1, 2) * X(2, 2)
        f = X(1, 3) ** 2 * X(2, 3) * X(3, 3) ** 3
        assert act_si(2, f) == X(1, 3) ** 2 * X(2, 3) ** 3 * X(3, 3)
        with pytest.raises(ValueError):
            act_si(2, X(1, 2))


class TestDividedDiff:
    def test_examples(self):
        assert divided_diff(1, X(1, 2)) == MultiPoly.one(2)
        assert divided_diff(1, X(1, 2) * X(2, 2)) == MultiPoly.zero(2)
        assert divided_diff(1, X(1, 2) ** 2) == X(1, 2) + X(2, 2)

    @given(poly_strategy(laurent=True))
    def test_exact_reconstruction(self, f):
        # (x_i - x_{i+1}) * divided difference == f - s_i f, on Laurent input
        for i in (1, 2):
            lhs = (X(i, 3) - X(i + 1, 3)) * divided_diff(i, f)
            assert lhs == f - act_si(i, f)

    @given(poly_strategy())
    def test_square_zero(self, f):
        for i in (1, 2):
            assert divided_diff(i, divided_diff(i, f)) == MultiPoly.zero(3)


class TestBetaDividedDiff:
    def test_examples(self):
        assert beta_divided_diff(1, MultiPoly.one(2)) == -MultiPoly.beta(2)
        assert beta_divided_diff(1, X(1, 2)) == MultiPoly.one(2)
        assert beta_divided_diff(2, X(1, 3) ** 2 * X(2, 3)) == X(1, 3) ** 2

    def test_alternate_form(self):
        # -beta f + (1 + beta x_i) (divided difference of f)
        f = random_beta_poly(__import__("random").Random(7), nvars=3)
        for i in (1, 2):
            alt = (-MultiPoly.beta(3) * f
                   + (1 + MultiPoly.beta(3) * X(i, 3)) * divided_diff(i, f))
            assert beta_divided_diff(i, f) == alt

    @given(poly_strategy())
    def test_twisted_idempotency(self, f):
        for i in (1, 2):
            d = beta_divided_diff(i, f)
            assert beta_divided_diff(i, d) == -MultiPoly.beta(3) * d


class TestIsobaric:
    def test_examples(self):
        assert isobaric(1, MultiPoly.one(2)) == MultiPoly.one(2)
        assert isobaric(1, X(1, 2)) == oplus(X(1, 2), X(2, 2))
        assert isobaric(1, X(2, 2)) == -MultiPoly.beta(2) * X(1, 2) * X(2, 2)
        # defining-formula value (the full symmetric five-term polynomial)
        want = (X(1, 2) ** 2 + X(1, 2) * X(2, 2) + X(2, 2) ** 2
                + MultiPoly.beta(2) * X(1, 2) * X(2, 2) * (X(1, 2) + X(2, 2)))
        assert isobaric(1, X(1, 2) ** 2) == want
        # clipped at a degree bound: the beta run of degree 2 is not written
        assert isobaric(1, X(1, 2), max_degree=1) == X(1, 2) + X(2, 2)
        assert isobaric(1, X(2, 2), max_degree=1) == MultiPoly.zero(2)
        with pytest.raises(ValueError, match="above max_degree=1"):
            isobaric(1, X(1, 2) ** 2, max_degree=1)

    def test_alternate_form(self):
        f = random_beta_poly(__import__("random").Random(11), nvars=3)
        for i in (1, 2):
            alt = f + X(i + 1, 3) * (1 + MultiPoly.beta(3) * X(i, 3)) * divided_diff(i, f)
            assert isobaric(i, f) == alt

    @given(isobaric_inputs())
    def test_pair_pass_against_reference(self, case):
        i, f = case
        assert ref_terms(isobaric(i, f)) == ref_isobaric(i, ref_terms(f))

    @pytest.mark.parametrize("branch", ("fixed", "equal pair", "unequal pair",
                                        "alone above", "alone below"))
    def test_inputs_reach_every_branch(self, branch):
        # equal pairs skip their runs (delta = 0), the others write them
        find(isobaric_inputs(), lambda case: branch in isobaric_branches(*case),
             settings=settings(phases=[Phase.generate], database=None))

    @given(poly_strategy())
    def test_idempotent(self, f):
        for i in (1, 2):
            g = isobaric(i, f)
            assert isobaric(i, g) == g


class TestFixedPointCharacterizations:
    @given(poly_strategy())
    def test_symmetric_input(self, f):
        g = f + act_si(1, f)  # symmetric in x1, x2
        assert divided_diff(1, g) == MultiPoly.zero(3)
        assert beta_divided_diff(1, g) == -MultiPoly.beta(3) * g
        assert isobaric(1, g) == g

    @given(poly_strategy(), poly_strategy())
    def test_invariant_factor_pulls_out(self, f, g):
        fs = f + act_si(1, f)
        assert beta_divided_diff(1, fs * g) == fs * beta_divided_diff(1, g)
        assert isobaric(1, fs * g) == fs * isobaric(1, g)
        assert divided_diff(1, fs * g) == fs * divided_diff(1, g)


class TestLeibniz:
    @given(poly_strategy(), poly_strategy())
    def test_beta_leibniz(self, f, g):
        beta = MultiPoly.beta(3)
        for i in (1, 2):
            lhs = beta_divided_diff(i, f * g)
            rhs = (act_si(i, f) * (beta_divided_diff(i, g) + beta * g)
                   + beta_divided_diff(i, f) * g)
            assert lhs == rhs


class TestBraidRelations:
    @given(poly_strategy(nvars=4))
    def test_braid_and_commuting(self, f):
        for op in (divided_diff, beta_divided_diff, isobaric):
            assert apply_word(op, (1, 2, 1), f) == apply_word(op, (2, 1, 2), f)
            assert apply_word(op, (1, 3), f) == apply_word(op, (3, 1), f)


class TestApplyWord:
    def test_examples(self):
        f = random_beta_poly(__import__("random").Random(3), nvars=3)
        assert apply_word(isobaric, (), f) == f
        staircase = X(1, 3) ** 2 * X(2, 3)
        assert apply_word(beta_divided_diff, (1, 2, 1), staircase) == MultiPoly.one(3)

    def test_reduced_word_independence(self):
        def all_reduced_words(w):
            if not w.oneline:
                yield ()
                return
            for i in w.descents():
                for rest in all_reduced_words(w.times_s(i)):
                    yield rest + (i,)

        probe = random_beta_poly(__import__("random").Random(5), nvars=5)
        for w in all_permutations(4):
            words = set(all_reduced_words(w))
            assert all(permutation_from_word(word) == w for word in words)
            for op in (divided_diff, beta_divided_diff, isobaric):
                values = {tuple(sorted(apply_word(op, word, probe).terms.items()))
                          for word in words}
                assert len(values) == 1


class TestTruncateAndSetBeta:
    def test_truncate(self):
        f = 1 + MultiPoly.beta(2) * X(1, 2) * X(2, 2)
        assert truncate(f, 1) == MultiPoly.one(2)
        assert truncate(f, 9) == f
        g = X(1, 2) + X(2, 2) + MultiPoly.beta(2) * X(1, 2) * X(2, 2)
        assert truncate(g, 1) == X(1, 2) + X(2, 2)
        with pytest.raises(ValueError):
            truncate(X(1, 2, power=-1), 3)


class TestPackedKernelAgainstReference:
    """The packed kernel against the tuple-keyed operators in helpers, on
    Laurent input and on operands of different variable counts."""

    @given(sized_terms())
    def test_round_trip(self, sized):
        n, terms = sized
        f = MultiPoly(n, terms)
        assert ref_terms(f) == {k: c for k, c in terms.items() if c}
        assert f.nvars == n

    @given(sized_terms(), sized_terms(), stgs.integers(-2, 2))
    def test_ring_operations(self, left, right, m):
        (n1, a), (n2, b) = left, right
        f, g = MultiPoly(n1, a), MultiPoly(n2, b)
        n = max(n1, n2)
        a, b = ref_embed(ref_terms(f), n), ref_embed(ref_terms(g), n)
        minus_b = {k: -c for k, c in b.items()}
        for got, want in ((f + g, ref_add(a, b)), (f - g, ref_add(a, minus_b)),
                          (f * g, ref_mul(a, b)), (g * f, ref_mul(a, b))):
            assert got.nvars == n
            assert ref_terms(got) == want
        assert (f == g) == (a == b)
        # full cancellation between operands in different nvars, and an int
        # minus a polynomial (through __rsub__)
        wide = f.embed(n1 + 1)
        w = ref_terms(wide)
        minus_w = {k: -c for k, c in w.items()}
        constant = {(0, (0,) * (n1 + 1)): m} if m else {}
        for got, want in ((f - wide, ref_add(w, minus_w)), (wide - f, ref_add(w, minus_w)),
                          (f + (-wide), ref_add(w, minus_w)),
                          (m - wide, ref_add(constant, minus_w))):
            assert got.nvars == n1 + 1
            assert ref_terms(got) == want

    @given(sized_terms())
    def test_embed_and_restrict(self, sized):
        n, terms = sized
        f = MultiPoly(n, terms)
        a = ref_terms(f)
        assert ref_terms(f.embed(n + 2)) == ref_embed(a, n + 2)
        assert f.embed(n + 2) == f
        for m in range(1, n):
            try:
                want = ref_restrict(a, m)
            except ValueError:
                with pytest.raises(ValueError):
                    f.restrict(m)
                continue
            assert ref_terms(f.restrict(m)) == want and f.restrict(m).nvars == m

    def test_restrict_dropped_signs(self):
        # a positive dropped exponent drops the term, even beside a negative one
        for exps in ((1, 2, -1), (1, -1, 2), (1, 1, 0), (1, 0, 3)):
            f = MultiPoly(3, {(0, (1, 0, 0)): 1, (1, exps): 5})
            assert f.restrict(1) == MultiPoly(1, {(0, (1,)): 1}), exps
            assert ref_restrict(ref_terms(f), 1) == {(0, (1,)): 1}
        # the call raises only when every dropped exponent is <= 0 and one is negative
        for exps in ((1, 0, -1), (1, -2, -1), (1, -1, 0)):
            f = MultiPoly(3, {(0, (1, 0, 0)): 1, (1, exps): 5})
            with pytest.raises(ValueError, match="negative exponent"):
                f.restrict(1)
            with pytest.raises(ValueError):
                ref_restrict(ref_terms(f), 1)
        # the kept variables may be negative
        g = MultiPoly(3, {(2, (-3, 0, 0)): 4, (0, (-1, 0, 2)): 1})
        assert g.restrict(1) == MultiPoly(1, {(2, (-3,)): 4})

    @given(sized_terms())
    # (1 + beta*x_2) * (x_1^2 - beta*x_1^2 x_2) cancels its beta*x_1^2 x_2
    @example((2, {(0, (2, 0)): 1, (1, (2, 1)): -1}))
    def test_operators(self, sized):
        n, terms = sized
        f = MultiPoly(n + 1, ref_embed(terms, n + 1))
        a = ref_terms(f)
        for i in range(1, n + 1):
            assert ref_terms(act_si(i, f)) == ref_act_si(i, a)
            assert ref_terms(divided_diff(i, f)) == ref_divided_diff(i, a)
            assert ref_terms(beta_divided_diff(i, f)) == ref_beta_divided_diff(i, a)
            assert ref_terms(isobaric(i, f)) == ref_isobaric(i, a)

    def test_isobaric_clipped(self, rng):
        # every bound from below the input to above it, so some inputs have
        # terms at exactly the bound, whose beta runs are the ones clipped
        for _ in range(40):
            n = rng.randint(2, 4)
            f = random_beta_poly(rng, nvars=n, max_deg=4, max_beta=3, terms=8)
            for d in range(-1, f.total_degree() + 2):
                g = truncate(f, d)
                a = ref_terms(g)
                for i in range(1, n):
                    got = isobaric(i, g, max_degree=d)
                    assert got.nvars == n
                    assert ref_terms(got) == ref_truncate(ref_isobaric(i, a), d)

    def test_add_multiple(self, rng):
        def check(f: MultiPoly, g: MultiPoly, c: BetaInt) -> dict:
            n = max(f.nvars, g.nvars)
            terms = dict(f.embed(n).terms)
            _add_multiple(terms, n, g, c)
            a, b = ref_embed(ref_terms(f), n), ref_embed(ref_terms(g), n)
            scale = {(p, (0,) * n): cp for p, cp in enumerate(c.coeffs) if cp}
            assert ref_terms(MultiPoly._raw(n, terms)) == ref_add(a, ref_mul(b, scale))
            return terms

        for _ in range(40):
            # operands of different variable counts, coefficients with zero
            # middle terms among them
            f = random_beta_poly(rng, nvars=rng.randint(1, 4))
            g = random_beta_poly(rng, nvars=rng.randint(1, 4))
            c = BetaInt(tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))))
            check(f, g, c)
        g = random_beta_poly(rng, nvars=2)
        # zero middle coefficients, each also cancelling its own multiple
        for c in (BetaInt((3, 0, -1)), BetaInt((2, 0, 0, -1)), BetaInt((0, 0, 5))):
            assert not c.coeffs[1]
            check(MultiPoly.one(3), g, c)
            check(g * BETA, g, c)
            assert check(g * c, g, -c) == {}
        assert check(g.embed(4) * BETA, g, -BETA) == {}

    def test_add_multiple_range(self):
        g = MultiPoly(2, {(BETA_MAX - 1, (1, 0)): 1, (0, (0, 0)): 2})
        terms = {}
        _add_multiple(terms, 2, g, BETA)
        assert MultiPoly._raw(2, terms) == g * BETA
        # nothing is written when the range check fails
        for c, text in ((BETA ** 2, RANGE_TEXT), (BetaInt((1, 0, 1)), RANGE_TEXT),
                        (BETA ** (BETA_MAX + 2), range_text(f"beta power {BETA_MAX + 2}"))):
            terms = dict(g.terms)
            assert range_error(_add_multiple, terms, 2, g, c) == text
            assert terms == g.terms
        # a power above BETA_MAX raises even on beta power 0, where the
        # beta field would wrap into x_2 instead of reaching its guard bit
        for top in (BETA_MAX + 1, 2 * BETA_MAX + 2):
            assert range_error(_add_multiple, {}, 2, MultiPoly.one(2), BETA ** top) == \
                range_text(f"beta power {top}")

    @given(sized_terms())
    def test_truncate_and_queries(self, sized):
        n, terms = sized
        f = MultiPoly(n, terms)
        a = ref_terms(f)
        degrees = [sum(e) for _, e in a]
        assert f.total_degree() == max(degrees, default=0)
        assert f.min_degree() == min(degrees, default=0)
        assert f.has_negative_exponents() == any(e < 0 for _, exps in a for e in exps)
        assert f.x_monomials() == {e for _, e in a}
        for d in range(-3, 5):
            assert ref_terms(f.degree_part(d)) == {k: c for k, c in a.items() if sum(k[1]) == d}
            if f.has_negative_exponents():
                with pytest.raises(ValueError):
                    truncate(f, d)
            else:
                assert ref_terms(truncate(f, d)) == ref_truncate(a, d)
        for exps in {e for _, e in a} | {(0,) * n}:
            coeffs = [0] * 4
            for (bp, e), c in a.items():
                if e == exps:
                    coeffs[bp] += c
            assert f.coefficient(exps) == BetaInt(tuple(coeffs))

    @given(sized_terms(), stgs.integers(1, 6))
    # (1 + beta*x_1) * (x_1 - beta*x_1^2) cancels its beta*x_1^2
    @example((2, {(0, (1, 0)): 1, (1, (2, 0)): -1}), 1)
    def test_times_one_plus_beta_x(self, sized, i):
        # i may exceed nvars: the product embeds f into x_1..x_i first
        n, terms = sized
        f = MultiPoly(n, terms)
        m = max(i, n)
        a = ref_embed(ref_terms(f), m)
        got = _times_one_plus_beta_x(i, f)
        assert got.nvars == m
        assert ref_terms(got) == ref_add(a, _ref_times(i, a, 1))


class TestPackedRange:
    """Exponents and beta powers at the edges of the packed fields."""

    def test_extreme_values_round_trip(self):
        # every field at an edge, next to neighbours at the opposite edge
        for exps in ((EXP_MAX, EXP_MIN, EXP_MAX), (EXP_MIN, EXP_MAX, EXP_MIN), (0, EXP_MAX, 0)):
            for bp in (0, BETA_MAX):
                f = MultiPoly(3, {(bp, exps): 5})
                assert list(f.iter_beta_terms()) == [(bp, exps, 5)]
                assert f.total_degree() == sum(exps)
                assert f.has_negative_exponents() == (EXP_MIN in exps)

    def test_pack_equals_loop(self):
        # one packing of all fields against the per-field loop, with every
        # field often at an edge of its range
        rng = random.Random(5)
        edges = (EXP_MIN, EXP_MIN + 1, -1, 0, 1, EXP_MAX - 1, EXP_MAX)
        for n in (1, 2, 3, 6, 20, 60):
            for _ in range(200):
                exps = tuple(rng.choice(edges) if rng.random() < 0.5
                             else rng.randint(EXP_MIN, EXP_MAX) for _ in range(n))
                bp = rng.choice((0, 1, BETA_MAX, rng.randint(0, BETA_MAX)))
                assert _layout(n).pack(bp, exps) == ref_pack(n, bp, exps), (bp, exps)

    def test_masks_equal_field_by_field(self):
        # fields from the bottom: beta in field 0, x_n .. x_1 in fields
        # 1 .. n, then the total degree; the key of 1 holds the bias in each
        # exponent field, the guard mask the guard bit of all but the top
        w = FIELD_BITS
        for n in range(1, 41):
            lay = _Layout(n)
            x_fields = range(1, n + 1)
            assert lay.zero == sum(_BIAS << (w * f) for f in x_fields), n
            assert lay.guard == sum(_GUARD << (w * f) for f in range(n + 1)), n
            assert lay.x_bias == sum(_BIAS << (w * (f - 1)) for f in x_fields), n
            assert lay.x_guard == sum(_GUARD << (w * f) for f in x_fields), n
        # the masks repeat one field, so many variables cost linear time
        lay = _Layout(100_000)
        assert lay.zero >> (w * 100_000) == _BIAS and lay.zero & (1 << w) - 1 == 0
        assert bin(lay.zero).count("1") == 100_000 and bin(lay.guard).count("1") == 100_001

    def test_pack_errors_equal_loop(self):
        # the same error for an out-of-range value in each field: beta is
        # checked first, then the exponents in order
        def error(pack, *args):
            with pytest.raises(ValueError) as info:
                pack(*args)
            return type(info.value), str(info.value)

        n = 4
        far = (-(1 << 15) - 1, 1 << 15, 1 << 40, -(1 << 40))
        cases = [(0, bad) for bad in (-1, BETA_MAX + 1) + far]
        cases += [(field, bad) for field in range(1, n + 1)
                  for bad in (EXP_MIN - 1, EXP_MAX + 1) + far]
        for field, bad in cases:
            for later in (None, EXP_MAX + 2):
                exps, bp = [EXP_MAX, EXP_MIN, 0, 3], BETA_MAX
                if later is not None:
                    exps[n - 1] = later
                if field:
                    exps[field - 1] = bad
                else:
                    bp = bad
                args = (bp, tuple(exps))
                want = error(ref_pack, n, *args)
                assert want[0] is ExponentRangeError
                assert error(_layout(n).pack, *args) == want, args
        for exps in ((), (0,) * (n - 1), (0,) * (n + 1)):
            assert error(_layout(n).pack, 0, exps) == error(ref_pack, n, 0, exps)
        for pack in (_layout(2).pack, lambda *args: ref_pack(2, *args)):
            with pytest.raises(TypeError):
                pack(0, (1.5, 0))

    def test_products_reach_the_edges(self):
        x = MultiPoly.x
        assert x(2, 3, EXP_MAX - 1) * x(2, 3) == x(2, 3, EXP_MAX)
        assert x(2, 3, EXP_MIN + 1) * x(2, 3, -1) == x(2, 3, EXP_MIN)
        top = MultiPoly(2, {(BETA_MAX - 1, (0, 0)): 1}) * MultiPoly.beta(2)
        assert list(top.iter_beta_terms()) == [(BETA_MAX, (0, 0), 1)]

    def test_constructors_reject_out_of_range(self):
        for exps in ((EXP_MAX + 1, 0), (0, EXP_MIN - 1)):
            with pytest.raises(ExponentRangeError, match="outside the packed range"):
                MultiPoly(2, {(0, exps): 1})
            with pytest.raises(ExponentRangeError):
                MultiPoly.monomial(exps)
        for bp in (-1, BETA_MAX + 1):
            with pytest.raises(ExponentRangeError, match=f"beta powers 0..{BETA_MAX}"):
                MultiPoly(2, {(bp, (0, 0)): 1})
        with pytest.raises(ExponentRangeError):
            MultiPoly.x(1, 2, power=EXP_MAX + 1)
        assert issubclass(ExponentRangeError, ValueError)

    @pytest.mark.parametrize("field", range(4))
    def test_overflow_raises_instead_of_wrapping(self, field):
        # field 0 is beta, fields 1..3 are x_1..x_3; every neighbour of the
        # overflowing field holds a value a carry or a borrow would change
        def poly(bp, exps):
            return MultiPoly(3, {(bp, exps): 1})

        exps = [1, 2, 3]
        if field == 0:
            bp, step = BETA_MAX, MultiPoly.beta(3)
        else:
            exps[field - 1] = EXP_MAX
            bp, step = 1, MultiPoly.x(field, 3)
        f = poly(bp, tuple(exps))
        assert range_error(lambda: f * step) == RANGE_TEXT
        assert range_error(lambda: step * f) == RANGE_TEXT
        # the product with 1 + beta*x_i raises x_i and the beta power, and
        # a multiple by a power of beta raises only the beta power
        assert range_error(_times_one_plus_beta_x, max(field, 1), f) == RANGE_TEXT
        assert range_error(_add_multiple, {}, 3, f, BETA ** (BETA_MAX - bp + 1)) == RANGE_TEXT
        if field:
            low = list(exps)
            low[field - 1] = EXP_MIN
            with pytest.raises(ExponentRangeError):
                poly(1, tuple(low)) * MultiPoly.x(field, 3, power=-1)

    def test_operators_raise_at_the_edge(self):
        x = MultiPoly.x
        with pytest.raises(ExponentRangeError):
            isobaric(1, x(1, 2, EXP_MAX))           # multiplies by x_1
        with pytest.raises(ExponentRangeError):
            isobaric(1, x(2, 2, EXP_MAX))           # then by 1 + beta x_2
        with pytest.raises(ExponentRangeError):
            isobaric(1, MultiPoly(2, {(BETA_MAX, (0, 0)): 1}))
        with pytest.raises(ExponentRangeError):
            # a symmetric pair writes no beta run, and still raises
            isobaric(1, x(1, 2, EXP_MAX) + x(2, 2, EXP_MAX))
        # clipped at the input's degree, the beta runs are dropped and the
        # same error is raised
        for f in (x(1, 2, EXP_MAX), x(2, 2, EXP_MAX), MultiPoly(2, {(BETA_MAX, (0, 0)): 1}),
                  MultiPoly(2, {(BETA_MAX, (0, 1)): 1})):
            with pytest.raises(ExponentRangeError) as unclipped:
                isobaric(1, f)
            with pytest.raises(ExponentRangeError) as clipped:
                isobaric(1, f, max_degree=f.total_degree())
            assert str(clipped.value) == str(unclipped.value)
        with pytest.raises(ExponentRangeError):
            beta_divided_diff(1, x(2, 2, EXP_MAX))  # multiplies by 1 + beta x_2
        with pytest.raises(ExponentRangeError):
            beta_divided_diff(1, MultiPoly(2, {(BETA_MAX, (0, 1)): 1}))
        # at the edge itself they still work
        assert divided_diff(1, x(1, 2, EXP_MAX)).total_degree() == EXP_MAX - 1
        assert isobaric(2, x(1, 3, EXP_MAX)) == x(1, 3, EXP_MAX)
        assert isobaric(2, x(1, 3, EXP_MAX), max_degree=EXP_MAX) == x(1, 3, EXP_MAX)
        assert isobaric(1, MultiPoly(2, {(BETA_MAX - 1, (1, 0)): 1})) == \
            MultiPoly(2, {(BETA_MAX - 1, (1, 0)): 1, (BETA_MAX - 1, (0, 1)): 1,
                          (BETA_MAX, (1, 1)): 1})


def streamed(serializer) -> list[str]:
    """The pieces a serializer passes to its write callable; it returns None."""
    pieces: list[str] = []
    assert serializer(pieces.append) is None
    return pieces


class TestSerialization:
    def test_canonical_text(self):
        f = oplus(X(1, 2), X(2, 2))
        assert f.canonical_text() == "[1] * x2 + [1] * x1 + [0,1] * x1 x2"
        assert MultiPoly.zero(3).canonical_text() == "0"
        assert (X(1, 1, power=-2)).canonical_text() == "[1] * x1^-2"

    @given(sized_terms())
    def test_canonical_text_matches_term_route(self, sized):
        # 1 to 4 variables: an odd variable count splits the memo halves
        # unevenly, and one variable leaves the second half empty
        f = MultiPoly(*sized)
        assert f.canonical_text() == oracle_canonical_text(f)
        assert "".join(streamed(f.canonical_text)) == f.canonical_text()

    def test_canonical_text_mixed_beta_coefficients(self):
        f = (X(1, 2) + X(1, 2) * BETA * BETA * 3 - MultiPoly.beta(2) * 2
             + X(2, 2, power=3) * BETA)
        assert f.canonical_text() == "[0,-2] + [1,0,3] * x1 + [0,1] * x2^3"
        assert f.canonical_text() == oracle_canonical_text(f)

    @given(sized_terms())
    def test_json_matches_term_route(self, sized):
        f = MultiPoly(*sized)
        assert f.canonical_json_terms() == oracle_json_text(f)
        assert "".join(streamed(f.canonical_json_terms)) == f.canonical_json_terms()
        for t in oracle_json_obj(f):
            assert f.coefficient(t["exps"]).coeffs == tuple(t["beta"])

    def test_json_round_stability(self):
        f = oplus(X(1, 3), X(2, 3)) * X(3, 3)
        assert f.canonical_json_terms() == f.canonical_json_terms()
        assert json.loads(f.canonical_json_terms())[0] == {"beta": [1], "exps": [0, 1, 1]}

    def test_walk_across_chunks(self):
        # more terms than two chunks, runs of beta powers with gaps, and
        # negative exponents
        g = sp_grothendieck(FpfInvolution.top(8))
        assert len(g.terms) == 9501
        f = g + g * BETA * 3 + g * X(1, 1, power=-2) + g * BETA ** 3 * X(8, 8)
        assert len(f.x_monomials()) > 2 * _CHUNK
        assert len(f.terms) > len(f.x_monomials())
        assert f.canonical_text() == oracle_canonical_text(f)
        assert f.canonical_json_terms() == oracle_json_text(f)

    def test_walk_small_and_boundary_cases(self):
        polys = [MultiPoly.zero(1), MultiPoly.zero(4), MultiPoly.one(1),
                 MultiPoly(1, {(0, (-3,)): 2, (2, (-3,)): -1, (5, (0,)): 7, (1, (4,)): 1}),
                 MultiPoly(2, {(3, (0, 0)): 1, (0, (0, -1)): 2})]
        # a chunk filled exactly, and one term past it
        for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK):
            polys.append(MultiPoly(1, {(e % 3, (e,)): e + 1 for e in range(n)}))
        # runs of one to three beta powers on each side of every chunk edge
        polys.append(MultiPoly(2, {(b, (e, 1)): e + b + 1 for e in range(2 * _CHUNK + 1)
                                   for b in range(e % 3 + 1)}))
        for f in polys:
            assert f.canonical_text() == oracle_canonical_text(f)
            assert f.canonical_json_terms() == oracle_json_text(f)
            assert "".join(streamed(f.canonical_text)) == f.canonical_text()
            assert "".join(streamed(f.canonical_json_terms)) == f.canonical_json_terms()
        assert MultiPoly.zero(3).canonical_text() == "0"
        assert MultiPoly.zero(3).canonical_json_terms() == "[]"
        assert streamed(MultiPoly.zero(3).canonical_text) == ["0"]
        assert streamed(MultiPoly.zero(3).canonical_json_terms) == ["[", "]"]
        # whole chunks of terms, each "[...] * ..." or {"beta":...}, with the
        # separators written between them
        text = streamed(polys[-1].canonical_text)
        assert text[1::2] == [" + "] * 2
        assert [piece.count("] * ") for piece in text[::2]] == [_CHUNK, _CHUNK, 1]
        json_ = streamed(polys[-1].canonical_json_terms)
        assert json_[::2] == ["[", ",", ",", "]"]
        assert [piece.count('{"beta"') for piece in json_[1::2]] == [_CHUNK, _CHUNK, 1]
        assert polys[3].canonical_json_terms() == \
            '[{"beta":[2,0,-1],"exps":[-3]},{"beta":[0,0,0,0,0,7],"exps":[0]},' \
            '{"beta":[0,1],"exps":[4]}]'

    def test_symmetrize_check(self):
        f = oplus(X(1, 2), X(2, 2))
        assert symmetrize_check(f, 2, 2)
        assert not symmetrize_check(X(1, 2), 2, 2)
        # modulo degree: the asymmetric part lies above the bound
        g = f + X(1, 2) ** 3
        assert symmetrize_check(g, 2, 2)
        assert not symmetrize_check(g, 2, 3)
        # f is read in the window's variables: x1 + x2 is not symmetric in
        # x1, x2, x3, while a constant is
        for d in (1, 2, 3):
            assert not symmetrize_check(X(1, 2) + X(2, 2), 3, d)
            assert symmetrize_check(MultiPoly.one(1), 4, d)
        # variables beyond the window may break the symmetry freely
        assert symmetrize_check(X(1, 3) + X(2, 3) + X(3, 3) ** 2, 2, 2)


class TestChainLemmas:
    """The four auxiliary operator identities used by the closed formulas."""

    def test_monomial_chain_values(self):
        # descending beta-chain on a power of the first variable
        for a in (1, 2):
            for b in range(a, a + 5):
                for e in range(0, b - a + 1):
                    f = MultiPoly.x(a, b + 1) ** e if e else MultiPoly.one(b + 1)
                    got = apply_word(beta_divided_diff, tuple(range(b - 1, a - 1, -1)), f)
                    want = MultiPoly.constant((-BETA) ** (b - a - e), b + 1)
                    assert got == want, (a, b, e)

    def test_isobaric_chain_via_beta_chain(self, rng):
        # pi_{b \ a} f == beta-chain of x_a^(b-a) f, for f fixed by the
        # swaps strictly inside the chain (so symmetric in x_{a+1}..x_b)
        for a, b in [(1, 2), (1, 3), (2, 4), (1, 4)]:
            word = tuple(range(b - 1, a - 1, -1))
            for _ in range(6):
                raw = random_beta_poly(rng, nvars=b + 1, max_deg=2)
                f = symmetrize_block(raw, a + 1, b) if b - a >= 2 else raw
                for i in range(a + 1, b):
                    assert act_si(i, f) == f
                lhs = apply_word(isobaric, word, f)
                rhs = apply_word(beta_divided_diff, word, MultiPoly.x(a, b + 1) ** (b - a) * f)
                assert lhs == rhs

    def test_isobaric_long_word_via_beta_chain(self, rng):
        # pi over the reversal == beta-chain applied to the staircase times f
        for n in (2, 3, 4):
            word = reduced_word(Permutation.longest(n))
            stair = MultiPoly.one(n)
            for t in range(n - 1):
                stair = stair * MultiPoly.x(t + 1, n) ** (n - 1 - t)
            for _ in range(6):
                f = random_beta_poly(rng, nvars=n, max_deg=2, laurent=True)
                assert (apply_word(isobaric, word, f)
                        == apply_word(beta_divided_diff, word, stair * f))

    def test_shifted_long_word_twist(self, rng):
        # the beta-chain over a shifted reversal equals the plain chain
        # applied after multiplying in the (1 + beta x)-power correction
        for m in (0, 1, 2):
            for n in (2, 3):
                w = shift_perm(m, Permutation.longest(n))
                word = reduced_word(w)
                nv = m + n
                corr = MultiPoly.one(nv)
                for j in range(2, n + 1):
                    corr = corr * (1 + MultiPoly.beta(nv) * MultiPoly.x(m + j, nv)) ** (j - 1)
                for _ in range(5):
                    f = random_beta_poly(rng, nvars=nv, max_deg=2)
                    assert (apply_word(beta_divided_diff, word, f)
                            == apply_word(divided_diff, word, corr * f))
