import pytest

from spgroth.coxeter import (
    FpfInvolution,
    all_fpf_involutions,
    all_permutations,
    fpf_length,
    parse_fpf,
    parse_permutation,
    perm_length,
)
from spgroth.grothendieck import (
    ExpansionDegreeError,
    _combination,
    _is_beta_homogeneous,
    _sp_climb,
    beta_rescale_check,
    beta_divided_diff,
    expand_in_grothendieck_basis,
    expand_in_grothendieck_basis_censored,
    grothendieck,
    is_sp_dominant,
    lenart_signed_terms,
    schubert,
    sp_dominant_poly,
    sp_grothendieck,
    sp_transition_recurrence,
    verify_lenart_transition,
    verify_sp_transition,
)
from spgroth.polyring import BETA_MAX, BetaInt, ExponentRangeError, MultiPoly

from helpers import (
    LENART_13452_SIGNED,
    S3_TABLE,
    SP4_TABLE,
    SP_351624_TERMS,
    ascent_chain_to_top,
    flagged_hecke_groth,
    flagged_hecke_sp_groth,
    fpf_ascents,
    is_homogeneous,
    oracle_fpf_length,
    oracle_is_sp_dominant,
    oracle_lenart_signed_terms,
    oracle_beta_rescale,
    oracle_beta_zero,
    oracle_expand_groth,
    oracle_grothendieck,
    oracle_sp_dominance_distance,
    oracle_sp_dominant_poly,
    oracle_sp_grothendieck,
    poly_from_beta_terms,
    random_beta_poly,
)

X = MultiPoly.x


class TestGrothendieckTable:
    def test_rank_three_table(self):
        for word, rows in S3_TABLE.items():
            w = parse_permutation(word)
            assert grothendieck(w) == poly_from_beta_terms(3, rows), word

    def test_nvars_embedding(self):
        g = grothendieck(parse_permutation("132")).embed(5)
        assert g.nvars == 5
        assert g == grothendieck(parse_permutation("132"))
        # the result lives in the support; x_support is unused, x_(support-1) is not
        g = grothendieck(parse_permutation("321"))
        assert g.nvars == 3
        assert g.restrict(2) == g
        assert g.restrict(1) != g

    def test_sp_nvars_embedding(self):
        z = parse_fpf("4,3,2,1")
        assert sp_grothendieck(z).embed(5) == sp_grothendieck(z)
        assert sp_grothendieck(z).nvars == 3
        # below support - 1 the restriction drops terms: 4,3,2,1 has 8
        # terms, of which only x1^2 survives in one variable
        for nvars in (1, 2):
            assert sp_grothendieck(z).restrict(nvars) != sp_grothendieck(z)
        assert len(sp_grothendieck(z).restrict(1).x_monomials()) == 1
        w = parse_fpf("351624")
        assert sp_grothendieck(w).nvars == 6
        assert sp_grothendieck(w).restrict(5) == sp_grothendieck(w)

    def test_recursion_consistency(self):
        beta = MultiPoly.beta(1)
        for w in all_permutations(4):
            for i in range(1, 5):
                g = grothendieck(w).embed(5)
                if w(i) > w(i + 1):
                    assert beta_divided_diff(i, g) == grothendieck(w.times_s(i))
                else:
                    assert beta_divided_diff(i, g) == -beta * g


class TestSchubert:
    def test_examples(self):
        assert schubert(parse_permutation("132")) == X(1, 2) + X(2, 2)
        assert schubert(parse_permutation("312")) == X(1, 1) ** 2
        assert schubert(parse_permutation("123")) == MultiPoly.one(1)

    def test_lowest_degree_part(self):
        for w in all_permutations(4):
            s = schubert(w)
            assert is_homogeneous(s)
            assert s.min_degree() == perm_length(w)

    def test_equals_beta_zero_part(self):
        for w in all_permutations(6):
            assert schubert(w) == oracle_beta_zero(grothendieck(w)), w

    def test_lex_least_monomial_is_the_code(self):
        # the triangularity that the expansion pivot relies on
        for n in (4, 5):
            for w in all_permutations(n):
                if not w.oneline:
                    continue
                monomials = schubert(w).x_monomials()
                least = min(m for m in monomials)
                trimmed = tuple(least)
                while trimmed and trimmed[-1] == 0:
                    trimmed = trimmed[:-1]
                assert trimmed == w.code()
                assert schubert(w).coefficient(least) == BetaInt.of(1)


class TestSpGrothendieck:
    def test_rank_four_table(self):
        for word, rows in SP4_TABLE.items():
            z = parse_fpf(word)
            assert sp_grothendieck(z) == poly_from_beta_terms(3, rows), word

    def test_smallest_non_dominant(self):
        z = parse_fpf("351624")
        assert sp_grothendieck(z) == poly_from_beta_terms(4, SP_351624_TERMS)
        assert len(sp_grothendieck(z).x_monomials()) == 30

    def test_recursion_consistency(self):
        beta = MultiPoly.beta(1)
        for z in all_fpf_involutions(6):
            g = sp_grothendieck(z).embed(7)
            for i in range(1, 7):
                if i + 1 != z(i) and z(i) > z(i + 1) and z(i + 1) != i:
                    assert beta_divided_diff(i, g) == sp_grothendieck(z.conj_s(i))
                else:
                    assert beta_divided_diff(i, g) == -beta * g

    def test_chain_rule_independence(self):
        # computing inside a larger ambient rank gives the same polynomial
        for z in all_fpf_involutions(4):
            top = FpfInvolution.top(6)
            word = ascent_chain_to_top(z, 6)
            f = sp_grothendieck(top)
            for i in reversed(word):
                f = beta_divided_diff(i, f.embed(max(f.nvars, i + 1)))
            assert f == sp_grothendieck(z)

    def test_bottom_is_homogeneous_of_fpf_length(self):
        for z in all_fpf_involutions(6):
            bottom = oracle_beta_zero(sp_grothendieck(z))
            assert is_homogeneous(bottom)
            assert bottom.min_degree() == fpf_length(z)


class TestSpDominant:
    def test_examples(self):
        assert is_sp_dominant(FpfInvolution.theta_involution())
        assert sp_dominant_poly(FpfInvolution.theta_involution()) == MultiPoly.one(1)
        assert is_sp_dominant(parse_fpf("4321"))
        assert not is_sp_dominant(parse_fpf("351624"))
        with pytest.raises(ValueError):
            sp_dominant_poly(parse_fpf("351624"))
        f = sp_dominant_poly(parse_fpf("4321"), nvars=5)
        assert f.nvars == 5 and f == sp_dominant_poly(parse_fpf("4321"))
        with pytest.raises(ValueError):
            sp_dominant_poly(parse_fpf("4321"), nvars=2)

    def test_product_equals_recursion(self):
        # against the top-descent oracle: production seeds with the product
        for n in (4, 6):
            z = FpfInvolution.top(n)
            assert is_sp_dominant(z)
            assert sp_dominant_poly(z) == oracle_sp_grothendieck(z)
        for z in all_fpf_involutions(6):
            if is_sp_dominant(z):
                assert sp_dominant_poly(z) == oracle_sp_grothendieck(z)

    def test_product_equals_chain_of_products(self):
        # the Kronecker product against one generic product per cell: every
        # Sp-dominant involution of rank <= 8, and those of rank 10 with at
        # most 50,000 terms.  No rank-10 product of 16 or more cells is that
        # small; tests/check_sp_dominant_rank10.py checks this and compares
        # all 126
        for z in all_fpf_involutions(8):
            if is_sp_dominant(z):
                f, g = sp_dominant_poly(z), oracle_sp_dominant_poly(z)
                assert f.nvars == g.nvars and f.terms == g.terms, z
        small = 0
        for z in all_fpf_involutions(10):
            if is_sp_dominant(z) and fpf_length(z) <= 15:
                f = sp_dominant_poly(z)
                if len(f.terms) <= 50_000:
                    small += 1
                    g = oracle_sp_dominant_poly(z)
                    assert f.nvars == g.nvars and f.terms == g.terms, z
        assert small == 85


def _same_output(f: MultiPoly, g: MultiPoly) -> bool:
    """Equal as printed: text, JSON terms and variable count."""
    return (f.canonical_text() == g.canonical_text() and f.canonical_json_terms() == g.canonical_json_terms()
            and f.nvars == g.nvars)


class TestTopDescentOracle:
    """Seeding each family at a dominant ancestor changes no output against
    descending from the top element: an involution at a nearest Sp-dominant
    one (a shortest climb), a permutation at the dominant one its first
    ascents reach, which need not be the nearest."""

    def test_sp_family_rank_8(self):
        # rank 8 holds every smaller involution too, trimmed to canonical form
        for z in all_fpf_involutions(8):
            assert _same_output(sp_grothendieck(z), oracle_sp_grothendieck(z)), z

    def test_permutation_family_rank_6(self):
        for w in all_permutations(6):
            assert _same_output(grothendieck(w), oracle_grothendieck(w)), w


class TestFlaggedHeckeSums:
    """Both families against their Hecke-word sums, the one oracle that
    runs no divided difference and no oplus of the kernel."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_family(self, n):
        sums = flagged_hecke_groth(n)
        assert set(sums) == set(all_permutations(n))
        for w, f in sums.items():
            assert f == grothendieck(w), w

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sp_family(self, n):
        sums = flagged_hecke_sp_groth(n)
        assert set(sums) == set(all_fpf_involutions(n))
        for z, f in sums.items():
            assert f == sp_grothendieck(z), z


# the deep elements drawn by the benchmark's rank-10 family workload
# (DEEP in perfbench/run.py); by first ascents each climbs 11-12 steps
DEEP_RANK_10 = ("2,1,4,3,6,5,9,10,7,8", "2,1,4,3,7,9,5,10,6,8", "2,1,5,6,3,4,9,10,7,8",
                "3,4,1,2,6,5,9,10,7,8")


class TestSpClimb:
    """The symplectic family climbs by a shortest route to an Sp-dominant
    involution, against a breadth-first search."""

    @staticmethod
    def _check_climb(z: FpfInvolution) -> None:
        steps = _sp_climb(z.oneline)[0]
        assert steps == oracle_sp_dominance_distance(z), z
        for left in range(steps, 0, -1):
            got, i = _sp_climb(z.oneline)
            assert got == left and i in fpf_ascents(z), z
            y = z.conj_s(i)
            assert oracle_fpf_length(y) == oracle_fpf_length(z) + 1, (z, i)
            z = y
        assert _sp_climb(z.oneline) == (0, 0) and oracle_is_sp_dominant(z), z

    def test_shortest_up_to_rank_8(self):
        # rank 8 holds every smaller involution too, trimmed to canonical form
        for z in all_fpf_involutions(8):
            self._check_climb(z)

    @pytest.mark.parametrize("word", DEEP_RANK_10)
    def test_shortest_deep_rank_10(self, word):
        self._check_climb(parse_fpf(word))

    def test_ties_go_to_least_ascent(self):
        for z in all_fpf_involutions(8):
            steps, i = _sp_climb(z.oneline)
            if steps:
                shortest = [j for j in fpf_ascents(z)
                            if oracle_sp_dominance_distance(z.conj_s(j)) == steps - 1]
                assert i == shortest[0], z

    def test_dominance_against_diagram(self):
        for z in all_fpf_involutions(10):
            assert is_sp_dominant(z) == oracle_is_sp_dominant(z), z


class TestLenartTransition:
    def test_identity_element(self):
        chk = verify_lenart_transition(parse_permutation("123"), 1)
        assert chk.equal and chk.signed_equal

    def test_paper_signed_example(self):
        v = parse_permutation("13452")
        got = {(tuple(w.oneline), s, p) for w, s, p in lenart_signed_terms(v, 3)}
        assert got == LENART_13452_SIGNED
        chk = verify_lenart_transition(v, 3)
        assert chk.equal and chk.signed_equal

    def test_small_sweep(self):
        for v in all_permutations(3):
            for k in range(1, 5):
                chk = verify_lenart_transition(v, k)
                assert chk.equal and chk.signed_equal, (v, k)

    def test_signed_terms_against_length_oracle(self):
        # the same tuple, order included, for every k up to one past the rank
        for n in range(1, 6):
            for v in all_permutations(n):
                for k in range(1, n + 2):
                    assert lenart_signed_terms(v, k) == oracle_lenart_signed_terms(v, k), (v, k)

    def test_index_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"need k >= 1, got {k}"):
                verify_lenart_transition(parse_permutation("132"), k)


class TestSpTransition:
    def test_base_case(self):
        chk = verify_sp_transition(FpfInvolution.theta_involution(), 1, 2)
        assert chk.equal

    def test_paper_example_terms(self):
        v = FpfInvolution.from_cycles([(1, 2), (3, 5), (4, 8), (6, 7)])
        chk = verify_sp_transition(v, 3, 5)
        assert chk.equal
        # right side is the three-term sum from the worked example
        beta = MultiPoly.beta(1)
        want = (sp_grothendieck(v)
                + beta * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 8), (4, 5), (6, 7)]))
                + beta * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 6), (4, 8), (5, 7)]))
                + beta * beta * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 8), (4, 6), (5, 7)])))
        assert chk.rhs == want

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_sp_transition(parse_fpf("3412"), 1, 2)

    def test_small_sweep(self):
        for v in all_fpf_involutions(4):
            for j, k in v.arcs():
                assert verify_sp_transition(v, j, k).equal, (v, j, k)


class TestRecurrence:
    def test_examples(self):
        rc = sp_transition_recurrence(parse_fpf("3412"))
        assert rc.certified and (rc.k, rc.l, rc.j) == (2, 3, 1)
        assert rc.v == FpfInvolution.theta_involution()
        rc = sp_transition_recurrence(parse_fpf("4321"))
        assert rc.certified

    def test_theta_raises(self):
        with pytest.raises(ValueError):
            sp_transition_recurrence(FpfInvolution.theta_involution())

    def test_small_sweep(self):
        for z in all_fpf_involutions(4):
            if z == FpfInvolution.theta_involution():
                continue
            assert sp_transition_recurrence(z).certified


class TestExpansion:
    def test_monomial_examples(self):
        e = expand_in_grothendieck_basis(X(1, 1), 4)
        assert e.as_dict() == {parse_permutation("21"): BetaInt.of(1)}
        e = expand_in_grothendieck_basis(sp_grothendieck(parse_fpf("3412")), 4)
        assert e.as_dict() == {parse_permutation("132"): BetaInt.of(1)}
        # pivots in three variables (312, 132, 231) for inputs in fewer
        e = expand_in_grothendieck_basis(X(1, 1, power=2), 4)
        assert e.as_dict() == {parse_permutation("312"): BetaInt.of(1)}
        e = expand_in_grothendieck_basis(X(2, 2), 4)
        assert e.as_dict() == {parse_permutation("132"): BetaInt.of(1),
                               parse_permutation("21"): BetaInt.of(-1),
                               parse_permutation("231"): -BetaInt.beta()}

    def test_basis_round_trip(self):
        for w in all_permutations(4):
            e = expand_in_grothendieck_basis(grothendieck(w), 10)
            assert e.as_dict() == {w: BetaInt.of(1)}

    def test_reconstruction_and_linearity(self, rng):
        words = [w for w in all_permutations(3)]
        for _ in range(5):
            coeffs = {w: BetaInt((rng.randint(-2, 2), rng.randint(-1, 1))) for w in words}
            f = MultiPoly.zero(3)
            for w, c in coeffs.items():
                f = f + grothendieck(w) * c
            e = expand_in_grothendieck_basis(f, 10)
            assert e.as_dict() == {w: c for w, c in coeffs.items() if c}
            rebuilt = MultiPoly.zero(3)
            for w, c in e.terms:
                rebuilt = rebuilt + grothendieck(w) * c
            assert rebuilt == f

    def test_additivity(self, rng):
        f = grothendieck(parse_permutation("321")) + grothendieck(parse_permutation("231")) * 2
        g = grothendieck(parse_permutation("312")) * BetaInt.beta()
        ef = expand_in_grothendieck_basis(f, 8).as_dict()
        eg = expand_in_grothendieck_basis(g, 8).as_dict()
        both = expand_in_grothendieck_basis(f + g, 8).as_dict()
        keys = set(ef) | set(eg)
        assert both == {w: ef.get(w, BetaInt()) + eg.get(w, BetaInt()) for w in keys if
                        ef.get(w, BetaInt()) + eg.get(w, BetaInt())}

    def test_max_deg_error_carries_residual(self):
        f = X(1, 2) + X(2, 2)  # expansion needs degree 2
        with pytest.raises(ExpansionDegreeError) as info:
            expand_in_grothendieck_basis(f, 1)
        assert info.value.residual
        assert info.value.residual.min_degree() == 2

    def test_censored_expansion_matches_prefix(self):
        f = sp_grothendieck(parse_fpf("4321"))
        full = expand_in_grothendieck_basis(f, 12).as_dict()
        part = expand_in_grothendieck_basis_censored(f, 2).as_dict()
        assert part == {w: c for w, c in full.items() if perm_length(w) <= 2}

    def test_laurent_input_rejected(self):
        with pytest.raises(ValueError):
            expand_in_grothendieck_basis(X(1, 1, power=-1), 4)


def _same_as_oracle(f: MultiPoly, max_deg: int) -> None:
    """The exact expansion and the censored one against the two-level oracle
    loop: the same terms in the same order, or, for the exact expansion past
    max_deg, the same error text and the same residual."""
    try:
        want = oracle_expand_groth(f, max_deg, censor=False)
    except ExpansionDegreeError as oracle_error:
        with pytest.raises(ExpansionDegreeError) as info:
            expand_in_grothendieck_basis(f, max_deg)
        assert str(info.value) == str(oracle_error)
        got, residual = info.value.residual, oracle_error.residual
        assert (got.nvars, got.terms) == (residual.nvars, residual.terms)
    else:
        assert expand_in_grothendieck_basis(f, max_deg).terms == want
    assert (expand_in_grothendieck_basis_censored(f, max_deg).terms
            == oracle_expand_groth(f, max_deg, censor=True))


class TestPeelAgainstOracle:
    """The one-loop peel against the two-level oracle loop, which expands a
    whole degree in Schubert polynomials before touching the remainder."""

    def test_sp_family_to_rank_6(self):
        for n in (2, 4, 6):
            for z in all_fpf_involutions(n):
                _same_as_oracle(sp_grothendieck(z), 40)

    def test_basis_elements_of_s4(self):
        for w in all_permutations(4):
            _same_as_oracle(grothendieck(w), 40)

    def test_random_polynomials_at_every_bound(self, rng):
        seen_error = seen_negative = 0
        for _ in range(50):
            f = random_beta_poly(rng, nvars=rng.randint(1, 3))
            seen_negative += any(c < 0 for c in f.terms.values())
            top = max((perm_length(w) for w, _ in oracle_expand_groth(f, 40, censor=False)),
                      default=0)
            for max_deg in range(top + 1):
                _same_as_oracle(f, max_deg)
            seen_error += top > f.min_degree()
        assert seen_error and seen_negative

    def test_censored_at_every_cutoff_at_rank_6(self):
        for z in all_fpf_involutions(6):
            f = sp_grothendieck(z)
            full = oracle_expand_groth(f, 40, censor=False)
            for cutoff in range(perm_length(full[-1][0]) + 2):
                got = expand_in_grothendieck_basis_censored(f, cutoff).terms
                assert got == oracle_expand_groth(f, cutoff, censor=True), (z, cutoff)
                assert got == tuple((w, c) for w, c in full if perm_length(w) <= cutoff)

    def test_max_deg_error_text_and_residual(self):
        f = sp_grothendieck(parse_fpf("4321"))
        _same_as_oracle(f, fpf_length(parse_fpf("4321")))
        with pytest.raises(ExpansionDegreeError) as info:
            expand_in_grothendieck_basis(f, 2)
        assert str(info.value) == "expansion exceeded max_deg=2 (bottom degree 3)"
        found = expand_in_grothendieck_basis_censored(f, 2).terms
        assert found
        assert info.value.residual == f - sum((grothendieck(w) * c for w, c in found),
                                              MultiPoly.zero(f.nvars))


class TestCombination:
    """The one-dict sum of basis elements times Z[beta] coefficients against
    the generic sum of products."""

    @staticmethod
    def generic(basis, terms: dict, nvars: int) -> MultiPoly:
        f = MultiPoly.zero(nvars)
        for index, c in terms.items():
            f = f + basis(index) * c
        return f

    def check(self, basis, terms: dict, nvars: int) -> MultiPoly:
        got = _combination(basis, terms, nvars)
        want = self.generic(basis, terms, nvars)
        assert got.nvars == want.nvars
        assert got.terms == want.terms
        return got

    def test_against_generic_sum(self, rng):
        words = list(all_permutations(4))
        for _ in range(10):
            # zero middle coefficients and zero coefficients among them
            terms = {w: BetaInt(tuple(rng.randint(-1, 1) for _ in range(3)))
                     for w in rng.sample(words, 6)}
            self.check(grothendieck, terms, 1)
        terms = {parse_permutation("21"): BetaInt((2, 0, -1)),
                 parse_permutation("1342"): BetaInt.of(0)}
        # basis elements in 2 and 4 variables; the zero coefficient still widens
        assert self.check(grothendieck, terms, 1).nvars == 4

    def test_full_cancellation(self):
        w, u = parse_permutation("231"), parse_permutation("312")
        basis = {w: grothendieck(w), u: grothendieck(w).embed(5)}.get
        c = BetaInt((1, 0, 2))
        got = self.check(basis, {w: c, u: -c}, 2)
        assert not got and got.nvars == 5

    def test_beta_power_overflow(self):
        top = MultiPoly(2, {(BETA_MAX, (1, 0)): 1})
        with pytest.raises(ExponentRangeError):
            _combination({0: top}.get, {0: BetaInt.beta()}, 1)
        with pytest.raises(ExponentRangeError):
            self.generic({0: top}.get, {0: BetaInt.beta()}, 1)


class TestBetaRescale:
    def test_examples(self):
        assert beta_rescale_check(parse_permutation("123"))
        assert beta_rescale_check(parse_permutation("132"))

    def test_small_sweep(self):
        for w in all_permutations(3):
            assert beta_rescale_check(w)

    def test_agrees_with_the_rescale_equation(self):
        for w in all_permutations(6):
            assert beta_rescale_check(w) == oracle_beta_rescale(grothendieck(w), perm_length(w))

    def test_homogeneity_is_the_rescale_equation(self, rng):
        verdicts = set()
        for _ in range(400):
            n, ell = rng.randint(1, 3), rng.randint(0, 4)
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                # half the terms are drawn of the weight ell when they can be
                bp = sum(exps) - ell
                if bp < 0 or rng.random() < 0.5:
                    bp = rng.randint(0, 3)
                terms[(bp, exps)] = rng.randint(-2, 2)
            f = MultiPoly(n, terms)
            verdict = _is_beta_homogeneous(f, ell)
            assert verdict == oracle_beta_rescale(f, ell), (terms, ell)
            verdicts.add(verdict)
        assert verdicts == {True, False}
