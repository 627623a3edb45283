import pytest

from spgroth.coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    all_fpf_involutions,
    all_permutations,
    bruhat_cover_up,
    conj_word,
    dearc,
    fpf_cover_up,
    fpf_length,
    fpf_transition_indices,
    format_word,
    is_fpf_grassmannian,
    parse_fpf,
    parse_permutation,
    partitions_of,
    perm_length,
    reduced_word,
    shift_fpf,
    sp_code,
    sp_rothe_diagram,
    sp_shape,
    theta,
    transition_indices_perm,
    transpose_partition,
    visible_descents,
)

from helpers import (
    ascent_chain_to_top,
    conj_by_transposition,
    fpf_grassmannian_from_shape,
    grassmannian_perm,
    oracle_fpf_length,
    oracle_inversions,
    oracle_is_fpf_grassmannian,
    oracle_lex_least_reduced_word,
    oracle_min_conjugating_length,
    oracle_partitions_of,
    oracle_strict_partitions_of,
    permutation_from_word,
    shift_perm,
)

THETA = FpfInvolution.theta_involution()


class TestPermutationBasics:
    def test_canonical_form(self):
        assert Permutation.from_oneline([1, 2, 3]) == Permutation.identity()
        assert Permutation.from_oneline([2, 1, 3]).oneline == (2, 1)
        with pytest.raises(ValueError):
            Permutation((1, 2, 3))  # raw constructor wants trimmed input
        with pytest.raises(ValueError):
            Permutation.from_oneline([1, 1, 2])

    def test_call_and_compose(self):
        w = parse_permutation("312")
        assert [w(i) for i in range(1, 5)] == [3, 1, 2, 4]
        assert w * w.inverse() == Permutation.identity()
        assert permutation_from_word([2, 1]) == w

    def test_transpositions_act_on_positions(self):
        w = parse_permutation("13452")
        assert w.times_transposition(2, 3).oneline == (1, 4, 3, 5, 2)
        assert w.times_transposition(3, 4).oneline == (1, 3, 5, 4, 2)


class TestPermLength:
    def test_examples(self):
        assert perm_length(Permutation.identity()) == 0
        assert perm_length(parse_permutation("321")) == 3
        for n in range(2, 7):
            assert perm_length(Permutation.longest(n)) == n * (n - 1) // 2

    def test_against_oracle(self):
        for w in all_permutations(4):
            assert perm_length(w) == oracle_inversions(w.oneline)


class TestReducedWord:
    def test_examples(self):
        assert reduced_word(Permutation.identity()) == ()
        assert reduced_word(parse_permutation("321")) == (1, 2, 1)
        assert reduced_word(parse_permutation("132")) == (2,)
        # the two pinned vectors agree with the lex-least oracle
        assert oracle_lex_least_reduced_word(parse_permutation("321")) == (1, 2, 1)
        assert oracle_lex_least_reduced_word(parse_permutation("132")) == (2,)

    def test_applying_the_word_recovers_w(self):
        for w in all_permutations(4):
            word = reduced_word(w)
            assert len(word) == perm_length(w)
            assert permutation_from_word(word) == w


class TestBruhatCovers:
    def test_examples(self):
        assert bruhat_cover_up(Permutation.identity(), 1, 2)
        assert not bruhat_cover_up(Permutation.identity(), 1, 3)
        v = parse_permutation("13452")
        # the one-variable expansion's first upward term comes from (3, 4);
        # (3, 6) jumps three length levels
        assert bruhat_cover_up(v, 3, 4)
        assert not bruhat_cover_up(v, 3, 6)

    def test_cover_iff_length_jump(self):
        for w in all_permutations(4):
            for i in range(1, 6):
                for j in range(i + 1, 7):
                    jump = (perm_length(w.times_transposition(i, j)) == perm_length(w) + 1
                            and w(i) < w(j))
                    assert bruhat_cover_up(w, i, j) == jump

    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match=r"^need i < j$"):
            bruhat_cover_up(parse_permutation("2143"), 2, 2)


class TestTransitionIndices:
    def test_examples(self):
        assert transition_indices_perm(Permutation.identity(), 2) == ((1,), (3,))
        # brute-force covers; matches the eight-term one-variable expansion
        assert transition_indices_perm(parse_permutation("13452"), 3) == ((2,), (4,))
        J, L = transition_indices_perm(parse_permutation("321"), 1)
        assert J == ()
        assert L == tuple(l for l in range(6, 1, -1)
                          if bruhat_cover_up(parse_permutation("321"), 1, l))

    def test_upper_list_bound(self):
        for w in all_permutations(4):
            for k in range(1, 6):
                bound = max(w.support, k) + 1
                for l in range(bound + 1, bound + 4):
                    assert not bruhat_cover_up(w, k, l)


class TestShiftAndGrassmannian:
    def test_shift_perm(self):
        w = parse_permutation("21")
        assert shift_perm(0, w) == w
        assert shift_perm(1, w) == parse_permutation("132")
        assert shift_perm(2, parse_permutation("321")) == parse_permutation("12543")

    def test_grassmannian_perm(self):
        assert grassmannian_perm(()) == Permutation.identity()
        assert grassmannian_perm((1,)) == parse_permutation("21")
        assert grassmannian_perm((2, 1)) == parse_permutation("2413")

    def test_grassmannian_by_exhaustive_search(self):
        # unique permutation in S_4 with the defining window values
        for lam in [(1,), (2, 1)]:
            k = len(lam)
            target = grassmannian_perm(lam)
            matches = [w for w in all_permutations(4)
                       if all(w(i) == i + lam[k - i] for i in range(1, k + 1))
                       and all(w(i) < w(i + 1) for i in range(k + 1, 4))]
            assert target in matches
            assert len(set(matches)) == 1
            assert len(target.descents()) <= 1


class TestFpfBasics:
    def test_odd_rank_raises(self):
        with pytest.raises(ValueError, match="^need even n$"):
            FpfInvolution.top(3)
        with pytest.raises(ValueError, match="^need even n$"):
            next(all_fpf_involutions(3))

    def test_theta(self):
        assert [theta(i) for i in range(1, 7)] == [2, 1, 4, 3, 6, 5]
        assert THETA.oneline == ()
        assert [THETA(i) for i in range(1, 5)] == [2, 1, 4, 3]

    def test_canonical_form(self):
        assert parse_fpf("2143") == THETA
        assert parse_fpf("3412").oneline == (3, 4, 1, 2)
        with pytest.raises(ValueError):
            FpfInvolution((2, 1))  # raw constructor wants trimmed input
        with pytest.raises(ValueError):
            FpfInvolution.from_oneline([1, 2])

    def test_from_cycles(self):
        z = FpfInvolution.from_cycles([(1, 4), (2, 7), (3, 8), (5, 6)])
        assert format_word(z.oneline) == "47816523"
        assert FpfInvolution.from_cycles([]) == THETA
        assert FpfInvolution.from_cycles([(3, 5), (4, 6)]).oneline == (2, 1, 5, 6, 3, 4)
        with pytest.raises(ValueError):
            FpfInvolution.from_cycles([(3, 5)])  # 4 and 6 left unmatched

    def test_conjugation(self):
        assert THETA.conj_s(2) == parse_fpf("3412")
        assert parse_fpf("3412").conj_s(1) == parse_fpf("4321")
        assert parse_fpf("4321").conj_transposition(2, 3) == parse_fpf("4321")

    def test_conjugation_equals_composition(self):
        # every involution of rank <= 8 and every i < j <= rank + 2
        for z in all_fpf_involutions(8):
            for j in range(2, 11):
                for i in range(1, j):
                    y = conj_by_transposition(z, i, j)
                    assert z.conj_transposition(i, j) == y, (z, i, j)
                    assert conj_word(z.oneline, i, j) == y.oneline

    def test_cycles_in_rank(self):
        assert THETA.cycles_in_rank(6) == ((1, 2), (3, 4), (5, 6))
        assert parse_fpf("3412").cycles_in_rank(6) == ((1, 3), (2, 4), (5, 6))
        assert parse_fpf("3412").cycles_in_rank(4) == ((1, 3), (2, 4))


class TestFpfLength:
    def test_examples(self):
        assert fpf_length(THETA) == 0
        assert fpf_length(parse_fpf("4321")) == 2
        # direct pair enumeration; also the bottom x-degree of its polynomial
        assert fpf_length(parse_fpf("351624")) == 2

    def test_against_pad_stability_and_oracle(self):
        for z in all_fpf_involutions(6):
            assert fpf_length(z) == oracle_fpf_length(z, pad=4)

    def test_three_case_recursion(self):
        for z in all_fpf_involutions(6):
            for i in range(1, 7):
                delta = fpf_length(z.conj_s(i)) - fpf_length(z)
                if z(i) < z(i + 1):
                    assert delta == 1
                elif z(i) == i + 1 and z(i + 1) == i:
                    assert delta == 0
                else:
                    assert delta == -1

    def test_min_conjugating_word_length(self):
        for z in all_fpf_involutions(6):
            assert fpf_length(z) == oracle_min_conjugating_length(z, 6)


class TestFpfCovers:
    def test_examples(self):
        # (1,3) conjugation sends the base point two levels up, not one
        assert not fpf_cover_up(THETA, 1, 3)
        assert fpf_cover_up(THETA, 2, 3)
        assert not fpf_cover_up(THETA, 1, 2)
        v = FpfInvolution.from_cycles([(1, 2), (3, 5), (4, 8), (6, 7)])
        assert fpf_cover_up(v, 2, 3)
        with pytest.raises(ValueError):
            fpf_cover_up(THETA, 2, 2)

    def test_cover_iff_length_jump(self):
        for y in all_fpf_involutions(6):
            for i in range(1, 8):
                for j in range(i + 1, 9):
                    jump = fpf_length(y.conj_transposition(i, j)) == fpf_length(y) + 1
                    assert fpf_cover_up(y, i, j) == jump

    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match=r"^need i < j$"):
            fpf_cover_up(FpfInvolution.top(4), 3, 2)


class TestFpfTransitionIndices:
    def test_paper_example(self):
        v = FpfInvolution.from_cycles([(1, 2), (3, 5), (4, 8), (6, 7)])
        assert fpf_transition_indices(v, 3, 5) == ((2,), (8, 6))

    def test_examples(self):
        assert fpf_transition_indices(THETA, 1, 2) == ((), (3,))
        assert fpf_transition_indices(parse_fpf("4321"), 2, 3) == ((), (5,))
        with pytest.raises(ValueError):
            fpf_transition_indices(parse_fpf("4321"), 1, 2)

    def test_brute_force_and_bound(self):
        for v in all_fpf_involutions(6):
            for j, k in v.arcs():
                I, L = fpf_transition_indices(v, j, k)
                assert I == tuple(i for i in range(1, j) if fpf_cover_up(v, i, j))
                expect = [l for l in range(k + 1, 12) if fpf_cover_up(v, k, l)]
                assert sorted(L) == expect


class TestVisibleDescents:
    def test_examples(self):
        assert visible_descents(THETA) == ()
        # definition check at each i: the only witness for the reversal is 3
        assert visible_descents(parse_fpf("4321")) == (3,)
        assert visible_descents(parse_fpf("351624")) == (2, 4)

    def test_direct_definition(self):
        for z in all_fpf_involutions(6):
            want = tuple(i for i in range(1, 9) if z(i + 1) < min(i, z(i)))
            assert visible_descents(z) == want


class TestDiagramCodeShape:
    def test_staircase(self):
        for n in (4, 6, 8):
            z = FpfInvolution.top(n)
            assert sp_rothe_diagram(z) == frozenset(
                (i, j) for j in range(1, n + 1) for i in range(j + 1, n - j + 1))
            half = n // 2
            assert sp_code(z) == tuple(range(half)) + tuple(range(half - 1, 0, -1))
            assert sp_shape(z) == tuple(range(n - 2, 0, -2))

    def test_paper_example(self):
        z = parse_fpf("47816523")
        assert sp_shape(z) == (4, 3)

    def test_theta(self):
        assert sp_rothe_diagram(THETA) == frozenset()
        assert sp_code(THETA) == ()
        assert sp_shape(THETA) == ()

    def test_diagram_size_and_code_sum(self):
        for z in all_fpf_involutions(6):
            assert len(sp_rothe_diagram(z)) == fpf_length(z)
            assert sum(sp_code(z)) == fpf_length(z)

    def test_code_and_length_count_pairs(self):
        for z in all_fpf_involutions(8):
            n = z.support
            code = [sum(1 for j in range(i + 1, n + 1) if z(j) < min(i, z(i)))
                    for i in range(1, n + 1)]
            while code and code[-1] == 0:
                code.pop()
            assert sp_code(z) == tuple(code)
            assert fpf_length(z) == oracle_fpf_length(z)

    def test_transpose(self):
        assert transpose_partition((2, 2, 1)) == (3, 2)
        assert transpose_partition(()) == ()


class TestPartitions:
    """partitions_of against the two enumerators it replaced, which bound
    the largest part instead of the number of parts."""

    def test_unbounded_equals_oracles(self):
        for n in range(30):
            assert list(partitions_of(n)) == list(oracle_partitions_of(n)), n
            assert list(partitions_of(n, strict=True)) == list(oracle_strict_partitions_of(n)), n

    def test_bounded_equals_the_old_shape_lists(self):
        # the G expansion listed the transposes of the partitions with parts
        # at most nvars, re-sorted; the GP expansion filtered strict ones
        for nvars in range(1, 8):
            for n in range(25):
                old_g = sorted(map(transpose_partition, oracle_partitions_of(n, nvars)),
                               reverse=True)
                old_gp = [lam for lam in oracle_strict_partitions_of(n) if len(lam) <= nvars]
                assert list(partitions_of(n, nvars)) == old_g, (n, nvars)
                assert list(partitions_of(n, nvars, strict=True)) == old_gp, (n, nvars)

    def test_edge_cases(self):
        assert list(partitions_of(0)) == [()]
        assert list(partitions_of(0, 0, strict=True)) == [()]
        assert list(partitions_of(3, 0)) == []
        assert list(partitions_of(6, 2, strict=True)) == [(6,), (5, 1), (4, 2)]
        assert list(partitions_of(3, strict=True)) == [(3,), (2, 1)]
        # two parts up to size 100, without walking the strict partitions
        # with more parts
        assert sum(1 for n in range(101) for _ in partitions_of(n, 2, strict=True)) == 2551


class TestDearcAndGrassmannian:
    def test_dearc_examples(self):
        assert dearc(THETA) == ()
        assert dearc(parse_fpf("47816523")) == ((2, 7), (3, 8))
        assert dearc(parse_fpf("4321")) == ((1, 4),)

    def test_grassmannian_examples(self):
        assert is_fpf_grassmannian(THETA) == (0, ())
        assert is_fpf_grassmannian(parse_fpf("47816523")) == (6, (2, 3))
        assert is_fpf_grassmannian(parse_fpf("4321")) == (3, (1,))
        assert is_fpf_grassmannian(FpfInvolution.top(6)) is None

    def test_from_shape_examples(self):
        assert fpf_grassmannian_from_shape((), 4) == THETA
        assert fpf_grassmannian_from_shape((4, 3), 6) == parse_fpf("47816523")
        assert fpf_grassmannian_from_shape((2,), 3) == parse_fpf("4321")
        # odd leftover parity appends a zero-part arc
        assert fpf_grassmannian_from_shape((2,), 4) == parse_fpf("351624")
        with pytest.raises(ValueError):
            fpf_grassmannian_from_shape((3,), 3)
        with pytest.raises(ValueError):
            fpf_grassmannian_from_shape((2, 2), 4)
        # the would-be arcs for this decode do not survive arc deletion
        with pytest.raises(ValueError):
            fpf_grassmannian_from_shape((1,), 2)

    def test_round_trip_rank8(self):
        seen = 0
        for z in all_fpf_involutions(8):
            decoded = is_fpf_grassmannian(z)
            if decoded is None:
                continue
            seen += 1
            n, phis = decoded
            if n == 0:
                assert z == THETA
                continue
            lam = tuple(n - p for p in phis if p < n)
            assert sp_shape(z) == lam
            assert fpf_grassmannian_from_shape(lam, n) == z
        assert seen > 10

    def test_agrees_with_range_checked_decode(self):
        zs = list(all_fpf_involutions(10))
        assert len(zs) == 945
        for z in zs:
            assert is_fpf_grassmannian(z) == oracle_is_fpf_grassmannian(z), z

    def test_empty_dearc_only_for_theta(self):
        for z in all_fpf_involutions(8):
            if dearc(z) == ():
                assert z == THETA


class TestShiftFpf:
    def test_examples(self):
        z = parse_fpf("4321")
        assert shift_fpf(0, z) == z
        assert shift_fpf(1, THETA) == THETA
        assert format_word(shift_fpf(1, z).oneline) == "216543"


class TestAscentChain:
    def test_examples(self):
        assert ascent_chain_to_top(FpfInvolution.top(4), 4) == ()
        assert ascent_chain_to_top(THETA, 4) == (2, 1)
        assert ascent_chain_to_top(parse_fpf("3412"), 4) == (1,)
        with pytest.raises(ValueError):
            ascent_chain_to_top(THETA, 3)
        with pytest.raises(ValueError):
            ascent_chain_to_top(FpfInvolution.top(6), 4)

    def test_chain_properties(self):
        top_len = fpf_length(FpfInvolution.top(6))
        for z in all_fpf_involutions(6):
            word = ascent_chain_to_top(z, 6)
            assert len(word) == top_len - fpf_length(z)
            cur = z
            for i in word:
                nxt = cur.conj_s(i)
                assert fpf_length(nxt) == fpf_length(cur) + 1
                cur = nxt
            assert cur == FpfInvolution.top(6)


class TestShiftedInvolution:
    def test_values(self):
        v = ShiftedFpfInvolution(parse_fpf("3412"), 2)
        # base positions 1..4 sit at Z-positions -1..2
        assert [v.value(i) for i in range(-1, 3)] == [1, 2, -1, 0]
        assert v.value(5) == 6 and v.value(-3) == -2

    def test_normalized(self):
        # the constructor stores the representative of least offset
        v = ShiftedFpfInvolution(shift_fpf(1, parse_fpf("3412")), 2)
        assert (v.base, v.offset) == (parse_fpf("3412"), 0)
        assert v == ShiftedFpfInvolution(parse_fpf("3412"))
        # a base not starting with a base pair keeps its offset
        v = ShiftedFpfInvolution(parse_fpf("3412"), 2)
        assert (v.base, v.offset) == (parse_fpf("3412"), 2)

    def test_normalized_theta_has_offset_zero(self):
        for offset in (0, 2, 4):
            v = ShiftedFpfInvolution(THETA, offset)
            assert (v.base, v.offset) == (THETA, 0)
            assert v == ShiftedFpfInvolution(THETA)
            assert hash(v) == hash(ShiftedFpfInvolution(THETA))

    def test_equal_involutions_on_z_are_equal(self):
        for z in all_fpf_involutions(6):
            v = ShiftedFpfInvolution(z)
            for m in (1, 2):
                w = ShiftedFpfInvolution(shift_fpf(m, z), 2 * m)
                assert w == v, (z, m)
                assert hash(w) == hash(v), (z, m)
                assert all(w.value(i) == v.value(i) for i in range(-6, 9))

    def test_bad_offsets_raise(self):
        for offset in (1, 3, -1, -2):
            with pytest.raises(ValueError, match="offset must be even and nonnegative"):
                ShiftedFpfInvolution(parse_fpf("3412"), offset)


class TestEnumerators:
    def test_counts(self):
        assert len(list(all_permutations(4))) == 24
        assert len(set(all_fpf_involutions(4))) == 3
        assert len(set(all_fpf_involutions(6))) == 15
        assert len(set(all_fpf_involutions(8))) == 105


class TestTextEncodings:
    def test_digit_strings_up_to_nine(self):
        assert format_word((3, 5, 1, 6, 2, 4)) == "351624"
        assert parse_permutation("351624").oneline == (3, 5, 1, 6, 2, 4)

    def test_comma_separated_beyond_nine(self):
        z = shift_fpf(3, parse_fpf("4321"))
        text = format_word(z.oneline)
        assert "," in text
        assert parse_fpf(text) == z

    def test_partitions(self):
        from spgroth.coxeter import format_partition, parse_partition

        assert parse_partition("4,3") == (4, 3)
        assert parse_partition("-") == ()
        assert format_partition(()) == "-"
        assert format_partition((4, 3)) == "4,3"
        with pytest.raises(ValueError):
            parse_partition("3,4")
