import inspect
import itertools

import pytest

from spgroth.coxeter import (
    FpfInvolution,
    Permutation,
    ShiftedFpfInvolution,
    all_fpf_involutions,
    all_permutations,
    fpf_transition_indices,
    partitions_of,
    parse_fpf,
    parse_permutation,
    perm_length,
    shift_fpf,
)
import spgroth.stable as stable
from spgroth.grothendieck import _transposition_products, grothendieck, sp_grothendieck
from spgroth.polyring import (
    BetaInt,
    MultiPoly,
    _layout,
    act_si,
    apply_word,
    isobaric,
    symmetrize_check,
    truncate,
)
from spgroth.stable import (
    Window,
    _letter_caps,
    _letter_set_weight,
    _quotient_word,
    _unframe,
    expand_in_G_basis,
    expand_in_GP_basis,
    gp_partition,
    gp_sp,
    gp_sp_positive_recurrence,
    shifted_set_valued_tableaux,
    stable_groth_partition,
    stable_groth_perm,
    verify_f_grass,
    verify_stable_sp_transition,
)

from helpers import (
    gp_sp_in_window,
    gp_sp_stabilized,
    gp_via_pi_formula,
    grassmannian_perm,
    letter_set_offset,
    long_word_stable_groth_partition,
    long_word_stable_groth_perm,
    oracle_beta_zero,
    oracle_fillings,
    oracle_gp_partition,
    oracle_positive_recurrence,
    oracle_set_valued_tableaux,
    oracle_shifted_cover_list_above,
    oracle_shifted_cover_list_below,
    oracle_shifted_products,
    oracle_stable_groth_partition,
    oracle_tableaux,
    poly_from_beta_terms,
    shift_perm,
    shifted_cells,
    sp_grassmannian_formula,
)

X = MultiPoly.x
THETA = FpfInvolution.theta_involution()
G1 = [(1, 0, (1,)), (1, 0, (0, 1)), (1, 1, (1, 1))]


def schur_p_oracle(lam, nvars):
    """Classical Schur P polynomial by brute-force single-valued shifted
    marked tableaux: weak rows/columns, primed at most once per row,
    unprimed at most once per column, unprimed diagonal.  Letters are
    (value, primed) pairs ordered with v' < v."""
    cells = [(i, i + j - 1) for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]

    def le(a, b):
        return (a[0], not a[1]) <= (b[0], not b[1])

    def lt(a, b):
        return (a[0], not a[1]) < (b[0], not b[1])

    def ok(entries, pos, letter):
        i, j = pos
        if i == j and letter[1]:
            return False
        left = entries.get((i, j - 1))
        if left is not None:
            if not le(left, letter):
                return False
            if left == letter and letter[1]:  # primed repeats along a row
                return False
        up = entries.get((i - 1, j))
        if up is not None:
            if not le(up, letter):
                return False
            if up == letter and not letter[1]:  # unprimed repeats down a column
                return False
        return True

    letters = [(v, primed) for v in range(1, nvars + 1) for primed in (True, False)]
    total = MultiPoly.zero(max(nvars, 1))

    def fill(idx, entries):
        nonlocal total
        if idx == len(cells):
            exps = [0] * nvars
            for v, _ in entries.values():
                exps[v - 1] += 1
            total = total + MultiPoly.monomial(tuple(exps))
            return
        for letter in letters:
            if ok(entries, cells[idx], letter):
                entries[cells[idx]] = letter
                fill(idx + 1, entries)
                del entries[cells[idx]]

    fill(0, {})
    return total


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(0, 3)
        with pytest.raises(ValueError):
            Window(2, 0)

    def test_clip(self):
        win = Window(2, 2)
        f = X(1, 3) + X(3, 3) + X(1, 3) ** 3
        assert win.clip(f) == X(1, 2)


class TestSetValuedTableaux:
    def test_single_cell(self):
        tabs = list(oracle_set_valued_tableaux((1,), 2, 3))
        assert sorted(t[(1, 1)] for t in tabs) == [(1,), (1, 2), (2,)]

    def test_column_strictness(self):
        tabs = list(oracle_set_valued_tableaux((1, 1), 2, 4))
        assert sorted(t[(1, 1)] + t[(2, 1)] for t in tabs) == [(1, 2)]

    def test_row_weakness_allows_sharing(self):
        tabs = set(tuple(sorted(t.items())) for t in oracle_set_valued_tableaux((2,), 2, 4))
        assert ((((1, 1), (1,)), ((1, 2), (1,)))) in tabs
        assert ((((1, 1), (1,)), ((1, 2), (1, 2)))) in tabs


def _rows(shape):
    return [(i, j) for i in range(1, len(shape) + 1) for j in range(1, shape[i - 1] + 1)]


def _marked_le(a, b):
    # a <= b, and equal only when unprimed (odd letters are primed)
    return a < b or (a == b and a % 2 == 0)


def _marked_col(a, b):
    return a < b or (a == b and a % 2 == 1)


class TestTableauEngineAgainstBruteForce:
    """Both tableau generators against every filling that passes the pairwise
    letter rules, including shapes too small for the weight bound.  The
    ordinary one is the shifted engine over unprimed letters only."""

    def test_ordinary(self):
        for shape in [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1),
                      (2, 1, 1)]:
            cells = _rows(shape)
            for nvars in (1, 2, 3):
                pool = tuple(range(1, nvars + 1))
                for max_weight in range(max(len(cells) - 1, 0), len(cells) + 3):
                    got = sorted(tuple(t.items()) for t in
                                 oracle_set_valued_tableaux(shape, nvars, max_weight))
                    want = sorted(oracle_tableaux(cells, [pool] * len(cells), max_weight,
                                                  lambda a, b: a <= b, lambda a, b: a < b))
                    assert got == want, (shape, nvars, max_weight)

    def test_shifted(self):
        for shape in [(), (1,), (2,), (3,), (2, 1), (4,), (3, 1)]:
            for nvars in (1, 2):
                cells, pools = shifted_cells(shape, nvars)
                for max_weight in range(max(len(cells) - 1, 0), len(cells) + 3):
                    got = sorted(tuple(zip(cells, t)) for t in shifted_set_valued_tableaux(
                        shape, nvars, max_weight, lambda s: (s,), ()))
                    want = sorted(oracle_tableaux(cells, pools, max_weight,
                                                  _marked_le, _marked_col))
                    assert got == want, (shape, nvars, max_weight)


class TestFillingsAgainstOracle:
    """The memoized generator yields the tableaux of the old stack loop, in
    the same order, cells read row by row, including shapes too small for
    the weight bound."""

    def test_shifted(self):
        for size in range(7):
            for shape in partitions_of(size, strict=True):
                for nvars in (1, 2, 3, 4) if size <= 5 else (1, 2, 3):
                    cells, pools = shifted_cells(shape, nvars)
                    for max_weight in range(max(size - 1, 0), size + 4):
                        got = [dict(zip(cells, tab)) for tab in shifted_set_valued_tableaux(
                            shape, nvars, max_weight, lambda s: (s,), ())]
                        want = list(oracle_fillings(cells, pools, max_weight))
                        assert got == want, (shape, nvars, max_weight)


class TestFoldedWalk:
    """gp_partition folds each tableau into its packed key during the walk;
    the same walk with the tuple weight yields the tableaux themselves, so
    the keys must be the key of 1 plus each tableau's cell offsets, each
    taken from pack, in order."""

    def test_keys_are_summed_offsets(self):
        for size in range(7):
            for shape in partitions_of(size, strict=True):
                for nvars in (1, 2, 3, 4):
                    zero = _layout(nvars).zero
                    for max_weight in range(max(size - 1, 0), size + 3):
                        got = list(shifted_set_valued_tableaux(shape, nvars, max_weight,
                                                               _letter_set_weight(nvars), zero))
                        want = [sum((letter_set_offset(s, nvars) for s in tab), zero)
                                for tab in shifted_set_valued_tableaux(
                                    shape, nvars, max_weight, lambda s: (s,), ())]
                        assert got == want, (shape, nvars, max_weight)

    def test_weight_is_the_packed_offset(self):
        # the sum of the letters' units less one beta is the key of
        # beta^(|S| - 1) x^content(S) less that of 1, for every letter set
        for nvars in range(1, 7):
            weight = _letter_set_weight(nvars)
            letters = range(1, 2 * nvars + 1)
            for size in range(1, 5):
                for subset in itertools.combinations(letters, size):
                    assert weight(subset) == letter_set_offset(subset, nvars), (nvars, subset)

    def test_empty_shape_yields_start(self):
        for max_weight in (0, 1, 3):
            assert list(shifted_set_valued_tableaux((), 2, max_weight, len, "start")) == ["start"]

    def test_one_cell_adds_start(self):
        # one cell takes the last == 0 branch: start plus the weight of its set
        got = list(shifted_set_valued_tableaux((1,), 2, 2, lambda s: [s], ["start"]))
        assert got == [["start", (2,)], ["start", (4,)], ["start", (2, 4)]]


class TestPairTables:
    """The walk fills its last two cells from a table per (bound and budget
    of the next-to-last cell, largest letter of the last cell's upper
    neighbour when that comes earlier).  Each position of the last cell,
    in order against the uncapped oracle, as tableaux and as packed keys."""

    POSITIONS = {
        "opens a row below the pair cell": [(2, 1), (3, 2, 1)],
        "upper neighbour before the pair cell": [(3, 1), (4, 2), (5, 3)],
        "single row": [(3,), (5,)],
        "one or two cells": [(1,), (2,)],
    }

    @staticmethod
    def position(cells: list[tuple[int, int]]) -> str:
        if len(cells) <= 2:
            return "one or two cells"
        i, j = cells[-1]
        if (i - 1, j) not in cells:
            return "single row"
        if cells.index((i - 1, j)) == len(cells) - 2:
            return "opens a row below the pair cell"
        return "upper neighbour before the pair cell"

    @pytest.mark.parametrize("where, shape", [
        pytest.param(where, shape, id=",".join(map(str, shape)))
        for where, shapes in POSITIONS.items() for shape in shapes])
    def test_in_order_against_oracle(self, where, shape):
        for nvars in (3, 4):
            cells, pools = shifted_cells(shape, nvars)
            assert self.position(cells) == where
            zero = _layout(nvars).zero
            for max_weight in range(sum(shape), sum(shape) + 3):
                tabs = list(shifted_set_valued_tableaux(shape, nvars, max_weight,
                                                        lambda s: (s,), ()))
                assert [dict(zip(cells, tab)) for tab in tabs] == list(
                    oracle_fillings(cells, pools, max_weight)), (shape, nvars, max_weight)
                keys = list(shifted_set_valued_tableaux(shape, nvars, max_weight,
                                                        _letter_set_weight(nvars), zero))
                assert keys == [sum((letter_set_offset(c, nvars) for c in tab), zero)
                                for tab in tabs], (shape, nvars, max_weight)


class TestLetterCaps:
    def test_cap_is_the_largest_letter_held(self):
        # singletons complete any partial tableau that fits the caps, so the
        # tableaux with one letter a cell reach every cap
        for size in range(7):
            for shape in partitions_of(size, strict=True):
                for nvars in (1, 2, 3):
                    cells, pools = shifted_cells(shape, nvars)
                    want = [0] * len(cells)
                    for tab in oracle_fillings(cells, pools, len(cells)):
                        want = [max(cap, tab[cell][-1]) for cap, cell in zip(want, cells)]
                    assert _letter_caps(cells, pools) == want, (shape, nvars)


class TestStableGrothPartition:
    def test_examples(self):
        win = Window(2, 3)
        assert stable_groth_partition((), win) == MultiPoly.one(1)
        assert stable_groth_partition((1,), win) == poly_from_beta_terms(2, G1)

    def test_equals_tableau_oracle(self):
        for win in (Window(3, 8), Window(4, 9)):
            for size in range(9):
                for lam in partitions_of(size):
                    got = stable_groth_partition(lam, win)
                    want = oracle_stable_groth_partition(lam, win)
                    assert got.nvars == want.nvars == win.nvars, (lam, win)
                    assert got.canonical_text() == want.canonical_text(), (lam, win)

    def test_zero_beyond_nvars(self, monkeypatch):
        # with more rows than variables, or more cells than maxdeg (the
        # series has no term below degree |lam|), the series is zero before
        # x^lam is built, even where x^lam is outside the packed range, and
        # no isobaric step runs
        def no_isobaric(*args):
            raise AssertionError("isobaric step on a shape with too many rows or cells")

        monkeypatch.setattr(stable, "isobaric", no_isobaric)
        for lam, win in [((1, 1, 1), Window(2, 5)), ((2, 1), Window(1, 3)),
                         ((3, 3, 2, 1), Window(3, 12)), ((2, 1), Window(3, 2)),
                         ((3, 3), Window(2, 5)), ((6,), Window(1, 5)),
                         ((16384,), Window(1, 5)), ((9999999999,), Window(1, 5))]:
            f = stable_groth_partition(lam, win)
            assert not f and f.nvars == win.nvars, (lam, win)

    def test_schur_at_beta_zero(self):
        # single-valued tableaux survive, giving the Schur polynomial
        win = Window(3, 3)
        f = oracle_beta_zero(stable_groth_partition((2, 1), win))
        # s_(2,1)(x1,x2,x3) = m_(2,1) + 2 m_(1,1,1)
        want = sum((MultiPoly.monomial(e) for e in
                    [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)]),
                   MultiPoly.monomial((1, 1, 1)) * 2)
        assert f == want


class TestStableGrothPerm:
    def test_examples(self):
        win = Window(2, 3)
        assert stable_groth_perm(parse_permutation("123"), win) == MultiPoly.one(1)
        assert stable_groth_perm(parse_permutation("21"), win) == poly_from_beta_terms(2, G1)

    def test_grassmannian_equals_partition_route(self):
        win = Window(3, 4)
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            assert (stable_groth_perm(grassmannian_perm(lam), win)
                    == oracle_stable_groth_partition(lam, win)), lam

    def test_ascents_are_symmetries(self):
        # the premise of the parabolic quotient: the polynomial of w is
        # symmetric in x_j, x_{j+1} at every ascent j
        for w in all_permutations(6):
            f = grothendieck(w).embed(w.support + 1)
            for j in range(1, w.support + 1):
                if w(j) < w(j + 1):
                    assert act_si(j, f) == f, (w, j)

    def test_quotient_word_equals_long_word(self):
        # with fewer variables than the support, the polynomial is
        # restricted to the window's before the quotient word of S_nvars
        for n, windows in [(5, (Window(1, 4), Window(2, 6), Window(4, 6), Window(6, 8))),
                           (6, (Window(1, 6), Window(2, 6), Window(3, 6), Window(4, 8)))]:
            for w in all_permutations(n):
                for win in windows:
                    assert (stable_groth_perm(w, win)
                            == long_word_stable_groth_perm(w, win)), (w, win)

    def test_isobaric_only_in_window_variables(self, monkeypatch):
        steps = []

        def guarded(i, f, max_degree=None):
            if f.nvars != win.nvars:
                raise AssertionError(f"isobaric step in {f.nvars} variables at {win!r}")
            steps.append(i)
            return isobaric(i, f, max_degree)

        monkeypatch.setattr(stable, "isobaric", guarded)
        # windows below, at and above the supports of S_6; one variable
        # leaves no step
        for win in (Window(1, 4), Window(3, 6), Window(6, 7), Window(7, 6)):
            steps.clear()
            for w in all_permutations(6):
                stable_groth_perm(w, win)
            assert bool(steps) == (win.nvars > 1), win

    def test_quotient_word_is_reduced_word_of_w0_w0J(self):
        # w0_J reverses each block between consecutive cuts
        def product(word):
            u = Permutation.identity()
            for i in word:
                u = u * Permutation.s(i)
            return u

        for n in range(1, 7):
            for inner in itertools.product((False, True), repeat=n - 1):
                cuts = (0, *(j for j, cut in enumerate(inner, 1) if cut), n)
                w0_J = Permutation.from_oneline(
                    v for a, b in zip(cuts, cuts[1:]) for v in range(b, a, -1))
                word = _quotient_word(cuts)
                u = Permutation.longest(n) * w0_J
                assert product(word) == u, cuts
                assert len(word) == perm_length(u), cuts
        assert _quotient_word((0, 1, 2, 3)) == (1, 2, 1)

    def test_zero_past_length(self, monkeypatch):
        # every term of the polynomial has degree at least the length, so
        # past maxdeg the limit is zero before any polynomial is built
        def no_polynomial(*args):
            raise AssertionError("built the polynomial of a permutation longer than maxdeg")

        monkeypatch.setattr(stable, "grothendieck", no_polynomial)
        for word, win in [("321", Window(3, 2)), ("54321", Window(2, 9)),
                          (",".join(map(str, range(30, 0, -1))), Window(4, 6))]:
            f = stable_groth_perm(parse_permutation(word), win)
            assert not f and f.nvars == win.nvars, (word, win)

    def test_exact_stabilization(self):
        # restriction of the padded polynomial agrees exactly, not only
        # modulo degree, with the isobaric image
        from spgroth.coxeter import Permutation, reduced_word

        word3 = reduced_word(Permutation.longest(3))
        for v in all_permutations(3):
            target = apply_word(isobaric, word3, grothendieck(v).embed(3))
            for pad in (3, 4):
                padded = grothendieck(shift_perm(pad, v)).restrict(3)
                assert padded == target, (v, pad)


class TestShiftedTableaux:
    @staticmethod
    def _tableaux(shape, nvars, max_weight):
        # keyed by (row, column) of the shifted shape
        cells, _ = shifted_cells(shape, nvars)
        return [dict(zip(cells, t)) for t in shifted_set_valued_tableaux(
            shape, nvars, max_weight, lambda s: (s,), ())]

    def test_single_cell_diagonal_unprimed(self):
        tabs = self._tableaux((1,), 2, 3)
        assert sorted(t[(1, 1)] for t in tabs) == [(2,), (2, 4), (4,)]

    def test_row_sharing_only_unprimed(self):
        tabs = {(t[(1, 1)], t[(1, 2)]) for t in self._tableaux((2,), 2, 2)}
        assert ((2,), (2,)) in tabs        # unprimed may repeat along a row
        assert ((3,), (3,)) not in tabs    # primed may not
        assert ((2,), (3,)) in tabs and ((2,), (4,)) in tabs

    def test_column_sharing_only_primed(self):
        # column 3 of the shifted shape (3, 2) lies off the diagonal
        tabs = {(t[(1, 3)], t[(2, 3)]) for t in self._tableaux((3, 2), 3, 5)}
        assert ((5,), (5,)) in tabs        # primed 3' may repeat down a column
        assert ((4,), (4,)) not in tabs    # unprimed 2 may not


class TestGPPartition:
    def test_examples(self):
        win = Window(2, 3)
        assert gp_partition((), win) == MultiPoly.one(1)
        assert gp_partition((1,), win) == poly_from_beta_terms(2, G1)

    def test_symmetry(self):
        win = Window(3, 4)
        f = gp_partition((2, 1), win)
        assert symmetrize_check(f, win.nvars, win.maxdeg)

    def test_equals_oracle(self):
        for win in (Window(3, 8), Window(4, 9)):
            for size in range(9):
                for lam in partitions_of(size, strict=True):
                    got = gp_partition(lam, win)
                    want = oracle_gp_partition(lam, win)
                    assert got.nvars == want.nvars == win.nvars, (lam, win)
                    assert got.canonical_text() == want.canonical_text(), (lam, win)
        # keys of 20 exponent fields
        win = Window(20, 4)
        got = gp_partition((1,), win)
        assert got.canonical_text() == oracle_gp_partition((1,), win).canonical_text()

    def test_zero_beyond_nvars(self, monkeypatch):
        # the diagonal strictly increases, and every cell holds a letter, so
        # with too many parts or cells no tableau exists and none is
        # enumerated
        def no_tableaux(*args):
            raise AssertionError("enumerated tableaux of a shape with too many parts or cells")

        monkeypatch.setattr(stable, "shifted_set_valued_tableaux", no_tableaux)
        for lam, win in [((2, 1), Window(1, 3)), ((3, 2, 1), Window(2, 8)),
                         ((5, 4, 3, 2, 1), Window(4, 17)), ((4, 3, 2, 1), Window(3, 10)),
                         ((2, 1), Window(2, 2)), ((3, 1), Window(6, 3)),
                         ((9999999999,), Window(1, 5))]:
            f = gp_partition(lam, win)
            assert not f and f.nvars == win.nvars, (lam, win)
        with pytest.raises(ValueError):
            gp_partition((1, 2), Window(1, 3))

    def test_beta_zero_is_classical_schur_p(self):
        for lam in [(1,), (2,), (2, 1), (3,), (3, 1)]:
            win = Window(3, sum(lam))
            got = oracle_beta_zero(gp_partition(lam, win)).degree_part(sum(lam))
            assert got == schur_p_oracle(lam, 3), lam


class TestGpSp:
    def test_examples(self):
        win = Window(2, 3)
        assert gp_sp(THETA, win) == MultiPoly.one(1)
        assert gp_sp(parse_fpf("3412"), win) == poly_from_beta_terms(2, G1)

    def test_4321_is_gp2(self):
        win = Window(3, 5)
        assert gp_sp(parse_fpf("4321"), win) == gp_partition((2,), win)

    def test_shift_invariance(self):
        win = Window(3, 4)
        for word in ["3412", "4321", "351624"]:
            z = parse_fpf(word)
            assert gp_sp(shift_fpf(1, z), win) == gp_sp(z, win)

    def test_stabilized_route_agrees(self):
        win = Window(3, 4)
        for z in all_fpf_involutions(6):
            assert gp_sp_stabilized(z, win) == gp_sp(z, win)

    def test_in_window_route_agrees(self):
        # the long word of S_nvars on the restricted symplectic polynomial,
        # at a window below the rank-6 supports and at one above rank 4's
        for win in (Window(2, 6), Window(4, 7)):
            for rank in (0, 2, 4, 6):
                for z in all_fpf_involutions(rank):
                    assert gp_sp_in_window(z, win) == gp_sp(z, win), (z, win)

    def test_symmetry(self):
        win = Window(3, 4)
        for word in ["4321", "351624"]:
            assert symmetrize_check(gp_sp(parse_fpf(word), win), win.nvars, win.maxdeg)

    def test_one_build_per_element_and_window(self, monkeypatch):
        builds = []
        expand = stable.expand_in_grothendieck_basis_censored

        def counting(f, maxdeg):
            builds.append(maxdeg)
            return expand(f, maxdeg)

        monkeypatch.setattr(stable, "expand_in_grothendieck_basis_censored", counting)
        stable._gp_sp_cached.cache_clear()
        first = gp_sp(parse_fpf("351624"), Window(3, 4))
        for _ in range(3):
            assert gp_sp(parse_fpf("351624"), Window(3, 4)) is first
        assert len(builds) == 1
        gp_sp(parse_fpf("351624"), Window(3, 5))
        gp_sp(parse_fpf("351624"), Window(4, 4))
        gp_sp(parse_fpf("4321"), Window(3, 4))
        assert len(builds) == 4
        assert stable._gp_sp_cached.cache_info().maxsize is not None
        # the public function stays a plain function, which tracing wraps
        assert inspect.isfunction(gp_sp)
        stable._gp_sp_cached.cache_clear()

    def test_zero_past_fpf_length(self, monkeypatch):
        # every term of the polynomial has degree at least the fpf length,
        # so past maxdeg the limit is zero before any polynomial is built,
        # even for an element far too large to build
        def no_polynomial(*args):
            raise AssertionError("built the polynomial of an element longer than maxdeg")

        monkeypatch.setattr(stable, "sp_grothendieck", no_polynomial)
        for word, win in [("4321", Window(3, 1)), ("654321", Window(2, 5)),
                          ("9,10,8,7,6,5,4,3,1,2", Window(4, 18)),
                          (",".join(map(str, range(40, 0, -1))), Window(4, 6))]:
            f = gp_sp(parse_fpf(word), win)
            assert not f and f.nvars == win.nvars, (word, win)


class TestWindowSymmetryOfAllProducers:
    def test_all_four_routes(self):
        win = Window(3, 4)
        outputs = [
            stable_groth_perm(parse_permutation("321"), win),
            stable_groth_partition((2, 1), win),
            gp_partition((2,), win),
            gp_sp(parse_fpf("4321"), win),
        ]
        for f in outputs:
            assert symmetrize_check(f, win.nvars, win.maxdeg)


class TestPiFormulas:
    def test_g_examples(self):
        assert long_word_stable_groth_partition((), 3) == MultiPoly.one(1)
        assert long_word_stable_groth_partition((1,), 2) == poly_from_beta_terms(2, G1)
        assert stable_groth_partition((1, 1, 1), Window(2, 3)) == MultiPoly.zero(2)

    def test_g_dual_route(self):
        for lam in [(1,), (2,), (2, 1), (1, 1)]:
            n = 3
            f = long_word_stable_groth_partition(lam, n)
            d = f.total_degree()
            win = Window(n, d)
            assert truncate(f, d) == stable_groth_partition(lam, win), lam

    def test_gp_examples(self):
        assert gp_via_pi_formula((), 2) == MultiPoly.one(1)
        assert gp_via_pi_formula((1,), 2) == poly_from_beta_terms(2, G1)

    def test_gp_needs_a_variable_per_part(self):
        with pytest.raises(ValueError, match="^shape has more parts than variables$"):
            gp_via_pi_formula((2, 1), 1)

    def test_gp_dual_route(self):
        for lam in [(1,), (2,), (2, 1), (3,)]:
            n = 3
            f = gp_via_pi_formula(lam, n)
            d = f.total_degree()
            assert truncate(f, d) == gp_partition(lam, Window(n, d)), lam


class TestSpGrassmannianFormula:
    def test_examples(self):
        for word in ["3412", "4321", "351624"]:
            z = parse_fpf(word)
            assert sp_grassmannian_formula(z) == sp_grothendieck(z), word

    def test_paper_involution(self):
        z = FpfInvolution.from_cycles([(1, 4), (2, 7), (3, 8), (5, 6)])
        assert sp_grassmannian_formula(z) == sp_grothendieck(z)

    def test_rejects_non_grassmannian(self):
        with pytest.raises(ValueError):
            sp_grassmannian_formula(FpfInvolution.top(6))


def record_listed_shapes(monkeypatch) -> list:
    """The list that the shape expansions' partitions_of calls append each
    yielded shape to."""
    listed = []

    def counting(*args, **kwargs):
        for lam in partitions_of(*args, **kwargs):
            listed.append(lam)
            yield lam

    monkeypatch.setattr(stable, "partitions_of", counting)
    return listed


class TestExpandG:
    def test_round_trip(self):
        win = Window(4, 6)
        e = expand_in_G_basis(stable_groth_partition((2, 1), win), win)
        assert e.as_dict() == {(2, 1): BetaInt.of(1)}

    def test_stable_perm_expansion_positive(self):
        win = Window(4, 6)
        e = expand_in_G_basis(stable_groth_perm(parse_permutation("321"), win), win)
        assert e.is_beta_positive()
        assert e.as_dict()[(2, 1)] == BetaInt.of(1)

    def test_gp_into_g_positive(self):
        win = Window(4, 6)
        e = expand_in_G_basis(gp_partition((2, 1), win), win)
        assert e.is_beta_positive()

    def test_rejects_asymmetric(self):
        win = Window(2, 3)
        with pytest.raises(ValueError):
            expand_in_G_basis(X(1, 2), win)

    def test_enumerates_only_fitting_shapes(self, monkeypatch):
        # at two variables only the shapes with at most two rows fit, one
        # per pair of row lengths; the other partitions are never listed
        listed = record_listed_shapes(monkeypatch)
        win = Window(2, 30)
        e = expand_in_G_basis(stable_groth_partition((1,), win), win)
        assert e.as_dict() == {(1,): BetaInt.of(1)}
        assert len(listed) == sum(size // 2 + 1 for size in range(31))

    def test_window_monotonicity(self):
        small, large = Window(3, 4), Window(4, 6)
        f_small = stable_groth_perm(parse_permutation("321"), small)
        f_large = stable_groth_perm(parse_permutation("321"), large)
        es = expand_in_G_basis(f_small, small).as_dict()
        el = expand_in_G_basis(f_large, large).as_dict()
        for lam, c in es.items():
            if sum(lam) <= small.maxdeg and len(lam) <= small.nvars:
                assert el.get(lam) == c


class TestExpandGP:
    def test_round_trip(self):
        win = Window(4, 6)
        e = expand_in_GP_basis(gp_partition((3, 1), win), win)
        assert e.as_dict() == {(3, 1): BetaInt.of(1)}

    def test_enumerates_only_fitting_shapes(self, monkeypatch):
        # at two variables a strict shape fits with one part, or with two
        # distinct parts: 1 + (size - 1) // 2 shapes of each size >= 1
        listed = record_listed_shapes(monkeypatch)
        win = Window(2, 85)
        e = expand_in_GP_basis(gp_partition((1,), win), win)
        assert e.as_dict() == {(1,): BetaInt.of(1)}
        assert len(listed) == 1 + sum(1 + (size - 1) // 2 for size in range(1, 86))

    def test_gp_sp_positive(self):
        win = Window(3, 4)
        for z in all_fpf_involutions(4):
            e = expand_in_GP_basis(gp_sp(z, win), win)
            assert e.is_beta_positive(), z

    def test_grassmannian_single_term(self):
        win = Window(4, 6)
        e = expand_in_GP_basis(gp_sp(parse_fpf("4321"), win), win)
        assert e.as_dict() == {(2,): BetaInt.of(1)}

    def test_not_in_span(self):
        win = Window(3, 3)
        # the complete homogeneous polynomial h_2 is not a GP combination
        h2 = sum((MultiPoly.monomial(e) for e in
                  [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
                 MultiPoly.zero(3))
        with pytest.raises(ValueError):
            expand_in_GP_basis(h2, win)

    def test_window_monotonicity(self):
        small, large = Window(3, 4), Window(4, 6)
        z = parse_fpf("351624")
        es = expand_in_GP_basis(gp_sp(z, small), small).as_dict()
        el = expand_in_GP_basis(gp_sp(z, large), large).as_dict()
        for lam, c in es.items():
            if sum(lam) <= small.maxdeg and len(lam) <= small.nvars:
                assert el.get(lam) == c


class TestFGrass:
    def test_examples(self):
        assert verify_f_grass(THETA, Window(2, 2))
        assert verify_f_grass(parse_fpf("4321"), Window(3, 5))
        z = FpfInvolution.from_cycles([(1, 4), (2, 7), (3, 8), (5, 6)])
        assert verify_f_grass(z, Window(4, 6))

    def test_rejects_non_grassmannian(self):
        with pytest.raises(ValueError):
            verify_f_grass(FpfInvolution.top(6), Window(3, 4))


class TestStableTransition:
    def test_theta(self):
        win = Window(3, 4)
        assert verify_stable_sp_transition(ShiftedFpfInvolution(THETA), 1, 2, win)
        # theta pair away from the support edge pulls in index 0
        assert verify_stable_sp_transition(ShiftedFpfInvolution(THETA), 3, 4, win)

    def test_paper_example_with_offsets(self):
        win = Window(3, 4)
        base = FpfInvolution.from_cycles([(1, 2), (3, 5), (4, 8), (6, 7)])
        assert verify_stable_sp_transition(ShiftedFpfInvolution(base), 3, 5, win)
        # the 2-cycle (3, 5) read at offset 2 and 4; base starts with a base
        # pair, so offset 4 is stored at offset 2
        for off in (2, 4):
            shifted = ShiftedFpfInvolution(base, off)
            assert verify_stable_sp_transition(shifted, 3 - off, 5 - off, win)
        assert ShiftedFpfInvolution(base, 4).offset == 2

    def test_rank6_sweep_offset_independent(self):
        win = Window(3, 4)
        for z in all_fpf_involutions(6):
            for j, k in z.cycles_in_rank(6):
                assert verify_stable_sp_transition(ShiftedFpfInvolution(z), j, k, win)
                assert verify_stable_sp_transition(
                    ShiftedFpfInvolution(z, 2), j - 2, k - 2, win)

    def test_below_support(self):
        # the downward cover at j - 1 lies two or more steps under the support
        win = Window(3, 4)
        for z, j in ((THETA, -1), (THETA, -3), (parse_fpf("3412"), -1),
                     (parse_fpf("351624"), -1)):
            assert verify_stable_sp_transition(ShiftedFpfInvolution(z), j, j + 1, win), (z, j)


class TestFrameAgainstShiftedOracle:
    """The stable identities run the finite transition machinery on a
    positive representative (a frame); the oracle works on Z directly."""

    def test_transition_lists_and_products(self):
        conj = FpfInvolution.conj_transposition
        for z in all_fpf_involutions(6):
            for a, b in z.cycles_in_rank(6):
                for off in (0, 2):
                    v, j, k = ShiftedFpfInvolution(z, off), a - off, b - off
                    y, d = v.with_headroom(min(j, v.min_support()) - 2)
                    I, L = fpf_transition_indices(y, j + d, k + d)
                    want_i = oracle_shifted_cover_list_below(v, j)
                    want_l = oracle_shifted_cover_list_above(v, k)
                    assert tuple(i - d for i in I) == want_i
                    assert tuple(l - d for l in L) == want_l
                    assert _unframe(_transposition_products(y, j + d, I, conj), d) == \
                        oracle_shifted_products(v, j, want_i)
                    assert _unframe(_transposition_products(y, k + d, L, conj), d) == \
                        oracle_shifted_products(v, k, want_l)

    def test_products_independent_of_frame_size(self):
        # a frame two indices deeper gives the same cover lists and the same
        # products on Z
        conj = FpfInvolution.conj_transposition

        def unframed(v, j, k, lowest):
            y, d = v.with_headroom(lowest)
            I, L = fpf_transition_indices(y, j + d, k + d)
            return (tuple(i - d for i in I), tuple(l - d for l in L),
                    _unframe(_transposition_products(y, j + d, I, conj), d),
                    _unframe(_transposition_products(y, k + d, L, conj), d))

        for z in all_fpf_involutions(6):
            for a, b in z.cycles_in_rank(6):
                for off in (0, 2):
                    v, j, k = ShiftedFpfInvolution(z, off), a - off, b - off
                    lowest = min(j, v.min_support()) - 2
                    assert unframed(v, j, k, lowest) == unframed(v, j, k, lowest - 2), (z, j)

    def test_recurrence_certificates(self):
        win = Window(2, 3)
        for z in all_fpf_involutions(6):
            if z == THETA:
                continue
            for off in (0, 2):
                v = ShiftedFpfInvolution(z, off)
                cert = gp_sp_positive_recurrence(v, win)
                assert cert.verified
                assert cert.z == v
                assert (cert.v, cert.j, cert.k, cert.l, cert.i_list, cert.terms) == \
                    oracle_positive_recurrence(v)


class TestPositiveRecurrence:
    def test_single_term_for_length_one(self):
        win = Window(3, 4)
        cert = gp_sp_positive_recurrence(parse_fpf("3412"), win)
        assert cert.verified
        assert len(cert.terms) == 1
        assert cert.terms[0][1] == BetaInt.of(1)

    def test_beta_power_is_subset_size_minus_one(self):
        # two downward covers: each alone gives coefficient 1, both give beta
        cert = gp_sp_positive_recurrence(parse_fpf("35172846"), Window(2, 3))
        assert cert.verified
        assert cert.i_list == (2, 3)
        assert dict(cert.terms) == {
            ShiftedFpfInvolution(parse_fpf("361542")): BetaInt.of(1),
            ShiftedFpfInvolution(parse_fpf("456123")): BetaInt.of(1),
            ShiftedFpfInvolution(parse_fpf("465132")): BetaInt.beta(),
        }

    def test_4321(self):
        cert = gp_sp_positive_recurrence(parse_fpf("4321"), Window(3, 5))
        assert cert.verified

    def test_rank6_sweep_nonpositive_indices_occur(self):
        win = Window(3, 4)
        seen_nonpositive = False
        for z in all_fpf_involutions(6):
            if z == THETA:
                continue
            cert = gp_sp_positive_recurrence(z, win)
            assert cert.verified, z
            if any(i <= 0 for i in cert.i_list):
                seen_nonpositive = True
        assert seen_nonpositive

    def test_theta_raises(self):
        with pytest.raises(ValueError):
            gp_sp_positive_recurrence(THETA, Window(2, 2))
