"""Acceptance suite: every criterion runs at its stated tolerance (exact
arithmetic throughout) and prints one PASS line.  Run with `pytest -s` to see
the lines; any failure shows up as an ordinary test failure."""

import random
import time

from spgroth.coxeter import (
    FpfInvolution,
    Permutation,
    all_fpf_involutions,
    all_permutations,
    is_fpf_grassmannian,
    parse_fpf,
    parse_permutation,
    partitions_of,
    reduced_word,
)
from spgroth.grothendieck import (
    grothendieck,
    is_sp_dominant,
    lenart_signed_terms,
    sp_dominant_poly,
    sp_grothendieck,
    sp_transition_recurrence,
    beta_rescale_check,
    verify_lenart_transition,
    verify_sp_transition,
)
from spgroth.polyring import (
    MultiPoly,
    act_si,
    apply_word,
    beta_divided_diff,
    divided_diff,
    isobaric,
    truncate,
)
from spgroth.stable import (
    Window,
    expand_in_G_basis,
    expand_in_GP_basis,
    gp_partition,
    gp_sp,
    stable_groth_perm,
    verify_f_grass,
)

from helpers import (
    LENART_13452_SIGNED,
    S3_TABLE,
    SP4_TABLE,
    SP_351624_TERMS,
    gp_via_pi_formula,
    grassmannian_perm,
    oracle_sp_grothendieck,
    oracle_stable_groth_partition,
    poly_from_beta_terms,
    random_beta_poly,
    shift_perm,
    sp_grassmannian_formula,
    symmetrize_block,
)

WINDOW = Window(4, 6)


def report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: PASS  [{time.time() - started:.1f}s]")


def test_criterion_01_paper_tables():
    t0 = time.time()
    for word, rows in S3_TABLE.items():
        assert grothendieck(parse_permutation(word)) == poly_from_beta_terms(3, rows)
    for word, rows in SP4_TABLE.items():
        assert sp_grothendieck(parse_fpf(word)) == poly_from_beta_terms(3, rows)
    assert sp_grothendieck(parse_fpf("351624")) == poly_from_beta_terms(4, SP_351624_TERMS)
    assert time.time() - t0 < 1.0
    report(1, "published tables bit-exact", t0)


def test_criterion_02_lenart_transition():
    t0 = time.time()
    v = parse_permutation("13452")
    got = {(tuple(w.oneline), s, p) for w, s, p in lenart_signed_terms(v, 3)}
    assert got == LENART_13452_SIGNED
    for w in all_permutations(4):
        for k in range(1, 6):
            chk = verify_lenart_transition(w, k)
            assert chk.equal and chk.signed_equal, (w, k)
    assert time.time() - t0 < 60
    report(2, "one-variable transition, example + rank-4 sweep", t0)


def test_criterion_03_sp_transition():
    t0 = time.time()
    v = FpfInvolution.from_cycles([(1, 2), (3, 5), (4, 8), (6, 7)])
    chk = verify_sp_transition(v, 3, 5)
    assert chk.equal
    beta = MultiPoly.beta(1)
    want_rhs = (sp_grothendieck(v)
                + beta * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 8), (4, 5), (6, 7)]))
                + beta * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 6), (4, 8), (5, 7)]))
                + beta ** 2 * sp_grothendieck(FpfInvolution.from_cycles([(1, 2), (3, 8), (4, 6), (5, 7)])))
    assert chk.rhs == want_rhs
    for z in all_fpf_involutions(6):
        for j, k in z.cycles_in_rank(6):
            assert verify_sp_transition(z, j, k).equal, (z, j, k)
    assert time.time() - t0 < 300
    report(3, "symplectic transition, example + rank-6 sweep", t0)


def test_criterion_04_recurrence():
    t0 = time.time()
    for z in all_fpf_involutions(6):
        if z == FpfInvolution.theta_involution():
            continue
        rc = sp_transition_recurrence(z)
        assert rc.certified, z  # includes the singleton upward-list assertion
    assert time.time() - t0 < 300
    report(4, "last-descent recurrence over rank 6", t0)


def test_criterion_05_grassmannian_stable_limits():
    t0 = time.time()
    grass = [z for z in all_fpf_involutions(8) if is_fpf_grassmannian(z) is not None]
    assert parse_fpf("47816523") in grass and parse_fpf("4321") in grass
    for z in grass:
        assert verify_f_grass(z, WINDOW), z
    assert time.time() - t0 < 600
    report(5, f"stable limit = shape series for {len(grass)} rank-8 elements", t0)


def test_criterion_06_buch_grassmannian_permutations():
    t0 = time.time()
    for size in range(5):
        for lam in partitions_of(size):
            got = stable_groth_perm(grassmannian_perm(lam), WINDOW)
            assert got == oracle_stable_groth_partition(lam, WINDOW), lam
    assert time.time() - t0 < 120
    report(6, "stable limits of one-descent permutations", t0)


def test_criterion_07_positivity():
    t0 = time.time()
    for w in all_permutations(4):
        e = expand_in_G_basis(stable_groth_perm(w, WINDOW), WINDOW)
        assert e.is_beta_positive(), w
    for z in all_fpf_involutions(6):
        e = expand_in_GP_basis(gp_sp(z, WINDOW), WINDOW)
        assert e.is_beta_positive(), z
    for size in range(5):
        for lam in partitions_of(size, strict=True):
            e = expand_in_G_basis(gp_partition(lam, WINDOW), WINDOW)
            assert e.is_beta_positive(), lam
    assert time.time() - t0 < 600
    report(7, "positivity of all three expansion sweeps", t0)


def test_criterion_08_operator_identity_suite():
    t0 = time.time()
    rng = random.Random(80824)
    beta = MultiPoly.beta(4)
    checks = 0
    for _ in range(200):
        f = random_beta_poly(rng, nvars=4, max_deg=3)
        g = random_beta_poly(rng, nvars=4, max_deg=3)
        i = rng.randint(1, 3)
        assert divided_diff(i, divided_diff(i, f)) == MultiPoly.zero(4)
        d = beta_divided_diff(i, f)
        assert beta_divided_diff(i, d) == -beta * d
        p = isobaric(i, f)
        assert isobaric(i, p) == p
        for op in (divided_diff, beta_divided_diff, isobaric):
            assert apply_word(op, (1, 2, 1), f) == apply_word(op, (2, 1, 2), f)
            assert apply_word(op, (1, 3), f) == apply_word(op, (3, 1), f)
        lhs = beta_divided_diff(i, f * g)
        rhs = (act_si(i, f) * (beta_divided_diff(i, g) + beta * g)
               + beta_divided_diff(i, f) * g)
        assert lhs == rhs
        checks += 1

    # descending-chain value on pure powers
    for a in (1, 2):
        for b in range(a, a + 5):
            for e in range(0, b - a + 1):
                f = MultiPoly.x(a, b + 1) ** e
                got = apply_word(beta_divided_diff, tuple(range(b - 1, a - 1, -1)), f)
                from spgroth.polyring import BetaInt
                assert got == MultiPoly.constant((-BetaInt.beta()) ** (b - a - e), b + 1)

    # isobaric chain vs beta chain under the symmetry hypothesis
    for trial in range(200):
        a, b = rng.choice([(1, 2), (1, 3), (2, 4), (1, 4)])
        raw = random_beta_poly(rng, nvars=b + 1, max_deg=2)
        f = symmetrize_block(raw, a + 1, b) if b - a >= 2 else raw
        word = tuple(range(b - 1, a - 1, -1))
        assert (apply_word(isobaric, word, f)
                == apply_word(beta_divided_diff, word, MultiPoly.x(a, b + 1) ** (b - a) * f))

    # isobaric long word vs beta long word with the staircase factor
    for trial in range(200):
        n = rng.randint(2, 4)
        f = random_beta_poly(rng, nvars=n, max_deg=2, laurent=True)
        word = reduced_word(Permutation.longest(n))
        stair = MultiPoly.one(n)
        for t in range(n - 1):
            stair = stair * MultiPoly.x(t + 1, n) ** (n - 1 - t)
        assert apply_word(isobaric, word, f) == apply_word(beta_divided_diff, word, stair * f)

    # shifted long word: beta chain vs plain chain with the interpolating factor
    for trial in range(200):
        m = rng.randint(0, 2)
        n = rng.randint(2, 3)
        w = shift_perm(m, Permutation.longest(n))
        word = reduced_word(w)
        nv = m + n
        f = random_beta_poly(rng, nvars=nv, max_deg=2)
        corr = MultiPoly.one(nv)
        for j in range(2, n + 1):
            corr = corr * (1 + MultiPoly.beta(nv) * MultiPoly.x(m + j, nv)) ** (j - 1)
        assert apply_word(beta_divided_diff, word, f) == apply_word(divided_diff, word, corr * f)

    assert time.time() - t0 < 60
    report(8, "operator identity suite, 200+ randomized inputs each", t0)


def test_criterion_09_exact_stabilization():
    t0 = time.time()
    word3 = reduced_word(Permutation.longest(3))
    for v in all_permutations(3):
        target = apply_word(isobaric, word3, grothendieck(v).embed(3))
        for pad in (3, 4, 5, 6):
            assert grothendieck(shift_perm(pad, v)).restrict(3) == target, (v, pad)
    assert time.time() - t0 < 10
    report(9, "padding stabilizes exactly at three variables", t0)


def test_criterion_10_dual_routes():
    t0 = time.time()
    for z in all_fpf_involutions(8):
        if is_sp_dominant(z):
            # production seeds with the product, so check it against the
            # top-descent oracle instead
            assert sp_dominant_poly(z) == oracle_sp_grothendieck(z), z
        if is_fpf_grassmannian(z) is not None:
            assert sp_grassmannian_formula(z) == sp_grothendieck(z), z
    for size in range(1, 5):
        for lam in partitions_of(size, strict=True):
            for n in range(max(1, len(lam)), 5):
                f = gp_via_pi_formula(lam, n)
                d = max(f.total_degree(), 1)
                assert truncate(f, d) == gp_partition(lam, Window(n, d)), (lam, n)
    assert time.time() - t0 < 600
    report(10, "closed formulas equal the recursive family", t0)


def test_criterion_11_beta_rescaling():
    t0 = time.time()
    for w in all_permutations(4):
        assert beta_rescale_check(w), w
    assert time.time() - t0 < 30
    report(11, "beta rescaling identity over rank 4", t0)
