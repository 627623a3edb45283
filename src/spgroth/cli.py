"""Command-line surface: compute / expand / verify / sweep.

verify decides one case of an identity, and sweep every case at a rank,
through the same _check.  Output is canonical and byte-identical across
runs.  Exit codes: 0 success, 1 standard output closed early (as by
`| head`), 2 parse error, 3 precondition violation, memory exhausted or
recursion too deep, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from . import coxeter as cx
from . import stable as st
from .grothendieck import (
    beta_rescale_check,
    expand_in_grothendieck_basis,
    grothendieck,
    schubert,
    sp_grothendieck,
    sp_transition_recurrence,
    verify_lenart_transition,
    verify_sp_transition,
)
from .polyring import MultiPoly

SCHEMA_VERSION = 1


class CliError(Exception):
    """An element text that does not parse (exit 2); a precondition
    violation is a ValueError (exit 3)."""


def _window(args) -> st.Window:
    return st.Window(args.nvars, args.maxdeg)


# element kind -> parser of its command-line text
PARSERS = {
    "perm": cx.parse_permutation,
    "fpf": cx.parse_fpf,
    "partition": cx.parse_partition,
    "strict": lambda text: cx.as_strict_partition(cx.parse_partition(text)),
}


def _parse(kind: str, text: str):
    try:
        return PARSERS[kind](text)
    except ValueError as exc:
        raise CliError(f"cannot parse {kind} element {text!r}: {exc}") from exc


def _json(fields: dict) -> str:
    """The canonical JSON text of one output object, stamped with the
    schema version: keys sorted, no spaces."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **fields},
                      sort_keys=True, separators=(",", ":"))


def _emit_poly(f: MultiPoly, args, meta: dict) -> None:
    """Write the polynomial a chunk of terms at a time, so its whole text
    never exists in memory."""
    write = sys.stdout.write
    if args.format == "json":
        header = _json({**meta, "nvars": f.nvars, "terms": []})
        # the terms array is serialized as text, in the dump's own format, and
        # spliced in; a string value escapes its quotes, so the key is found
        before, _, after = header.rpartition('"terms":[]')
        write(before + '"terms":')
        f.canonical_json_terms(write)
        write(after + "\n")
    else:
        f.canonical_text(write)
        write("\n")


def _emit_expansion(rows, args, meta: dict) -> None:
    """Print (element text, BetaInt coefficient) rows."""
    if args.format == "json":
        terms = [{"element": el, "coef": list(c.coeffs)} for el, c in rows]
        print(_json({**meta, "terms": terms}))
    else:
        for el, c in rows:
            print(f"{el}: {c.bracket()}")


# object -> (element kind, default expansion basis, builder from the parsed
# element and the window); the builders look their functions up when called
OBJECTS = {
    "groth": ("perm", "groth", lambda el, win: grothendieck(el)),
    "schubert": ("perm", "groth", lambda el, win: schubert(el)),
    "sp-groth": ("fpf", "groth", lambda el, win: sp_grothendieck(el)),
    "G": ("partition", "G", lambda el, win: st.stable_groth_partition(el, win)),
    "GP": ("strict", "GP", lambda el, win: st.gp_partition(el, win)),
    "GP-sp": ("fpf", "GP", lambda el, win: st.gp_sp(el, win)),
}


def _build(args, win: st.Window) -> MultiPoly:
    kind, _, build = OBJECTS[args.object]
    return build(_parse(kind, args.element), win)


def cmd_compute(args) -> int:
    f = _build(args, _window(args))
    _emit_poly(f, args, {"command": "compute", "object": args.object, "element": args.element})
    return 0


def cmd_expand(args) -> int:
    win = _window(args)
    basis = args.basis or OBJECTS[args.object][1]
    f = _build(args, win)

    meta = {"command": "expand", "object": args.object, "element": args.element, "basis": basis,
            "window": {"nvars": win.nvars, "maxdeg": win.maxdeg}}
    if basis == "groth":
        exp = expand_in_grothendieck_basis(f, args.max_expansion_degree)
        rows = [(cx.format_word(w.oneline), c) for w, c in exp.terms]
    else:
        if basis == "G":
            exp = st.expand_in_G_basis(f, win)
            meta["censored_beyond"] = {"size": win.maxdeg, "rows": win.nvars}
        else:
            exp = st.expand_in_GP_basis(f, win)
            meta["censored_beyond"] = {"size": win.maxdeg, "parts": win.nvars}
        rows = [(cx.format_partition(lam), c) for lam, c in exp.terms]
    _emit_expansion(rows, args, meta)
    return 0


# identity -> (element kind, index options it needs, the elements a sweep
# visits, or None for all); "shifted" is an fpf involution read on Z at
# --offset, and verify rejects every index option an identity does not read
IDENTITIES = {
    "lenart-transition": ("perm", ("k",), None),
    "sp-transition": ("fpf", ("j", "k"), None),
    "sp-recurrence": ("fpf", (), lambda z: z != cx.FpfInvolution.theta_involution()),
    "f-grass": ("fpf", (), lambda z: cx.is_fpf_grassmannian(z) is not None),
    "stable-sp-transition": ("shifted", ("j", "k"), None),
    "beta-rescale": ("perm", (), None),
}


def _sides(lhs: MultiPoly, rhs: MultiPoly) -> str:
    """The FAIL detail of a two-sided check."""
    return f"lhs = {lhs.canonical_text()}\nrhs = {rhs.canonical_text()}"


def _check(identity: str, element, j, k, win: st.Window) -> tuple[bool, Callable[[], str]]:
    """(verdict, detail) of one case of the identity: detail() is the text
    printed under FAIL, "" for none, and computes it only when called.  The
    checks are looked up when called."""
    if identity == "lenart-transition":
        chk = verify_lenart_transition(element, k)
        return chk.equal and bool(chk.signed_equal), lambda: _sides(chk.lhs, chk.rhs)
    if identity == "sp-transition":
        chk = verify_sp_transition(element, j, k)
        return chk.equal, lambda: _sides(chk.lhs, chk.rhs)
    if identity == "sp-recurrence":
        chk = sp_transition_recurrence(element)
        return chk.certified, lambda: _sides(chk.lhs, chk.rhs)
    if identity == "f-grass":
        return st.verify_f_grass(element, win), lambda: _sides(
            st.gp_sp(element, win), st.gp_partition(cx.sp_shape(element), win))
    if identity == "stable-sp-transition":
        return (st.verify_stable_sp_transition(element, j, k, win),
                lambda: f"window nvars={win.nvars} maxdeg={win.maxdeg}")
    return beta_rescale_check(element), lambda: ""


def cmd_verify(args) -> int:
    win = _window(args)
    kind, needs, _ = IDENTITIES[args.identity]
    if any(getattr(args, name) is None for name in needs):
        raise ValueError(
            f"{args.identity} needs " + " and ".join(f"--{name}" for name in needs))
    takes = needs + ("offset",) if kind == "shifted" else needs
    unread = [name for name in ("j", "k", "offset")
              if getattr(args, name) is not None and name not in takes]
    if unread:
        raise ValueError(
            f"{args.identity} does not take " + " and ".join(f"--{name}" for name in unread))
    element = _parse("fpf" if kind == "shifted" else kind, args.element)
    if kind == "shifted":
        element = cx.ShiftedFpfInvolution(element, args.offset or 0)
    ok, detail = _check(args.identity, element, args.j, args.k, win)
    if args.format == "json":
        print(_json({"command": "verify", "identity": args.identity,
                     "element": args.element, "result": "PASS" if ok else "FAIL"}))
    else:
        print("PASS" if ok else "FAIL")
        text = "" if ok else detail()
        if text:
            print(text)
    return 0 if ok else 4


def _sweep_cases(identity: str, rank: int):
    """Yield (label, element, j, k) per case of the identity at the rank:
    every element of its kind that the sweep visits, with every index
    value it needs (k up to rank + 1, or each 2-cycle (a, b) inside the
    rank).  The shifted kind reads each involution on Z at offset 0 only:
    its 2-cycle (a - 2, b - 2) at offset 2 frames to the same computation
    as a case at offset 0."""
    kind, needs, visits = IDENTITIES[identity]
    elements = cx.all_permutations(rank) if kind == "perm" else cx.all_fpf_involutions(rank)
    for el in elements:
        if visits is not None and not visits(el):
            continue
        word = cx.format_word(el.oneline)
        if not needs:
            yield word, el, None, None
        elif kind == "perm":
            for k in range(1, rank + 2):
                yield f"{word} k={k}", el, None, k
        else:
            element = el if kind == "fpf" else cx.ShiftedFpfInvolution(el)
            for a, b in el.cycles_in_rank(rank):
                yield f"{word} (j,k)=({a},{b})", element, a, b


def cmd_sweep(args) -> int:
    if args.rank < 1:
        raise ValueError(f"--rank must be positive, got {args.rank}")
    if IDENTITIES[args.identity][0] != "perm" and args.rank % 2:
        raise ValueError("this identity sweeps involutions: --rank must be even")
    win = _window(args)
    failures, total = [], 0
    for label, element, j, k in _sweep_cases(args.identity, args.rank):
        total += 1
        if not _check(args.identity, element, j, k, win)[0]:
            failures.append(label)
    if args.format == "json":
        print(_json({"command": "sweep", "identity": args.identity, "rank": args.rank,
                     "total": total, "failures": failures}))
    elif failures:
        print(f"{len(failures)}/{total} identities FAIL")
        for label in failures:
            print(f"FAIL: {label}")
    else:
        print(f"all {total} identities PASS")
    return 0 if not failures else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgroth",
        description="Exact computations with (symplectic) Grothendieck polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--nvars", type=int, default=4)
        p.add_argument("--maxdeg", type=int, default=6)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="print a polynomial in canonical form")
    p.add_argument("object", choices=tuple(OBJECTS))
    p.add_argument("element")
    add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("expand", help="print a basis expansion")
    p.add_argument("object", choices=tuple(OBJECTS))
    p.add_argument("element")
    p.add_argument("--basis", choices=("groth", "G", "GP"))
    p.add_argument("--max-expansion-degree", type=int, default=16)
    add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="check a named identity on one element")
    p.add_argument("identity", choices=tuple(IDENTITIES))
    p.add_argument("element")
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--offset", type=int)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="check a named identity exhaustively at a rank")
    p.add_argument("identity", choices=tuple(IDENTITIES))
    p.add_argument("--rank", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output; what is still buffered would
        # fail again at exit, so it goes to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        cause = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"error: {cause} in {args.command}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
