"""Fast checks of the benchmark runner, its output gate and its tracer on tiny
inputs.  Run with: python3 -m pytest -q perfbench/test_smoke.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = [["compute", "sp-groth", "4,3,2,1"],
        ["compute", "sp-groth", "3,4,1,2"],
        ["expand", "GP", "2,1", "--nvars", "3", "--maxdeg", "5", "--basis", "G"],
        ["sweep", "f-grass", "--rank", "4"],
        ["sweep", "sp-recurrence", "--rank", "4"]]


def _references(report: dict) -> dict:
    return {run.op_key(op["argv"]): {"exit": op["exit"], "sha256": op["sha256"]}
            for op in report["ops"]}


def test_drawn_elements_are_the_documented_sets():
    sys.path.insert(0, str(run.SRC))
    from spgroth import coxeter as cx
    from spgroth.grothendieck import is_sp_dominant

    def climb(z):
        while z != cx.FpfInvolution.top(10):
            i = next(i for i in range(1, 10) if z(i) < z(i + 1))
            z = z.conj_s(i)
            yield cx.format_word(z.oneline)

    wide = cx.parse_fpf(run.WIDE)
    assert cx.fpf_length(wide) == 19 and is_sp_dominant(wide)
    deep = [z for z in cx.all_fpf_involutions(10) if cx.fpf_length(z) <= 2 and z.support == 10]
    assert run.DEEP == tuple(cx.format_word(z.oneline) for z in deep if run.WIDE in climb(z))


def test_seed_draw_is_deterministic():
    assert run.workload_ops("family-rank10", 7) == run.workload_ops("family-rank10", 7)
    drawn = {run.workload_ops("family-rank10", s)[1]["deep"] for s in range(40)}
    assert drawn == set(run.DEEP)
    assert run.workload_ops("sweep-rank8", 1) == run.workload_ops("sweep-rank8", 2)


def test_every_workload_op_has_a_reference():
    refs = json.loads(run.REFERENCES.read_text())["ops"]
    keys = {run.op_key(argv) for seed in range(40) for name in run.WORKLOADS
            for argv in run.workload_ops(name, seed)[0]}
    assert keys <= set(refs)
    assert all(refs[key]["exit"] == 0 for key in keys)


def test_gate_counts_mismatch_bad_exit_raise_and_crash():
    report = run.run_child(TINY)
    assert report["exit"] == 0 and len(report["ops"]) == len(TINY)
    assert report["peak_rss_mb"] > 1 and report["wall_s"] > 0 and report["setup_s"] > 0
    refs = _references(report)
    assert run.gate(TINY, report, refs) == []

    wrong_digest = dict(refs)
    wrong_digest[run.op_key(TINY[0])] = {"exit": 0, "sha256": "0" * 64}
    assert run.gate(TINY, report, wrong_digest) == [run.op_key(TINY[0])]

    wrong_exit = dict(refs)
    wrong_exit[run.op_key(TINY[1])] = dict(refs[run.op_key(TINY[1])], exit=4)
    assert run.gate(TINY, report, wrong_exit) == [run.op_key(TINY[1])]

    raised = json.loads(json.dumps(report))
    raised["ops"][2]["error"] = "RuntimeError: boom"
    assert run.gate(TINY, raised, refs) == [run.op_key(TINY[2])]

    assert run.gate(TINY, {"exit": -9}, refs) == [run.op_key(argv) for argv in TINY]
    assert run.gate(TINY, report, {}) == [run.op_key(argv) for argv in TINY]


def test_sweep_output_carries_the_case_count():
    report = run.run_child([["sweep", "sp-recurrence", "--rank", "4"],
                            ["sweep", "sp-recurrence", "--rank", "6"]])
    small, large = report["ops"]
    assert small["exit"] == large["exit"] == 0
    assert small["sha256"] != large["sha256"]


def test_tracer_reaches_every_layer():
    plain = run.run_child(TINY)
    traced = run.run_child(TINY, trace=True)
    assert [op["sha256"] for op in traced["ops"]] == [op["sha256"] for op in plain["ops"]]
    layers = traced["layers"]
    for key in ("polyring.mul.calls", "polyring.add.calls", "polyring.eq.calls",
                "polyring.divided_diff.calls", "polyring.beta_divided_diff.calls",
                "polyring.isobaric.calls", "polyring.truncate.calls",
                "polyring.serialize.terms", "polyring.peak_terms",
                "grothendieck.sp_grothendieck.calls", "grothendieck.grothendieck.calls",
                "grothendieck.family.descent_steps", "grothendieck.family.reuse_ratio",
                "grothendieck.peel.calls", "grothendieck.peel.pivots",
                "grothendieck.peel.divided_diff_calls", "grothendieck.transition.calls",
                "stable.tableaux", "stable.basis_expand.calls", "stable.basis_expand.pivots",
                "stable.stable_groth_perm.calls", "stable.gp_sp.calls", "stable.verify.calls",
                "coxeter.calls", "cli.self_s", "cli.out_bytes"):
        assert layers[key] > 0, key
    assert layers["cli.out_bytes"] == sum(op["bytes"] for op in plain["ops"])
    assert 0 < layers["polyring.truncate.kept_ratio"] <= 1
    pairs = {(row["fn"], row["parent"]) for row in traced["spans"]}
    # rebinding reached names imported into other modules and dict entries
    # (polyring.OPERATORS, through apply_word)
    assert ("polyring.beta_divided_diff", "grothendieck.sp_grothendieck") in pairs
    assert ("polyring.isobaric", "stable.stable_groth_perm") in pairs
    assert ("polyring.divided_diff", "polyring.apply_word") in pairs
    assert ("cli.main", "") in pairs


def test_tracer_binds_through_sys_modules_and_aliases():
    # in a separate interpreter: installing the tracer rebinds module state
    code = """if True:
        import sys
        sys.path[:0] = [sys.argv[1], sys.argv[2]]
        import spgroth.cli
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        groth = sys.modules["spgroth.grothendieck"]
        poly = sys.modules["spgroth.polyring"]
        assert poly.beta_divided_diff.__wrapped__ is not None
        assert groth.beta_divided_diff is poly.beta_divided_diff
        assert poly.OPERATORS["beta"] is poly.beta_divided_diff
        assert sys.modules["spgroth.stable"].grothendieck is groth.grothendieck
        assert sys.modules["spgroth"].grothendieck is groth.grothendieck
        assert groth.grothendieck.__wrapped__ is not None
        one = poly.MultiPoly.one(2)
        assert 1 + one == one + 1 and 2 * one == one * 2
        assert tracer.fns["polyring.MultiPoly.__radd__"].calls == 1
        assert tracer.fns["polyring.MultiPoly.__rmul__"].calls == 1
    """
    done = subprocess.run([sys.executable, "-c", code, str(run.SRC), str(run.BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_descent_steps_count_beta_steps_under_family_spans():
    # 4,3,2,1 is the top of rank 4; 3,4,1,2 lies one beta step below it
    layers = run.run_child(TINY[:2], trace=True)["layers"]
    assert layers["grothendieck.family.descent_steps"] == 1
    assert layers["grothendieck.sp_grothendieck.calls"] == 2


def test_measure_reports_medians_of_own_children():
    refs = _references(run.run_child(TINY[:2]))
    values, children = run.measure(TINY[:2], 0.5, refs, run.time.monotonic() + 60)
    assert all(child["failed"] == [] for child in children)
    assert set(values) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value in values.values())


def _bench_copy(tmp_path: Path) -> Path:
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def _run_copy(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stable-window",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=60)


def test_fails_without_the_program(tmp_path):
    root = _bench_copy(tmp_path)
    done = _run_copy(root)
    assert done.returncode != 0 and done.stdout == ""


def test_fails_when_the_program_cannot_be_imported(tmp_path):
    root = _bench_copy(tmp_path)
    pkg = root / "src" / "spgroth"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("raise ImportError('broken build')\n")
    done = _run_copy(root)
    assert done.returncode != 0 and done.stdout == ""
