import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spgroth.cli as cli
import spgroth.stable as st
from spgroth.cli import main
from spgroth.coxeter import FpfInvolution, ShiftedFpfInvolution, all_fpf_involutions, fpf_length
from spgroth.grothendieck import TransitionCheck, sp_grothendieck
from spgroth.polyring import _CHUNK, EXP_MAX, MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_sp_groth_text(self, capsys):
        code, out, _ = run(capsys, "compute", "sp-groth", "3412")
        assert code == 0
        assert out.strip() == "[1] * x2 + [1] * x1 + [0,1] * x1 x2"

    def test_byte_determinism(self, capsys):
        first = run(capsys, "compute", "sp-groth", "351624", "--format", "json")
        second = run(capsys, "compute", "sp-groth", "351624", "--format", "json")
        assert first == second
        obj = json.loads(first[1])
        assert obj["schema_version"] == 1
        assert len(obj["terms"]) == 30

    def test_window_objects(self, capsys):
        code, out, _ = run(capsys, "compute", "G", "1", "--nvars", "2", "--maxdeg", "3")
        assert code == 0
        assert out.strip() == "[1] * x2 + [1] * x1 + [0,1] * x1 x2"
        code, out2, _ = run(capsys, "compute", "GP-sp", "3412", "--nvars", "2", "--maxdeg", "3")
        assert code == 0
        assert out2 == out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "groth", "1231")
        assert code == 2
        assert "cannot parse" in err

    def test_fpf_parse_errors_exit_2(self, capsys):
        prefix = "error: cannot parse fpf element"
        assert run(capsys, "compute", "sp-groth", "213") == (
            2, "", f"{prefix} '213': fpf involution word must have even length\n")
        assert run(capsys, "compute", "sp-groth", "1134") == (
            2, "", f"{prefix} '1134': not a permutation word: (1, 1, 3, 4)\n")

    def test_out_of_memory_exit_3(self, capsys, monkeypatch):
        # as `compute G 1 --nvars 9999999` does under an address-space cap:
        # one line on stderr, no traceback
        def exhausted(el, win):
            raise MemoryError

        monkeypatch.setitem(cli.OBJECTS, "G", ("partition", "G", exhausted))
        for command in ("compute", "expand"):
            assert run(capsys, command, "G", "1") == (
                3, "", f"error: out of memory in {command}\n")

    def test_recursion_too_deep_exit_3(self, capsys, monkeypatch):
        # as a first-ascent climb longer than the interpreter's frames does:
        # one line on stderr, no traceback
        def too_deep(el, win):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli.OBJECTS, "G", ("partition", "G", too_deep))
        for command in ("compute", "expand"):
            assert run(capsys, command, "G", "1") == (
                3, "", f"error: recursion too deep in {command}\n")

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "compute", "GP", "-")
        assert code == 0
        assert out.strip() == "[1]"

    def test_deep_shapes(self, capsys):
        # one row of 1500 cells: more cells than the interpreter's frames
        for obj in ("G", "GP"):
            code, out, err = run(capsys, "compute", obj, "1500", "--nvars", "1",
                                 "--maxdeg", "1500")
            assert code == 0, err
            assert out == "[1] * x1^1500\n"


class _Recorder(io.TextIOBase):
    """A standard output that keeps each write."""

    def __init__(self):
        self.writes: list[str] = []

    def writable(self):
        return True

    def write(self, text):
        self.writes.append(text)
        return len(text)


class TestStreamedOutput:
    # the top element of rank 8: 9,501 terms, about 380 KB of text
    ELEMENT = "87654321"

    def _writes(self, *options):
        sink = _Recorder()
        with contextlib.redirect_stdout(sink):
            assert main(["compute", "sp-groth", self.ELEMENT, *options]) == 0
        return sink.writes

    def test_chunked_writes(self):
        f = sp_grothendieck(FpfInvolution.top(8))
        assert len(f.terms) > 2 * _CHUNK
        writes = self._writes()
        assert len(writes) > 1
        assert max(piece.count("[") for piece in writes) <= _CHUNK
        assert "".join(writes) == f.canonical_text() + "\n"
        writes = self._writes("--format", "json")
        assert len(writes) > 1
        assert max(piece.count('{"beta"') for piece in writes) <= _CHUNK
        assert "".join(writes) == cli._json(
            {"command": "compute", "object": "sp-groth", "element": self.ELEMENT,
             "nvars": f.nvars, "terms": json.loads(f.canonical_json_terms())}) + "\n"

    @staticmethod
    def _spawn(argv, stdout):
        # stdout block-buffered, as when run by hand, so that the flush at
        # exit is reached
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        return subprocess.Popen([sys.executable, "-m", "spgroth.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @staticmethod
    def _quiet_exit_1(proc):
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err, err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_pipe_closed_while_writing(self, fmt):
        # the output is larger than a pipe's buffer, so the child is still
        # writing when the reader goes
        proc = self._spawn(["compute", "sp-groth", self.ELEMENT, "--format", fmt],
                           subprocess.PIPE)
        assert len(proc.stdout.read(40)) == 40
        proc.stdout.close()
        self._quiet_exit_1(proc)

    def test_pipe_closed_before_flush(self):
        # a short output waits in the buffer until the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self._spawn(["compute", "sp-groth", "3412"], write_end)
        os.close(write_end)
        self._quiet_exit_1(proc)


class TestExpand:
    def test_default_basis_inference(self, capsys):
        code, out, _ = run(capsys, "expand", "GP-sp", "4321", "--nvars", "4", "--maxdeg", "6")
        assert code == 0
        assert out.strip() == "2: [1]"

    def test_override_basis(self, capsys):
        code, out, _ = run(capsys, "expand", "GP", "2", "--basis", "G",
                           "--nvars", "4", "--maxdeg", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "2: [1]"
        assert all(":" in line for line in lines)

    def test_groth_basis(self, capsys):
        code, out, _ = run(capsys, "expand", "sp-groth", "3412")
        assert code == 0
        assert out.strip() == "132: [1]"

    def test_fewer_variables_than_window(self, capsys):
        # both polynomials are the constant 1 in one variable, read in the
        # window's four
        for command in ("expand sp-groth - --basis GP", "expand groth 1 --basis G"):
            assert run(capsys, *command.split()) == (0, "-: [1]\n", ""), command

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "expand", "GP-sp", "4321", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["basis"] == "GP"
        assert obj["terms"] == [{"element": "2", "coef": [1]}]
        assert obj["censored_beyond"] == {"size": 6, "parts": 4}


class TestVerify:
    def test_f_grass_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "f-grass", "47816523",
                           "--nvars", "4", "--maxdeg", "6")
        assert code == 0
        assert out.strip() == "PASS"

    def test_precondition_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "f-grass", "654321")
        assert code == 3
        assert "not FPF-Grassmannian" in err

    def test_missing_index_exit_3(self, capsys):
        needing = {name: entry for name, entry in cli.IDENTITIES.items() if entry[1]}
        assert needing.keys() == MISSING_INDEX_ERRORS.keys()
        for identity, (kind, needs, _) in needing.items():
            element = "13452" if kind == "perm" else "351624"
            # none of the options, and each one alone
            for given in [()] + [(name,) for name in needs if len(needs) > 1]:
                options = [f"--{name}=1" for name in given]
                assert run(capsys, "verify", identity, element, *options) == (
                    3, "", MISSING_INDEX_ERRORS[identity]), (identity, given)

    def test_lenart(self, capsys):
        code, out, _ = run(capsys, "verify", "lenart-transition", "13452", "--k", "3")
        assert code == 0 and out.strip() == "PASS"

    def test_recurrence_and_rescale(self, capsys):
        assert run(capsys, "verify", "sp-recurrence", "4321")[0] == 0
        assert run(capsys, "verify", "beta-rescale", "321")[0] == 0

    def test_stable_transition(self, capsys):
        code, out, _ = run(capsys, "verify", "stable-sp-transition", "3412",
                           "--j", "1", "--k", "3", "--nvars", "3", "--maxdeg", "4")
        assert code == 0 and out.strip() == "PASS"

    def test_stable_transition_below_support(self, capsys):
        for element, j in (("-", -1), ("-", -3), ("3412", -1), ("351624", -1)):
            code, out, _ = run(capsys, "verify", "stable-sp-transition", element,
                               f"--j={j}", f"--k={j + 1}", "--nvars", "3", "--maxdeg", "4")
            assert (code, out) == (0, "PASS\n"), (element, j)

    def test_json_result(self, capsys):
        code, out, _ = run(capsys, "verify", "sp-recurrence", "3412", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

    def test_pass_serializes_nothing(self, capsys, monkeypatch):
        calls = []
        text = MultiPoly.canonical_text
        monkeypatch.setattr(MultiPoly, "canonical_text",
                            lambda f, *write: calls.append(f) or text(f, *write))
        for command in (("lenart-transition", "13452", "--k", "3"),
                        ("sp-transition", "351624", "--j", "1", "--k", "3"),
                        ("sp-recurrence", "4321"),
                        ("f-grass", "3412", "--nvars", "3", "--maxdeg", "4")):
            assert run(capsys, "verify", *command) == (0, "PASS\n", ""), command
        assert calls == []

    def test_failure_exit_4(self, capsys, monkeypatch):
        # no true identity fails, so a check with unequal sides stands in
        def unequal(v, j, k):
            return TransitionCheck(MultiPoly.x(1, 1), MultiPoly.beta(1), False)

        monkeypatch.setattr(cli, "verify_sp_transition", unequal)
        command = ("verify", "sp-transition", "351624", "--j", "1", "--k", "3")
        assert run(capsys, *command) == (4, "FAIL\nlhs = [1] * x1\nrhs = [0,1]\n", "")
        code, out, err = run(capsys, *command, "--format", "json")
        assert (code, err) == (4, "")
        assert '"result":"FAIL"' in out
        assert json.loads(out) == {"schema_version": 1, "command": "verify",
                                   "identity": "sp-transition", "element": "351624",
                                   "result": "FAIL"}

    def test_f_grass_failure_prints_both_sides(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.st, "verify_f_grass", lambda z, win: False)
        side = "[1] * x2 + [1] * x1 + [0,1] * x1 x2"
        assert run(capsys, "verify", "f-grass", "3412", "--nvars", "2", "--maxdeg", "3") == (
            4, f"FAIL\nlhs = {side}\nrhs = {side}\n", "")


# stderr of verify without the index options an identity needs, recorded
# while each identity still tested its own options
MISSING_INDEX_ERRORS = {
    "lenart-transition": "error: lenart-transition needs --k\n",
    "sp-transition": "error: sp-transition needs --j and --k\n",
    "stable-sp-transition": "error: stable-sp-transition needs --j and --k\n",
}


class TestSweep:
    def test_sp_transition_rank4(self, capsys):
        # three involutions, each with two 2-cycles inside rank 4
        code, out, _ = run(capsys, "sweep", "sp-transition", "--rank", "4")
        assert code == 0
        assert out.strip() == "all 6 identities PASS"

    def test_beta_rescale_rank3(self, capsys):
        code, out, _ = run(capsys, "sweep", "beta-rescale", "--rank", "3")
        assert code == 0
        assert out.strip() == "all 6 identities PASS"

    def test_odd_rank_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "sp-transition", "--rank", "5")
        assert code == 3

    def test_nonpositive_rank_rejected(self, capsys):
        for identity, rank in (("f-grass", "-2"), ("lenart-transition", "0")):
            code, out, err = run(capsys, "sweep", identity, "--rank", rank)
            assert code == 3, identity
            assert out == ""
            assert "--rank must be positive" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "f-grass", "--rank", "4",
                           "--nvars", "3", "--maxdeg", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["failures"] == [] and obj["total"] == 3

    def test_failure_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.st, "verify_f_grass", lambda z, win: False)
        command = ("sweep", "f-grass", "--rank", "4", "--nvars", "3", "--maxdeg", "4")
        assert run(capsys, *command) == (
            4, "3/3 identities FAIL\nFAIL: -\nFAIL: 3412\nFAIL: 4321\n", "")
        code, out, err = run(capsys, *command, "--format", "json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"schema_version": 1, "command": "sweep",
                                   "identity": "f-grass", "rank": 4, "total": 3,
                                   "failures": ["-", "3412", "4321"]}


def verify_argv(identity: str, label: str) -> list[str]:
    """The verify command a reader types to re-run the sweep case of this
    label: the word, then --j/--k from "(j,k)=(j,k)" or "k=k"."""
    word, *fields = label.split()
    argv = ["verify", identity, word]
    for field in fields:
        name, _, value = field.partition("=")
        if name == "(j,k)":
            j, k = value.strip("()").split(",")
            argv += [f"--j={j}", f"--k={k}"]
        elif name == "k":
            argv.append(f"--k={value}")
        else:
            raise ValueError(f"unknown field {field!r} in {label!r}")
    return argv


class TestSweepMatchesVerify:
    def test_every_case_reruns_under_verify(self, capsys):
        for identity, (kind, _, _) in cli.IDENTITIES.items():
            rank = 3 if kind == "perm" else 4
            labels = [label for label, *_ in cli._sweep_cases(identity, rank)]
            assert labels, identity
            for label in labels:
                argv = verify_argv(identity, label)
                assert run(capsys, *argv) == (0, "PASS\n", ""), argv

    def test_offset_2_passes_under_verify(self, capsys):
        # the sweep reads offset 0 only; verify still reads an involution at
        # offset 2, down to the 2-cycle (-1, 0)
        for element, j, k in (("3412", -1, 1), ("-", -1, 0)):
            argv = ("verify", "stable-sp-transition", element, f"--j={j}", f"--k={k}",
                    "--offset=2")
            assert run(capsys, *argv) == (0, "PASS\n", ""), argv


class _Frame(Exception):
    pass


def stable_frame(monkeypatch, v: ShiftedFpfInvolution, j: int, k: int) -> tuple:
    """(y.oneline, j + d, k + d): the positive frame (y, d) on which
    verify_stable_sp_transition computes the case, read from its call of
    fpf_transition_indices, which is stopped before any polynomial."""
    def capture(y, jd, kd):
        raise _Frame((y.oneline, jd, kd))

    monkeypatch.setattr(st, "fpf_transition_indices", capture)
    with pytest.raises(_Frame) as frame:
        st.verify_stable_sp_transition(v, j, k, st.Window(4, 6))
    return frame.value.args[0]


class TestStableSweepFrames:
    def sweep_frames(self, monkeypatch, rank: int) -> list[tuple]:
        return [stable_frame(monkeypatch, v, j, k)
                for _, v, j, k in cli._sweep_cases("stable-sp-transition", rank)]

    def test_no_two_cases_share_a_frame(self, monkeypatch):
        for rank, total in ((4, 6), (6, 45)):
            frames = self.sweep_frames(monkeypatch, rank)
            assert len(set(frames)) == len(frames) == total, rank

    def test_offset_2_frames_are_visited(self, monkeypatch):
        # the sweep once also read each involution at offset 2, its 2-cycle
        # (a, b) at (a - 2, b - 2); each of those frames is an offset-0 case's
        for rank in (4, 6, 8):
            visited = set(self.sweep_frames(monkeypatch, rank))
            shifted = {stable_frame(monkeypatch, ShiftedFpfInvolution(el, 2), a - 2, b - 2)
                       for el in all_fpf_involutions(rank)
                       for a, b in el.cycles_in_rank(rank)}
            assert shifted <= visited, rank


class TestArgparseSurface:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_identity_exit_2(self, capsys):
        assert main(["verify", "no-such-identity", "21"]) == 2


# stdout sha256 of cheap ops, recorded before the packed-monomial kernel,
# except the text of the rank-8 top element, recorded while the serializers
# still built the terms one by one, and the last eleven: four recorded
# before the tableau engine and the expansion classes were merged, three
# before the stable limits applied only the parabolic quotient of the long
# word, and four (repeated parts, more rows than variables, the empty shape,
# an expansion) while the shape series G was still a tableau sum, and the
# five rank-10 symplectic ops of the benchmark's family workload (the wide
# element, then the four deep ones), copied from perfbench/references.json,
# which was recorded while the family still climbed by first ascents, and
# the rank-10 top element, the largest closed product, recorded while that
# product was still a chain of generic products; the rank-4 stable sweep
# was re-recorded when it stopped repeating, at offset 2, the computations
# of its offset-0 cases; the two one-row shifted shapes, one at the
# largest exponent in range ("[1] * x1^16383") and one with more cells than
# the window's degree ("0"), were recorded when GP began to sum packed keys:
# the first as GP printed it while it still decoded its tableau keys, the
# second where that route ran out of memory; the JSON text of the wide
# rank-10 element was recorded while the serializer still memoized the text
# of each exponent; the last two, one-row G series with more cells than the
# window's degree ("0"), were recorded when they stopped exiting 3 for
# building x^lam before the degree check; every op exits 0
PINNED_OUTPUT = [
    ("compute groth 2143",
     "fcfe777f37d19fa327f8ed92fee0935c4376afde147c949babdcd7b8d1a916fc"),
    ("compute schubert 1432",
     "004534047ff6a26cb2e750f58f1960d0aa00e78795c2b7c7eeed1e47d845ae04"),
    ("compute groth 31524 --format json",
     "c7637d6ad87855ac4f9c890c2a016245a9bdf5e98e599f7eca2c012840e0832d"),
    ("compute sp-groth 351624 --format json",
     "0b7cc170d127c5ea2c33d3efe4a530f8484dc03f1dadc08d32781848374d3d3c"),
    ("compute sp-groth 8,7,6,5,4,3,2,1 --format json",
     "bc41c2dd678872d324167fb7eaf1e6b34c7dd7ac24cb794f36b3c5e1968d696f"),
    ("compute sp-groth 8,7,6,5,4,3,2,1",
     "9ac18f2084eeee17d066d846267e0b698ed725f20e3982ed856abf3913d21583"),
    ("compute G 2,1 --nvars 3 --maxdeg 5",
     "1e1118871f197343bb9e89ed6dc377ccea9d4a9ae02b00c4395e15477de35bb5"),
    ("compute GP 3,1 --nvars 3 --maxdeg 6 --format json",
     "8ff284923ac0a15d6447473d42aa775fc0f6a15941681278bd8a1ddda3016cb6"),
    ("compute GP-sp 351624 --nvars 3 --maxdeg 5",
     "89ffa379ada075863403e3b7d149c4fda58d7a86b08b3330961f80ae43e5acea"),
    ("expand groth 1432 --format json",
     "ce9a797f47ec142acd78824e2b09a5854e4dc2b73f1f6c550444b2f1d7861579"),
    ("expand GP 2 --basis G --nvars 4 --maxdeg 5",
     "1d39761682ea2d021ea8a0e092a1239263820dfd2601b8a9870509053ca15621"),
    ("expand GP-sp 4321 --format json",
     "e9768da6fa9f405146401cfcf7a757338432903d83b3dc0a5f947423a5b39ef6"),
    ("verify sp-transition 351624 --j 1 --k 3 --format json",
     "da0cd3499dc0fa969c658c78a4db1ed9d03c2a7cd52e021ec3487bc9db7955b1"),
    ("verify beta-rescale 2413 --format json",
     "5f36745b7d8f1bb9f8b35a8fb06a4032b7592fb2b806b5c4d4977c04f7aa72f0"),
    ("sweep sp-recurrence --rank 6",
     "871205660a79bcd8088e4996d3308423ae1659071f91288c04f2b117951eb081"),
    ("sweep lenart-transition --rank 4 --format json",
     "bfae2d3480debafb45326554cd73998a03d3ce9470b2778156b5ee9ec384ac15"),
    ("sweep stable-sp-transition --rank 4 --format json",
     "526753cbc5b346a8fb7d4a564efbfe29930e0b0120728d55dd46763f7ac4ebbb"),
    ("sweep f-grass --rank 6",
     "3129d1c8b3a1bf82b54ae6adab6c88e062dd4116c2a22b42415900f7103c4766"),
    ("expand G 3,2 --nvars 4 --maxdeg 7 --format json",
     "d94fec281e8431cd3c4a5a93cf3884ae47a69f37ff4d738509f761af9506de8e"),
    ("compute GP 3,2,1 --nvars 3 --maxdeg 8 --format json",
     "8ec86482087d32f6e62a0239ddf9b18c7e05ca709f90d499d2c6c9779b7621f9"),
    ("compute GP-sp 351624 --nvars 6 --maxdeg 8 --format json",
     "5d5b344eee53d86385ad4da1864e7ffd419f91c3183b56aeb9a2142fc00d7e10"),
    ("compute GP-sp 47816523 --nvars 4 --maxdeg 7",
     "c5695116f2406319516189ec08eb897ff46a28d997877b3cab6855ac599d61ef"),
    ("expand GP-sp 35172846 --nvars 4 --maxdeg 7 --format json",
     "307820e711f540e32e28d4ac6f65cae110657627f6952a32591509d360d24277"),
    ("compute G 2,2,1,1 --nvars 5 --maxdeg 9 --format json",
     "2da20f02b8fbcda8a513c0c099b23b04f78307d0c136dbe0df9c83353a11265f"),
    ("compute G 2,1 --nvars 1 --format json",
     "56abde51e4d3c547b287ba1f9670b597a0142cde8a527c560ef383d4d28cdb17"),
    ("compute G - --nvars 3 --format json",
     "0fbe2d529bd7b7a384403e9a4f79f8c5a3bff2aeda9c92846dc5c4f1dbf27a13"),
    ("expand G 2,2 --nvars 3 --maxdeg 6 --format json",
     "afe652f23ba5031c8cf405aeec7fce672bbe7f478c9f2eb4eb5028d2eab08fef"),
    ("compute sp-groth 9,10,8,7,6,5,4,3,1,2",
     "b8188f6759cc3c3ae74c8152ff57bcda1069d0d19365218b4c3a81a69c62971f"),
    ("compute sp-groth 2,1,4,3,6,5,9,10,7,8",
     "65b00862b9543ca9c3c41aa5d33de04868e7b3f926429fb70e10bd73c00efe4e"),
    ("compute sp-groth 2,1,4,3,7,9,5,10,6,8",
     "e78a7d7e69c87118fea0ba0960bbc8eedd5ccd327e597e7c61c7fa2db4723bac"),
    ("compute sp-groth 2,1,5,6,3,4,9,10,7,8",
     "94261bdc64526b18acaf3048d2fb99d47872570e500b43b2494594e6b5ad59c6"),
    ("compute sp-groth 3,4,1,2,6,5,9,10,7,8",
     "2f8e2947bf261562283014d18220bc2e678b407e1fdd9900912971f045e631e3"),
    ("compute sp-groth 10,9,8,7,6,5,4,3,2,1",
     "9582c26aca3242d45bcd96ac50bb736402d8000ccea1359ee8320b3e9656003b"),
    ("expand sp-groth 4,7,8,1,6,5,2,3 --format json",
     "b8fb0ef6e07080cf0caf2847ee588cc860767009175ee2a1b3a8ba48705a51a0"),
    ("compute GP 16383 --nvars 1 --maxdeg 40000",
     "84cbf2390c4a343cbbf447c3df9f13c4a0970b8d78e91c257d5a9f6f575c0683"),
    ("compute GP 9999999999 --nvars 1 --maxdeg 5",
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("compute sp-groth 9,10,8,7,6,5,4,3,1,2 --format json",
     "e0650a9ca79aae768cb8184f2c021934e70159a34638ae914b32ebf02704e317"),
    ("compute G 16384 --nvars 1 --maxdeg 5",
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("compute G 9999999999 --nvars 1 --maxdeg 5",
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
]

# sha256 over (one-line word, nvars, text) of the 34 rank-10 involutions of
# fpf length <= 3, recorded while the family still climbed by first ascents
LOW_RANK_10_SHA256 = "4abf703f911107a29de720b3656d963d5636a6058e2aacafc6275cfe15d2bfde"


class TestPinnedOutput:
    @pytest.mark.parametrize("command,sha256", PINNED_OUTPUT)
    def test_stdout_bytes(self, capsys, command, sha256):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_low_rank_10_family(self):
        h = hashlib.sha256()
        zs = [z for z in all_fpf_involutions(10) if fpf_length(z) <= 3]
        assert len(zs) == 34
        for z in zs:
            f = sp_grothendieck(z)
            h.update(f"{z.oneline} {f.nvars}\n{f.canonical_text()}\n".encode())
        assert h.hexdigest() == LOW_RANK_10_SHA256


class TestPackedRange:
    def test_overflow_exits_3(self, capsys, monkeypatch):
        # no cheap element reaches the packed exponent range, so an object
        # whose builder multiplies past it stands in for one
        def build(el, win):
            return MultiPoly.x(1, 1, power=EXP_MAX) * MultiPoly.x(1, 1)

        monkeypatch.setitem(cli.OBJECTS, "G", ("partition", "G", build))
        for command in ("compute", "expand"):
            code, out, err = run(capsys, command, "G", "1")
            assert code == 3, command
            assert out == ""
            assert "outside the packed range" in err


# stdout, stderr and exit code of precondition failures, recorded while the
# CLI still turned each ValueError into its own error, except the last four:
# the index check of the permutation transition, the packed range of the
# first isobaric step of a one-row shape at the exponent limit, the packed
# range of a shifted one-row shape one past that limit, and a G series
# outside the strict-shape span, recorded while the G expansion still
# listed every partition of each size; the coefficient bound of the
# rank-14 top element's closed product (42 cells, so 3^42), recorded when
# that product became one Kronecker substitution; and three one-row shifted
# shapes past the exponent limit, with the text the 16384 case had while GP
# still decoded its tableau keys: the first exponent at which a 16-bit key
# field would carry, and two shapes too large to list their cells, the
# second past 64 bits; and a one-row G series inside the window's degree but
# past the exponent limit, recorded when larger ones began to print 0; and
# two simple transpositions whose first-ascent climbs (1,035 and 1,128
# steps, at least one Python frame each) pass the default recursion limit
# of 1,000, recorded when the traceback they ended in became exit 3
PINNED_ERRORS = [
    ("expand groth 4321 --max-expansion-degree 2",
     "error: expansion exceeded max_deg=2 (bottom degree 6)\n"),
    ("verify sp-recurrence -", "error: the base involution admits no recurrence step\n"),
    ("verify f-grass 654321", "error: FpfInvolution(654321) is not FPF-Grassmannian\n"),
    ("verify stable-sp-transition 3412 --j=-1 --k=0 --offset 2",
     "error: need v(-1) = 0 with j < k\n"),
    ("expand sp-groth 4321 --basis G", "error: input is not symmetric at the window\n"),
    ("verify lenart-transition 13452 --k 0", "error: need k >= 1, got 0\n"),
    ("verify sp-transition 351624 --j 1 --k 3 --offset 1",
     "error: sp-transition does not take --offset\n"),
    ("verify beta-rescale 321 --k 2", "error: beta-rescale does not take --k\n"),
    ("compute G 16383 --nvars 2 --maxdeg 16383",
     "error: exponent or beta power outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("compute GP 16384 --nvars 1 --maxdeg 16384",
     "error: exponent 16384 outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("expand G 2 --basis GP --nvars 3 --maxdeg 4",
     "error: nonzero in-window remainder: input is not in the basis span at this window "
     "(left: [-1] * x2 x3 + [-1] * x1 x3 + [-1] * x1 x2 + [0,-2] * x1 x2 x3)\n"),
    ("compute sp-groth 14,13,12,11,10,9,8,7,6,5,4,3,2,1",
     "error: product coefficients up to 109418989131512359209 need more than 8 bytes\n"),
    ("compute GP 49152 --nvars 1 --maxdeg 49152",
     "error: exponent 49152 outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("compute GP 9999999999 --nvars 1 --maxdeg 99999999999",
     "error: exponent 9999999999 outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("compute GP 18446744073709551616 --nvars 1 --maxdeg 36893488147419103232",
     "error: exponent 18446744073709551616 outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("compute G 9999999999 --nvars 1 --maxdeg 99999999999",
     "error: exponent 9999999999 outside the packed range "
     "(exponents -16384..16383, beta powers 0..32767)\n"),
    ("compute schubert " + ",".join(map(str, [*range(1, 46), 47, 46])),
     "error: recursion too deep in compute\n"),
    ("compute groth " + ",".join(map(str, [*range(1, 48), 49, 48])),
     "error: recursion too deep in compute\n"),
]


class TestPinnedErrors:
    @pytest.mark.parametrize("command,stderr", PINNED_ERRORS)
    def test_exit_3(self, capsys, command, stderr):
        assert run(capsys, *command.split()) == (3, "", stderr)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the `spgroth ...` lines in README's sh blocks,
    comments stripped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("spgroth ")]


def readme_python() -> str:
    """The source of README's one python block."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return block


class TestReadme:
    def test_examples_exit_0(self, capsys):
        commands = readme_commands()
        assert commands
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)

    def test_library_block_runs_and_states_true_values(self):
        ns: dict = {}
        exec(readme_python(), ns)
        z, w, win = ns["z"], ns["w"], ns["win"]
        assert ns["is_fpf_grassmannian"](z) == (6, (2, 3))
        assert ns["verify_f_grass"](z, win) is True
        assert ns["expand_in_GP_basis"](ns["gp_sp"](z, win), win).is_beta_positive() is True
        check = ns["verify_lenart_transition"](w, 3)
        assert check.equal is True and check.signed_equal is True
