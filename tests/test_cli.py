import json

from spgroth.cli import main


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

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "compute", "GP", "-")
        assert code == 0
        assert out.strip() == "[1]"


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
        code, _, err = run(capsys, "verify", "sp-transition", "3412")
        assert code == 3

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

    def test_json_result(self, capsys):
        code, out, _ = run(capsys, "verify", "sp-recurrence", "3412", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"] == "PASS"


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


class TestArgparseSurface:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_identity_exit_2(self, capsys):
        assert main(["verify", "no-such-identity", "21"]) == 2
