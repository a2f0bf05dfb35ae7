"""End-to-end command-line runs, exercised in process through main()."""

import json

import pytest

from localcluster import cli
from localcluster.cli import main

DUMBBELL_EDGES = """\
n0 n1
n0 n2
n1 n2
n2 n3
n3 n4
n3 n5
n4 n5
"""

RESULT_KEYS = [
    "set",
    "objective_name",
    "objective",
    "conductance",
    "cut",
    "volume",
    "touched_nodes",
    "iterations",
    "runtime_ms",
]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "dumbbell.el"
    path.write_text(DUMBBELL_EDGES)
    return str(path)


@pytest.fixture
def seed3(tmp_path):
    path = tmp_path / "seed3.txt"
    path.write_text("n0\nn1\nn2\n")
    return str(path)


@pytest.fixture
def seed4(tmp_path):
    path = tmp_path / "seed4.txt"
    path.write_text("n0\nn1\nn2\nn3\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestClusterCommands:
    def test_eval(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys, ["eval", "--graph", graph_file, "--seed-set", seed3]
        )
        assert list(payload) == RESULT_KEYS
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["conductance"] == pytest.approx(1.0 / 7.0)
        assert payload["cut"] == 1.0
        assert payload["volume"] == 7.0

    def test_mqi(self, capsys, graph_file, seed4):
        payload = run_json(capsys, ["mqi", "--graph", graph_file, "--seed-set", seed4])
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["objective_name"] == "cut_over_volume"
        assert payload["objective"] == pytest.approx(1.0 / 7.0)

    def test_flow_improve(self, capsys, graph_file, seed4):
        payload = run_json(
            capsys, ["flow-improve", "--graph", graph_file, "--seed-set", seed4]
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["objective_name"] == "seed_relative_conductance"

    def test_local_flow_improve_delta_and_kappa(self, capsys, graph_file, seed4):
        payload = run_json(
            capsys,
            ["local-flow-improve", "--graph", graph_file, "--seed-set", seed4,
             "--delta", "1.0"],
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        payload = run_json(
            capsys,
            ["local-flow-improve", "--graph", graph_file, "--seed-set", seed4,
             "--kappa", "1.0"],
        )
        assert payload["set"] == ["n0", "n1", "n2"]

    def test_delta_kappa_exclusive(self, graph_file, seed4, capsys):
        code = main(
            ["local-flow-improve", "--graph", graph_file, "--seed-set", seed4,
             "--delta", "1.0", "--kappa", "2.0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_out_file_and_determinism(self, tmp_path, graph_file, seed4):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["mqi", "--graph", graph_file, "--seed-set", seed4,
                     "--out", str(out1)]) == 0
        assert main(["mqi", "--graph", graph_file, "--seed-set", seed4,
                     "--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b


class TestSpectralCommands:
    def test_lambda2_json(self, capsys, graph_file):
        payload = run_json(capsys, ["spectral", "--graph", graph_file])
        assert list(payload) == ["lambda2"]
        assert payload["lambda2"] == pytest.approx(0.20466635455687243, abs=1e-8)

    def test_unnormalized(self, capsys, graph_file):
        payload = run_json(capsys, ["spectral", "--graph", graph_file, "--unnormalized"])
        assert payload["lambda2"] > 0.0

    def test_sweep_and_vector_out(self, capsys, tmp_path, graph_file):
        csv = tmp_path / "fiedler.csv"
        payload = run_json(
            capsys,
            ["spectral", "--graph", graph_file, "--sweep", "--vector-out", str(csv)],
        )
        assert sorted(payload["set"]) in (["n0", "n1", "n2"], ["n3", "n4", "n5"])
        assert payload["conductance"] == pytest.approx(1.0 / 7.0)
        lines = csv.read_text().splitlines()
        assert lines[0] == "node,value"
        assert len(lines) == 7

    def test_spectral_mqi(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys, ["spectral-mqi", "--graph", graph_file, "--seed-set", seed3]
        )
        assert list(payload) == ["lambda_r"]
        assert payload["lambda_r"] == pytest.approx(0.12084713039410419, abs=1e-8)

    def test_spectral_mqi_sweep(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys,
            ["spectral-mqi", "--graph", graph_file, "--seed-set", seed3, "--sweep"],
        )
        assert payload["set"] == ["n0", "n1", "n2"]

    def test_sweep_command_roundtrip(self, capsys, tmp_path, graph_file, seed3):
        csv = tmp_path / "vec.csv"
        assert main(["l1pr", "--graph", graph_file, "--seed-node", "n0",
                     "--alpha", "0.15", "--epsilon", "1e-3",
                     "--vector-out", str(csv)]) == 0
        capsys.readouterr()
        payload = run_json(
            capsys, ["sweep", "--graph", graph_file, "--vector-in", str(csv)]
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["conductance"] == pytest.approx(1.0 / 7.0)


    def test_sweep_command_roundtrip_with_commas_in_labels(self, capsys, tmp_path):
        graph = tmp_path / "commas.el"
        graph.write_text(DUMBBELL_EDGES.replace("n0", "n,0").replace("n5", "n5,"))
        csv = tmp_path / "vec.csv"
        assert main(["l1pr", "--graph", str(graph), "--seed-node", "n,0",
                     "--alpha", "0.15", "--epsilon", "1e-3",
                     "--vector-out", str(csv)]) == 0
        capsys.readouterr()
        assert csv.read_text().splitlines()[1].startswith("n,0,")
        payload = run_json(
            capsys, ["sweep", "--graph", str(graph), "--vector-in", str(csv)]
        )
        assert payload["set"] == ["n,0", "n1", "n2"]
        assert payload["conductance"] == pytest.approx(1.0 / 7.0)


class TestMovCommand:
    def test_fixed_rho(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys, ["mov", "--graph", graph_file, "--seed-set", seed3,
                     "--rho", "0.1"]
        )
        assert list(payload) == ["rho", "correlation"]
        assert payload["rho"] == 0.1
        assert 0.0 < payload["correlation"] <= 1.0 + 1e-12

    def test_target_correlation(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys, ["mov", "--graph", graph_file, "--seed-set", seed3,
                     "--corr", "0.96"]
        )
        assert payload["rho"] == pytest.approx(0.068266, abs=1e-3)
        assert payload["correlation"] == pytest.approx(0.96, abs=1e-4)

    def test_sweep(self, capsys, graph_file, seed3):
        payload = run_json(
            capsys, ["mov", "--graph", graph_file, "--seed-set", seed3,
                     "--rho", "0.1", "--sweep"]
        )
        assert sorted(payload["set"]) in (["n0", "n1", "n2"], ["n3", "n4", "n5"])

    def test_rho_corr_exclusive(self, graph_file, seed3, capsys):
        assert main(["mov", "--graph", graph_file, "--seed-set", seed3]) == 1
        assert main(["mov", "--graph", graph_file, "--seed-set", seed3,
                     "--rho", "0.1", "--corr", "0.9"]) == 1
        capsys.readouterr()

    def test_unattainable_correlation_is_infeasible(self, graph_file, seed3, capsys):
        code = main(["mov", "--graph", graph_file, "--seed-set", seed3,
                     "--corr", "0.5"])
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestL1prCommand:
    def test_summary_json(self, capsys, graph_file):
        payload = run_json(
            capsys, ["l1pr", "--graph", graph_file, "--seed-node", "n0",
                     "--alpha", "0.15", "--epsilon", "1e-3"]
        )
        assert payload == {"touched_nodes": 6, "support_size": 6}

    def test_sweep(self, capsys, graph_file):
        payload = run_json(
            capsys, ["l1pr", "--graph", graph_file, "--seed-node", "n0",
                     "--alpha", "0.15", "--epsilon", "1e-3", "--sweep"]
        )
        assert payload["set"] == ["n0", "n1", "n2"]

    def test_degenerate_diffusion_is_infeasible(self, graph_file, capsys):
        code = main(["l1pr", "--graph", graph_file, "--seed-node", "n0",
                     "--alpha", "0.15", "--epsilon", "10.0", "--sweep"])
        assert code == 4
        capsys.readouterr()


class TestOneSolvePerCommand:
    @pytest.mark.parametrize(
        "flags, solvers",
        [
            (["l1pr", "--seed-node", "n0", "--alpha", "0.15", "--epsilon", "1e-3"],
             ("l1pr_cluster", "l1_pagerank")),
            (["spectral-mqi", "--seed-set", "SEED3", "--tol", "1e-8"],
             ("spectral_mqi_cluster", "spectral_mqi")),
        ],
    )
    def test_sweep_with_vector_out_solves_once(
        self, capsys, monkeypatch, tmp_path, graph_file, seed3, flags, solvers
    ):
        plain_csv, swept_csv = tmp_path / "plain.csv", tmp_path / "swept.csv"
        argv = [flags[0], "--graph", graph_file, *(seed3 if f == "SEED3" else f for f in flags[1:])]
        assert main([*argv, "--vector-out", str(plain_csv)]) == 0

        calls = []
        for name in solvers:
            original = getattr(cli, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        assert main([*argv, "--sweep", "--vector-out", str(swept_csv)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        assert swept_csv.read_bytes() == plain_csv.read_bytes()


class TestBruteCommand:
    def test_conductance(self, capsys, graph_file):
        payload = run_json(
            capsys, ["brute", "--graph", graph_file, "--target", "conductance"]
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["objective"] == pytest.approx(1.0 / 7.0)

    def test_expansion(self, capsys, graph_file):
        payload = run_json(
            capsys, ["brute", "--graph", graph_file, "--target", "expansion"]
        )
        assert payload["objective"] == pytest.approx(2.0 / 7.0)

    def test_seeded_targets(self, capsys, graph_file, seed4):
        payload = run_json(
            capsys, ["brute", "--graph", graph_file,
                     "--target", "relative-conductance", "--seed-set", seed4]
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        payload = run_json(
            capsys, ["brute", "--graph", graph_file,
                     "--target", "subset-ratio", "--seed-set", seed4]
        )
        assert payload["set"] == ["n0", "n1", "n2"]
        assert payload["objective_name"] == "cut_over_volume"

    def test_seeded_target_requires_seed(self, graph_file, capsys):
        code = main(["brute", "--graph", graph_file, "--target", "subset-ratio"])
        assert code == 1
        capsys.readouterr()


L1PR = ["l1pr", "--seed-node", "x"]
LFI = ["local-flow-improve", "--seed-node", "x"]
MOV = ["mov", "--seed-node", "x"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [*L1PR, "--alpha", "2.0", "--epsilon", "1e-3"],
            [*L1PR, "--alpha", "nan", "--epsilon", "1e-3"],
            [*L1PR, "--alpha", "0.15", "--epsilon", "0"],
            [*L1PR, "--alpha", "0.15", "--epsilon", "nan"],
            ["spectral", "--tol", "nan"],
            ["spectral-mqi", "--seed-node", "x", "--tol", "nan"],
            [*MOV, "--rho", "0.1", "--tol", "nan"],
            [*LFI, "--delta", "-1"],
            [*LFI, "--delta", "nan"],
            [*LFI, "--kappa", "0.5"],
            [*MOV, "--corr", "1.5"],
            ["mqi", "--seed-node", "x", "--max-iters", "0"],
            [*MOV, "--rho", "nan"],
            ["eval", "--seed-node", "x", "--seed-set", "seed.txt"],
            [*LFI, "--delta", "1.0", "--kappa", "2.0"],
            [*MOV, "--rho", "0.1", "--corr", "0.9"],
            MOV,
        ],
        ids=" ".join,
    )
    def test_parameter_error_beats_missing_file(self, capsys, argv):
        # Every range and exclusivity rule is checked before any file is opened.
        code = main([argv[0], "--graph", "/nonexistent.el", *argv[1:]])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_graph_file(self, capsys):
        code = main(["spectral", "--graph", "/nonexistent.el"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("a\n")
        assert main(["spectral", "--graph", str(bad)]) == 2
        capsys.readouterr()

    def test_unknown_seed_label(self, graph_file, capsys):
        assert main(["eval", "--graph", graph_file, "--seed-node", "zz"]) == 2
        capsys.readouterr()

    def test_convergence_failure(self, graph_file, capsys):
        # An absurd tolerance exhausts the eigensolver's matvec budget.
        code = main(["spectral", "--graph", graph_file, "--tol", "1e-30"])
        assert code == 3
        capsys.readouterr()

    def test_seed_covering_graph_is_infeasible(self, tmp_path, graph_file, capsys):
        seed_all = tmp_path / "all.txt"
        seed_all.write_text("n0\nn1\nn2\nn3\nn4\nn5\n")
        code = main(["mqi", "--graph", graph_file, "--seed-set", str(seed_all)])
        assert code == 4
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["mqi", "--help"]) == 0
        capsys.readouterr()

    def test_missing_required_seed(self, graph_file, capsys):
        assert main(["mqi", "--graph", graph_file]) == 1
        capsys.readouterr()

    def test_duplicate_edge_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "dup.el"
        path.write_text("a b 1\nb a 2\nb c 1\n")
        code = main(["eval", "--graph", str(path), "--seed-node", "a"])
        captured = capsys.readouterr()
        assert code == 0
        assert "duplicate" in captured.err
