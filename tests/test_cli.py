import json
import os

import numpy as np
import pytest

from slim import model as M
from slim import training
from slim.autodiff import NumericError
from slim.cli import _coerce, main
from slim.datasets import save_tu_dataset
from slim.embedding import encode_values
from slim.pooling import upper_triangle
from slim.synthetic import make_bundle

from conftest import adjacency_of, assign_values, pooled_features


@pytest.fixture
def tu_root(tmp_path):
    bundle = make_bundle(n_graphs=24, seed=8, name="SYN")
    root = tmp_path / "data"
    save_tu_dataset(bundle, str(root))
    return str(root)


def run(argv, **kw):
    return main([str(a) for a in argv], **kw)


FAST = ["--k", "4", "--latent", "3", "--hidden", "4", "--epochs", "2"]


class TestCv:
    def test_happy_path_artifacts(self, tu_root, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                    "--folds", "3", "--seed", "7", "--out", out] + FAST)
        assert code == 0
        result = json.loads((out / "cv_result.json").read_text())
        assert {"mean", "std", "per_fold", "selected_epoch", "epoch_curve"} <= set(result)
        assert len(result["per_fold"]) == 3
        lines = (out / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "cv"
        assert manifest["seed"] == 7
        assert manifest["started_at"] and manifest["finished_at"]
        assert any(p.endswith("cv_result.json") for p in manifest["artifacts"])
        summary = capsys.readouterr().out
        assert "SYN" in summary and "±" in summary

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = run(["cv", "--dataset", "NOPE", "--data-root", tmp_path / "nothing",
                    "--out", tmp_path / "o"] + FAST)
        assert code == 3
        assert "NOPE" in capsys.readouterr().err

    def test_single_fold_is_config_error(self, tu_root, tmp_path):
        code = run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                    "--folds", "1", "--out", tmp_path / "o"] + FAST)
        assert code == 2

    def test_bad_optimizer_rejected_by_parser(self, tu_root, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                 "--optimizer", "adam", "--out", tmp_path / "o"])
        assert err.value.code == 2

    def test_determinism_across_runs(self, tu_root, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                        "--folds", "3", "--seed", "5", "--out", out] + FAST) == 0
        assert (a / "cv_result.json").read_text() == (b / "cv_result.json").read_text()

    def test_env_var_data_root(self, tu_root, tmp_path, monkeypatch):
        monkeypatch.setenv("SLIM_DATA_DIR", tu_root)
        code = run(["cv", "--dataset", "SYN", "--folds", "3",
                    "--out", tmp_path / "o"] + FAST)
        assert code == 0

    def test_config_file_precedence(self, tu_root, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[train]\nepochs = 1\nk = 3\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                    "--folds", "3", "--config", cfg_file, "--k", "4",
                    "--latent", "3", "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1   # from file
        assert manifest["config"]["k"] == 4        # flag beats file


class TestErrorMapping:
    def test_value_error_inside_training_is_not_a_configuration_error(
            self, tu_root, tmp_path, monkeypatch, capsys):
        def broken_train(*args, **kwargs):
            raise ValueError("shape mismatch inside training")

        monkeypatch.setattr(training, "train", broken_train)
        with pytest.raises(ValueError, match="shape mismatch"):
            run(["train", "--dataset", "SYN", "--data-root", tu_root,
                 "--out", tmp_path / "o"] + FAST)
        assert "configuration error" not in capsys.readouterr().err

    def test_numeric_error_inside_training_is_a_failed_check(
            self, tu_root, tmp_path, monkeypatch, capsys):
        def non_finite_loss(*args, **kwargs):
            raise NumericError("non-finite joint loss: ce=nan embed=0.1 cluster=0.0")

        monkeypatch.setattr(M, "joint_loss", non_finite_loss)
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "o"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["numeric error: non-finite joint loss: ce=nan "
                                    "embed=0.1 cluster=0.0"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["variant = bogus", "hidden = 3D", "activation = relu",
                                      "k = many", "hops = 11", "layer_decay = 2",
                                      "semi_supervised = ture"])
    def test_bad_config_value_is_configuration_error(self, tu_root, tmp_path, capsys, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[train]\n{line}\n", encoding="utf-8")
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--config", cfg_file, "--out", tmp_path / "o"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling, value", [("1", True), ("true", True), (" Yes ", True),
                                                 ("ON", True), ("0", False), ("false", False),
                                                 ("no", False), ("Off", False)])
    def test_known_boolean_spellings(self, spelling, value):
        assert _coerce(spelling, False) is value

    def test_layer_wise_without_hops_is_configuration_error(self, tu_root, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--variant", "layer_wise", "--hops", "0", "--out", out] + FAST)
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [["--analytic-only", "--K", "1"], ["--ks", "4"],
                                      ["--ks", "2,8", "--points", "4"],
                                      ["--ks", "2,8", "--seeds", "0"]])
    def test_bad_coherence_arguments_are_configuration_errors(self, tmp_path, capsys, argv):
        assert run(["coherence", "--out", tmp_path / "o"] + argv) == 2
        assert "configuration error" in capsys.readouterr().err


class TestSweepK:
    def test_csv_rows_sorted(self, tu_root, tmp_path):
        out = tmp_path / "out"
        code = run(["sweep-k", "--dataset", "SYN", "--data-root", tu_root,
                    "--folds", "3", "--ks", "4,2", "--out", out] + FAST)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "K,mean_acc,std_acc"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4]

    def test_empty_k_list(self, tu_root, tmp_path):
        code = run(["sweep-k", "--dataset", "SYN", "--data-root", tu_root,
                    "--ks", ",", "--out", tmp_path / "o"] + FAST)
        assert code == 2


class TestCoherence:
    def test_analytic_only_hand_case(self, tmp_path, capsys):
        code = run(["coherence", "--analytic-only", "--d", "2", "--K", "8",
                    "--cdcp-over-umax2", "1", "--out", tmp_path / "o"])
        assert code == 0
        assert "-1.1213" in capsys.readouterr().out

    def test_analytic_requires_d2(self, tmp_path):
        code = run(["coherence", "--analytic-only", "--d", "1",
                    "--out", tmp_path / "o"])
        assert code == 2

    def test_sweep_csv_and_spearman(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["coherence", "--ks", "2,8,32", "--seeds", "2",
                    "--points", "128", "--out", out])
        assert code == 0
        lines = (out / "coherence.csv").read_text().splitlines()
        assert lines[0] == "K,seed,coherence,distortion,bound"
        assert len(lines) == 1 + 3 * 2
        assert "spearman" in capsys.readouterr().out

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["coherence", "--ks", "2,8", "--seeds", "1",
                        "--points", "64", "--out", out]) == 0
        assert (a / "coherence.csv").read_text() == (b / "coherence.csv").read_text()


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        names = {r["op"] for r in payload["reports"]}
        assert "end_to_end_joint_loss" in names

    def test_unreachable_tolerance_fails(self, capsys):
        assert run(["gradcheck", "--tolerance", "1e-12"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is False


class TestInspect:
    def test_dump_shapes_and_invariants(self, tu_root, tmp_path):
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        out = tmp_path / "inspect"
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", model_dir / "model.npz", "--graph", "0",
                    "--out", out])
        assert code == 0
        from slim.datasets import load_tu_dataset

        bundle = load_tu_dataset(tu_root, "SYN")
        g = bundle.graphs[0]
        n, c, k = g.node_count, bundle.node_label_count, 4
        w = np.loadtxt(out / "graph0_W.csv", delimiter=",", ndmin=2)
        p = np.loadtxt(out / "graph0_p.csv", delimiter=",", ndmin=2).ravel()
        m = np.loadtxt(out / "graph0_M.csv", delimiter=",", ndmin=2)
        cmat = np.loadtxt(out / "graph0_C.csv", delimiter=",", ndmin=2)
        cn = np.loadtxt(out / "graph0_C_norm.csv", delimiter=",", ndmin=2)
        assert w.shape == (n, k) and p.shape == (k,) and m.shape == (c, k)
        assert cmat.shape == (k, k) and cn.shape == (k, k)
        assert p.sum() == pytest.approx(n, abs=1e-6)
        assert cmat.sum() == pytest.approx(2.0 * g.edge_count, abs=1e-6)
        assert not (out / "graph0_Z.csv").exists()

        # the values, written with %.10g, against the dense reference formulas
        state = M.load_model(str(model_dir / "model.npz"))
        data = M.prepare_graph(g, c, training.TrainConfig().substructure())
        h = encode_values(data.z, state.encoder)
        pf = pooled_features(data.x, assign_values(h, state.landmarks.u.value,
                                                   state.landmarks.dof), adjacency_of(g))
        for dumped, want in ((p, pf.p), (m, pf.m), (cmat, pf.c), (cn, pf.c_norm)):
            np.testing.assert_allclose(dumped, want, rtol=1e-9, atol=0)
        # and the classifier reads the same C_norm
        mask, scale = upper_triangle(k)
        row = next(M.forward_chunks([data], state)).features.value[0]
        np.testing.assert_allclose(cn[mask] * scale, row, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("bad", [{"hops": 11}, {"variant": "bogus"},
                                     {"layer_decay": 0}, {"hops": None},
                                     {"variant": "layer_wise", "hops": 0},
                                     # trained as node_distribution: Z is 3x too wide
                                     {"variant": "layer_wise"}])
    def test_corrupt_model_config_is_configuration_error(self, tu_root, tmp_path,
                                                         capsys, bad):
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        state = M.load_model(str(model_dir / "model.npz"))
        state.meta["config"].update(bad)
        corrupt = tmp_path / "corrupt.npz"
        M.save_model(str(corrupt), state)
        capsys.readouterr()
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", corrupt, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "corrupt.npz" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_missing_model_is_io_error(self, tu_root, tmp_path, capsys):
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", tmp_path / "absent.npz", "--out", tmp_path / "o"])
        assert code == 3


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["cv", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--k", "--hops", "--seed", "--folds", "--optimizer"):
            assert flag in text
        assert "default" in text
