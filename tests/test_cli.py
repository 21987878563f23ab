import argparse
import dataclasses
import io
import json
import os
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from slim import cli
from slim import model as M
from slim import training
from slim.autodiff import NumericError
from slim.cli import BOUND_OPTIONS, COHERENCE_OPTIONS, _coerce, build_parser, main
from slim.datasets import load_tu_dataset, save_tu_dataset
from slim.embedding import encode_values
from slim.pooling import upper_triangle
from slim.synthetic import make_bundle

from conftest import FUZZ_EDITS, adjacency_of, assign_values, mutate, pooled_features


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
        assert not (tmp_path / "o").exists()

    def test_zero_epochs_is_config_error_and_leaves_no_directory(self, tu_root, tmp_path):
        code = run(["cv", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "o"] + FAST + ["--epochs", "0"])
        assert code == 2
        assert not (tmp_path / "o").exists()

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
        # the term, then where: the 24 graphs fill the first batch of epoch 0
        (line,) = err.splitlines()
        where = re.fullmatch(r"numeric error: non-finite joint loss: ce=nan embed=0\.1 "
                             r"cluster=0\.0 at epoch 0, batch 0, pool graphs \[(.*)\]", line)
        assert sorted(int(i) for i in where.group(1).split(", ")) == list(range(24))
        assert "Traceback" not in err

    def test_non_utf8_byte_in_a_dataset_file_is_an_io_error(self, tu_root, tmp_path, capsys):
        path = os.path.join(tu_root, "SYN", "SYN_graph_labels.txt")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:1] + b"\xff" + data[1:])
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "o"] + FAST)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("dataset error") and "SYN_graph_labels.txt line 1" in err[0]

    @pytest.mark.parametrize("suffix", ["graph_indicator", "graph_labels", "node_labels"])
    def test_integer_beyond_64_bits_is_an_io_error(self, tu_root, tmp_path, capsys, suffix):
        path = os.path.join(tu_root, "SYN", f"SYN_{suffix}.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[1] = str(2**63)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "o"] + FAST)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("dataset error") and f"SYN_{suffix}.txt line 2" in err[0]

    @pytest.mark.parametrize("line", ["variant = bogus", "hidden = 3D", "activation = relu",
                                      "k = many", "hops = 11", "layer_decay = 2",
                                      "semi_supervised = ture", "latent = 0", "hidden = 0",
                                      "classifier_hidden = 0", "kmeans_restarts = 0",
                                      "learning_rate = nan", "lambda_embed = inf",
                                      "lambda_cluster = -inf", "seed = -1"])
    def test_bad_config_value_is_configuration_error(self, tu_root, tmp_path, capsys, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[train]\n{line}\n", encoding="utf-8")
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--config", cfg_file, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        key = line.split(" = ")[0]
        assert f"{cfg_file}: {key}: " in err[0], err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["train"], ["cv", "--folds", "2"],
                                      ["sweep-k", "--ks", "2,4", "--folds", "2"]])
    def test_a_negative_seed_is_a_configuration_error_naming_it(self, tu_root, tmp_path,
                                                                capsys, argv):
        code = run(argv + ["--dataset", "SYN", "--data-root", tu_root, "--seed", "-1",
                           "--out", tmp_path / "o"] + FAST)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: seed must be non-negative"]
        assert not (tmp_path / "o").exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--ks", "0,2,4"], ["--ks", "4"],
                                      ["--ks", "2,8", "--points", "4"],
                                      ["--ks", "2,8", "--seeds", "0"],
                                      ["--ks", "2,8", "--scale", "-1"],
                                      ["--ks", "2,8", "--scale", "0"],
                                      # "--config" followed by the file's one line
                                      ["--ks", "2,8", "--config", "scale = -1"],
                                      ["--config", "ks = 0,2"],
                                      ["--ks", "2,8", "--config", "seeds = 0"],
                                      ["--ks", "2,8", "--config", "components = 0"],
                                      ["coherence-bound", "--config", "d = 1"],
                                      ["coherence-bound", "--config", "K = 1"],
                                      ["--ks", "2,8", "--seed", "-1"],
                                      ["--ks", "2,8", "--scale", "inf"],
                                      ["--ks", "2,8", "--config", "seed = -1"],
                                      ["--ks", "2,8", "--config", "scale = inf"],
                                      ["coherence-bound", "--cdcp-over-umax2", "nan"],
                                      ["coherence-bound", "--cdcp-over-umax2", "-1"],
                                      ["coherence-bound", "--config",
                                       "cdcp_over_umax2 = inf"]])
    def test_bad_coherence_arguments_are_configuration_errors(self, tmp_path, capsys, argv):
        command, argv = (argv[0], argv[1:]) if argv[0] == "coherence-bound" else (
            "coherence", argv + ["--out", tmp_path / "o"])
        line = argv[argv.index("--config") + 1] if "--config" in argv else None
        if line is not None:
            cfg_file = tmp_path / "coh.cfg"
            cfg_file.write_text(f"[coherence]\n{line}\n", encoding="utf-8")
            argv = [cfg_file if a == line else a for a in argv]
        assert run([command] + argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        if line is not None:
            assert f"{cfg_file}: {line.split(' = ')[0]}: " in err[0], err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["cv", "--jobs", "0"], ["cv", "--jobs", "-4"],
                                      ["sweep-k", "--ks", "2,4", "--jobs", "-1"]])
    def test_jobs_below_one_is_a_usage_error(self, tu_root, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--dataset", "SYN", "--data-root", tu_root,
                        "--out", tmp_path / "o"] + FAST)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "argument --jobs: must be at least 1" in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        # the bound's options on the sweep, and the sweep's on the bound
        ["coherence", "--analytic-only", "--ks", "2,4", "--scale", "-1", "--seeds", "0"],
        ["coherence", "--ks", "2,4", "--seeds", "1", "--points", "32", "--K", "99",
         "--cdcp-over-umax2", "-5"],
        ["coherence-bound", "--ks", "2,4"],
        ["coherence-bound", "--out", "o"]])
    def test_options_of_the_other_coherence_command_are_usage_errors(self, tmp_path,
                                                                     capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "unrecognized arguments" in lines[0]


class TestTrain:
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_semi_supervised_is_refused(self, source, tu_root, tmp_path, capsys):
        # train holds out no graphs, so the option would change nothing
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[train]\nsemi_supervised = yes\n", encoding="utf-8")
        given = ["--semi-supervised"] if source == "flag" else ["--config", cfg_file]
        out = tmp_path / "o"
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", out] + FAST + given)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "semi_supervised" in err[0]
        assert not out.exists()


    def test_a_non_finite_graph_is_one_line_naming_it(self, tu_root, tmp_path, capsys,
                                                      monkeypatch):
        prepare = M.prepare_bundle

        def poisoned(bundle, cfg):
            graphs = prepare(bundle, cfg)
            graphs[3].z[0, 0] = np.nan
            return graphs

        monkeypatch.setattr(M, "prepare_bundle", poisoned)
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "o"] + FAST)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["numeric error: non-finite epoch-0 embeddings in pool graphs [3]"]

class TestRunRecord:
    def read(self, out):
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))

    def test_a_finished_run_is_recorded_ok(self, tu_root, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", out] + FAST) == 0
        manifest = self.read(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == ("ok", 0, None)
        assert manifest["finished_at"] >= manifest["started_at"] != ""
        assert manifest["elapsed_s"] >= 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_failed_run_records_its_stderr_line(self, tu_root, tmp_path, capsys):
        # one step at this rate leaves finite parameters near 1e300 whose
        # assignment overflows, so the final accuracy meets NaN logits
        out = tmp_path / "o"
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root, "--out", out,
                    "--k", "4", "--latent", "3", "--hidden", "4", "--epochs", "1",
                    "--batch-size", "64", "--learning-rate", "1e300"])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numeric error: non-finite classifier logits for graphs [0, ")
        manifest = self.read(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == (
            "failed", 1, line)
        assert manifest["finished_at"] and manifest["elapsed_s"] >= 0

    @pytest.mark.parametrize("exc, error", [(RuntimeError("a bug\nof two lines"),
                                             "RuntimeError: a bug of two lines"),
                                            (KeyboardInterrupt(), "KeyboardInterrupt")])
    def test_an_unmapped_exception_is_recorded_by_its_type(self, tu_root, tmp_path,
                                                           monkeypatch, exc, error):
        def broken(*args):
            raise exc

        monkeypatch.setattr(M, "prepare_bundle", broken)
        out = tmp_path / "o"
        with pytest.raises(type(exc)):
            run(["train", "--dataset", "SYN", "--data-root", tu_root, "--out", out] + FAST)
        manifest = self.read(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == (
            "failed", None, error)
        assert manifest["finished_at"]

    @pytest.mark.parametrize("with_z", [[], ["--with-z"]])
    def test_inspect_lists_every_file_it_writes(self, tu_root, tmp_path, with_z):
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", tmp_path / "m"] + FAST) == 0
        out = tmp_path / "inspect"
        assert run(["inspect", "--dataset", "SYN", "--data-root", tu_root, "--graph", "1",
                    "--model", tmp_path / "m" / "model.npz", "--out", out] + with_z) == 0
        names = ["W", "p", "M", "C", "C_norm"] + (["Z"] if with_z else [])
        manifest = self.read(out)
        assert manifest["artifacts"] == [str(out / f"graph1_{n}.csv") for n in names]
        assert sorted(os.listdir(out)) == sorted(
            ["manifest.json"] + [f"graph1_{n}.csv" for n in names])
        assert (manifest["status"], manifest["seed"]) == ("ok", None)


class TestJobs:
    @pytest.mark.parametrize("argv", [["cv"], ["sweep-k", "--ks", "2,4"]])
    def test_default_is_the_usable_cpu_count(self, argv, monkeypatch):
        # the CPUs this process may run on, as the k-means and co-occurrence
        # pools count them, not every CPU of the machine
        monkeypatch.setattr(cli.L, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert build_parser().parse_args(argv + ["--dataset", "SYN"]).jobs == 3


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
    def test_analytic_only_hand_case(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(["coherence-bound", "--d", "2", "--K", "8", "--cdcp-over-umax2", "1"])
        assert code == 0
        assert capsys.readouterr().out == "theorem lower bound (d=2, K=8): -1.1213\n"
        assert os.listdir(tmp_path) == []   # nothing written, no directory

    def test_analytic_requires_d2(self, capsys):
        assert run(["coherence-bound", "--d", "1"]) == 2
        assert capsys.readouterr().err == ("configuration error: bound requires "
                                           "dimension >= 2\n")

    def test_analytic_requires_k2(self, capsys):
        assert run(["coherence-bound", "--K", "1"]) == 2
        assert capsys.readouterr().err == "configuration error: bound requires K >= 2\n"

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

    @pytest.mark.parametrize("flag, value", [("--step", "0"), ("--step", "-0.5"),
                                             ("--step", "nan"), ("--step", "inf"),
                                             ("--tolerance", "0"), ("--tolerance", "inf")])
    def test_a_step_or_tolerance_out_of_range_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            run(["gradcheck", flag, value])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert f"argument {flag}: must be finite and positive, got {value}" in lines[0]


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
        h = encode_values(data.z, state)
        pf = pooled_features(data.x, assign_values(h, state.u.value),
                             adjacency_of(g))
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
                                     {"variant": "layer_wise"},
                                     {"activation": "relu"},
                                     # top-level meta entries; None removes the entry
                                     {"meta": {"dof": 2.5}}, {"meta": {"config": None}},
                                     {"unknown_option": 1}])
    def test_corrupt_model_config_is_configuration_error(self, tu_root, tmp_path,
                                                         capsys, bad):
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        corrupt = tmp_path / "corrupt.npz"
        with np.load(model_dir / "model.npz") as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["config"].update({key: value for key, value in bad.items() if key != "meta"})
        top = bad.get("meta", {})
        meta.update({key: value for key, value in top.items() if value is not None})
        for key in [key for key, value in top.items() if value is None]:
            del meta[key]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(corrupt, **arrays)
        capsys.readouterr()
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", corrupt, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "corrupt.npz" in err[0]
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_library_saved_model_dumps_its_own_w(self, tu_root, tmp_path):
        # trained and saved through the library at a radius other than the
        # default: inspect rebuilds Z from the model's own config
        bundle = load_tu_dataset(tu_root, "SYN")
        cfg = training.TrainConfig(hops=1, k=4, epochs=1)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, _ = training.train(graphs, cfg, bundle.class_count, bundle.node_label_count)
        M.save_model(str(tmp_path / "model.npz"), state)
        out = tmp_path / "inspect"
        assert run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", tmp_path / "model.npz", "--graph", "3", "--out", out]) == 0
        want = io.StringIO()
        np.savetxt(want, M.batch_forward([graphs[3]], state.frozen()).w.value,
                   delimiter=",", fmt="%.10g")
        assert (out / "graph3_W.csv").read_text() == want.getvalue()

    def test_truncated_model_is_configuration_error(self, tu_root, tmp_path, capsys):
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        data = (model_dir / "model.npz").read_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", cut, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "cut.npz" in err[0]

    def test_empty_model_is_configuration_error(self, tu_root, tmp_path, capsys):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", empty, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "empty.npz" in err[0]

    def test_unsupported_zip_compression_is_configuration_error(self, tu_root, tmp_path,
                                                                 capsys):
        # zipfile raises NotImplementedError for a compression method it
        # lacks; the first central-directory entry is made to name one (99)
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        data = bytearray((model_dir / "model.npz").read_bytes())
        end = data.rfind(b"PK\x05\x06")
        directory = int.from_bytes(data[end + 16:end + 20], "little")
        assert data[directory:directory + 4] == b"PK\x01\x02"
        data[directory + 10:directory + 12] = (99).to_bytes(2, "little")
        bad = tmp_path / "method99.npz"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", bad, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "method99.npz" in err[0]

    @pytest.mark.parametrize("damage", ["directory offset", "array header"])
    def test_damage_that_escaped_load_model_is_configuration_error(self, damage, tu_root,
                                                                    tmp_path, capsys):
        # found by TestFuzzModelFiles: bytes inserted into the end record's
        # directory offset made zipfile seek before the file's start
        # (OSError), and bytes written over a large entry's array header
        # failed numpy's tokenizing of it (tokenize.TokenError)
        model_dir = tmp_path / "m"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--out", model_dir] + FAST) == 0
        data = (model_dir / "model.npz").read_bytes()
        if damage == "directory offset":
            at = data.rfind(b"PK\x05\x06") + 17
            data = data[:at] + b"xv\xb0" + data[at:]
        else:
            at = data.find(b"{'descr'", data.find(b"w_hidden.npy"))
            data = data[:at] + b"\xe2\xbb]" + data[at + 3:]
        bad = tmp_path / "damaged.npz"
        bad.write_bytes(data)
        capsys.readouterr()
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", bad, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error") and "damaged.npz" in err[0]

    def test_a_model_path_that_cannot_be_opened_stays_an_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            M.load_model(str(tmp_path))

    def test_missing_model_is_io_error(self, tu_root, tmp_path, capsys):
        code = run(["inspect", "--dataset", "SYN", "--data-root", tu_root,
                    "--model", tmp_path / "absent.npz", "--out", tmp_path / "o"])
        assert code == 3


# a non-default value for every TrainConfig field, as a config file spells it
EVERY_FIELD = {"hops": ("2", 2), "variant": ("weighted_layer_sum", "weighted_layer_sum"),
               "layer_decay": ("0.25", 0.25), "k": ("3", 3), "latent": ("3", 3),
               "hidden": ("5", 5), "classifier_hidden": ("6", 6),
               "optimizer": ("sgd", "sgd"), "learning_rate": ("0.02", 0.02),
               "epochs": ("1", 1), "batch_size": ("7", 7), "lambda_embed": ("0.02", 0.02),
               "lambda_cluster": ("0.03", 0.03), "seed": ("9", 9),
               "semi_supervised": ("yes", True), "include_means": ("on", True),
               "activation": ("sigmoid", "sigmoid"), "kmeans_restarts": ("2", 2)}
COMMON_DESTS = {"help", "dataset", "data_root", "out", "config", "jobs"}


class TestOptionNames:
    def test_misspelled_key_is_configuration_error(self, tu_root, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[train]\nepochs = 1\nlerning_rate = 5\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--config", cfg_file, "--out", out] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "lerning_rate" in err and "run.cfg" in err
        assert not (out / "manifest.json").exists()

    def test_unknown_coherence_key_is_configuration_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "coh.cfg"
        cfg_file.write_text("[coherence]\nks = 2,8\npoint = 64\n", encoding="utf-8")
        assert run(["coherence", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "point" in err

    def test_file_without_a_section_is_configuration_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text("d = 2\n", encoding="utf-8")
        assert run(["coherence-bound", "--config", cfg_file]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "flat.cfg" in err and "Traceback" not in err

    def test_coherence_file_values_apply(self, tmp_path):
        cfg_file = tmp_path / "coh.cfg"
        cfg_file.write_text("[coherence]\nks = 2,8\nseeds = 1\npoints = 64\nseed = 3\n",
                            encoding="utf-8")
        out = tmp_path / "o"
        assert run(["coherence", "--config", cfg_file, "--points", "32", "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["ks"] == [2, 8] and config["seeds"] == [3]
        assert config["points"] == 32   # flag beats file

    def test_every_field_from_a_config_file_reaches_the_manifest(self, tu_root, tmp_path):
        fields = {f.name: f.default for f in dataclasses.fields(training.TrainConfig)}
        assert set(EVERY_FIELD) == set(fields)
        for name, (_, value) in EVERY_FIELD.items():
            assert value != getattr(fields[name], "value", fields[name]), name
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[train]\n" + "".join(f"{name} = {text}\n" for name, (text, _)
                                                  in EVERY_FIELD.items()), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["cv", "--dataset", "SYN", "--data-root", tu_root, "--folds", "2",
                    "--jobs", "1", "--config", cfg_file, "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {name: value for name, (_, value) in EVERY_FIELD.items()}
        # train refuses semi_supervised; every other field reaches its model
        cfg_file.write_text(cfg_file.read_text().replace("semi_supervised = yes\n", ""),
                            encoding="utf-8")
        out = tmp_path / "t"
        assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                    "--config", cfg_file, "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {**{name: value for name, (_, value) in EVERY_FIELD.items()},
                          "semi_supervised": False}
        assert dataclasses.asdict(M.load_model(str(out / "model.npz")).config) == config

    @pytest.mark.parametrize("command", ["cv", "train", "sweep-k"])
    def test_training_flags_are_config_fields(self, command):
        fields = {f.name for f in dataclasses.fields(training.TrainConfig)}
        sub = subparser(command)
        dests = {a.dest for a in sub._actions} - COMMON_DESTS - {"folds", "ks"}
        assert dests <= fields
        assert fields - dests == {"layer_decay", "activation", "classifier_hidden",
                                  "kmeans_restarts"}


def subparser(command):
    choices = next(a for a in build_parser()._actions if a.dest == "command").choices
    return choices[command]


def help_lines(command, capsys, monkeypatch):
    """{flag: its help text} from ``slim <command> --help``."""
    monkeypatch.setenv("COLUMNS", "400")
    with pytest.raises(SystemExit) as err:
        run([command, "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert "default: None" not in text
    lines = text.splitlines()
    helps = {}
    for i, line in enumerate(lines):
        m = re.match(r"^  (--[\w-]+)(?: \S+)?(?:\s{2,}(.*))?$", line)
        if m:
            helps[m.group(1)] = m.group(2) if m.group(2) else lines[i + 1].strip()
    return helps


class TestHelp:
    @pytest.mark.parametrize("command", ["cv", "train", "sweep-k"])
    def test_training_defaults_shown_once_from_train_config(self, command, capsys,
                                                            monkeypatch):
        helps = help_lines(command, capsys, monkeypatch)
        defaults = training.TrainConfig()
        flags = [a for a in subparser(command)._actions if a.dest in EVERY_FIELD]
        assert flags
        for action in flags:
            text = helps[action.option_strings[0]]
            default = getattr(defaults, action.dest)
            assert text.count("default:") == 1, text
            assert f"(default: {getattr(default, 'value', default)})" in text, text

    def test_coherence_defaults_shown_once_from_its_table(self, capsys, monkeypatch):
        for command, table in (("coherence", COHERENCE_OPTIONS),
                               ("coherence-bound", BOUND_OPTIONS)):
            helps = help_lines(command, capsys, monkeypatch)
            for name, (default, _) in table.items():
                text = helps["--" + name.replace("_", "-")]
                assert text.count("default:") == 1, text
                assert f"(default: {default})" in text, text

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["cv", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--k", "--hops", "--seed", "--folds", "--optimizer"):
            assert flag in text
        assert "default" in text


def recording_namespace(reads: set):
    """An argparse namespace that adds the name of every attribute read
    from it to ``reads``."""

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recorder()


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("command, flag", [("inspect", "--seed"), ("inspect", "--config"),
                                               ("inspect", "--jobs"), ("train", "--jobs"),
                                               ("coherence", "--jobs"), ("coherence", "--d"),
                                               ("coherence", "--K"),
                                               ("coherence", "--cdcp-over-umax2"),
                                               ("coherence", "--analytic-only")])
    def test_removed_flags_are_rejected(self, command, flag, tmp_path, capsys):
        argv = {"inspect": ["inspect", "--dataset", "SYN", "--model", "m.npz"],
                "train": ["train", "--dataset", "SYN"],
                "coherence": ["coherence"]}[command]
        with pytest.raises(SystemExit) as err:
            run(argv + ["--out", tmp_path / "o", flag, "5"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["cv", "train", "sweep-k", "coherence",
                                         "coherence-bound", "gradcheck", "inspect"])
    def test_every_accepted_flag_is_read(self, command, tu_root, tmp_path, monkeypatch):
        model_dir = tmp_path / "m"
        if command == "inspect":
            assert run(["train", "--dataset", "SYN", "--data-root", tu_root,
                        "--out", model_dir] + FAST) == 0
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("[run]\n", encoding="utf-8")
        # a value for every flag of every subcommand; None marks a switch
        values = {"dataset": "SYN", "data_root": tu_root, "out": tmp_path / "o",
                  "config": cfg_file, "jobs": "1", "folds": "2", "ks": "2,4", "seed": "3",
                  "k": "2", "hops": "2", "variant": "center_emphasis", "latent": "2",
                  "hidden": "3", "optimizer": "sgd", "learning_rate": "0.05",
                  "epochs": "1", "batch_size": "8", "lambda_embed": "0.02",
                  "lambda_cluster": "0.02", "semi_supervised": None,
                  "include_means": None, "d": "2", "K": "4",
                  "cdcp_over_umax2": "1", "seeds": "1", "components": "2",
                  "scale": "0.5", "points": "16", "step": "1e-5", "tolerance": "1e-4",
                  "model": model_dir / "model.npz", "graph": "1", "with_z": None}
        dests = {a.dest for a in subparser(command)._actions
                 if a.option_strings and a.dest != "help"}
        assert dests <= set(values), f"no test value for {sorted(dests - set(values))}"
        # the op checks are slow and read no flag themselves
        monkeypatch.setattr(cli, "check_registered_ops", lambda step, tolerance: [])
        monkeypatch.setattr(cli, "_end_to_end_report", lambda step, tolerance:
                            SimpleNamespace(passed=True, as_dict=dict))
        # train refuses semi_supervised: its flag is read, but not given here
        given = dests - {"semi_supervised"} if command == "train" else dests
        argv = [command]
        for action in subparser(command)._actions:
            if action.dest in given:
                argv.append(action.option_strings[0])
                argv += [] if values[action.dest] is None else [str(values[action.dest])]
        read = set()
        args = build_parser().parse_args(argv, namespace=recording_namespace(read))
        read.clear()   # parsing itself reads every dest
        assert args.fn(args) == 0
        unread = dests - read
        assert not unread, f"slim {command} accepts but never reads {sorted(unread)}"


# ---------------------------------------------------------------------------
# fuzzing: a mutated model file loads to a ValueError or to the same model,
# and a mutated config file parses to a ConfigError or to a config that the
# run then records; through cli.main, a failure is one stderr line and exit 2


class Stop(Exception):
    """Ends a fuzzed run once its manifest is written."""


def stop(*args):
    raise Stop


FUZZ_CONFIG = b"""[train]
hops = 2
variant = weighted_layer_sum
layer_decay = 0.25
k = 7
latent = 5
hidden = D/2
classifier_hidden = 6
optimizer = sgd
learning_rate = 0.05
epochs = 2
batch_size = 4
lambda_embed = 0.5
lambda_cluster = 0.2
seed = 9
semi_supervised = no
include_means = yes
activation = sigmoid
kmeans_restarts = 2
"""


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """(root, data root, model file bytes, the model) of a 6-graph stand-in
    set and a model trained on it by ``slim train``."""
    root = tmp_path_factory.mktemp("fuzz")
    save_tu_dataset(make_bundle(n_graphs=6, seed=3, name="SYN"), str(root / "data"))
    assert run(["train", "--dataset", "SYN", "--data-root", root / "data",
                "--out", root / "m"] + FAST) == 0
    path = root / "m" / "model.npz"
    return root, root / "data", path.read_bytes(), M.load_model(str(path))


def config_line():
    """A config line, or nearly: a known or unknown key with a value, a
    section header, or text."""
    key = st.sampled_from([f.name for f in dataclasses.fields(training.TrainConfig)]
                          + ["K", "bogus"])
    value = st.one_of(st.integers(-2, 400).map(str), st.floats().map(repr),
                      st.sampled_from(["yes", "no", "D", "2D", "sgd", "sigmoid",
                                       "layer_wise", "%", "%(k)s", ""]),
                      st.text(max_size=6))
    line = st.one_of(st.tuples(key, st.sampled_from([" = ", ": ", "="]), value).map("".join),
                     st.sampled_from(["[train]", "[other]", "", "# note", "  indented"]),
                     st.text(max_size=8))
    return line.map(lambda text: text.encode("utf-8"))


def deleted_option(edits) -> dict | None:
    """The option that a single deletion of an option line removes, as
    {name: default}; None for any other edit."""
    if len(edits) != 1 or edits[0][0] != "delete":
        return None
    lines = FUZZ_CONFIG.split(b"\n")
    name = lines[edits[0][1] % len(lines)].split(b"=")[0].strip().decode()
    defaults = {f.name: f.default for f in dataclasses.fields(training.TrainConfig)}
    return {name: defaults[name]} if name in defaults else None


def fuzz_base_config(root) -> training.TrainConfig:
    """The config that ``FUZZ_CONFIG`` itself gives."""
    path = root / "clean.cfg"
    path.write_bytes(FUZZ_CONFIG)
    return cli.build_train_config(build_parser().parse_args(
        ["train", "--dataset", "SYN", "--config", str(path)]))


def one_config_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("configuration error: ")


class TestFuzzConfigFiles:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(FUZZ_EDITS), st.integers(0, 2**16), config_line(),
                              st.binary(min_size=1, max_size=1)), min_size=1, max_size=2))
    def test_a_mutated_file_gives_a_config_error_or_its_config(self, fuzz_run, edits):
        root, data_root, _, _ = fuzz_run
        path, out = root / "run.cfg", root / "run"
        text = FUZZ_CONFIG
        for edit in edits:
            text = mutate(text, *edit)
        path.write_bytes(text)
        shutil.rmtree(out, ignore_errors=True)
        argv = ["train", "--dataset", "SYN", "--data-root", str(data_root),
                "--config", str(path), "--out", str(out)]
        try:
            cfg = cli.build_train_config(build_parser().parse_args(argv))
        except cli.ConfigError:
            cfg = None
        removed = deleted_option(edits)
        if removed is not None:
            assert cfg == dataclasses.replace(fuzz_base_config(root), **removed)
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stderr", err)
            mp.setattr(M, "prepare_bundle", stop)
            if cfg is None or cfg.semi_supervised:
                event("config error")
                assert main(argv) == 2 and one_config_error_line(err.getvalue())
                assert not out.exists()
                return
            event("config")
            with pytest.raises(Stop):
                main(argv)
        assert err.getvalue() == ""
        recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
        assert recorded == json.loads(json.dumps(dataclasses.asdict(cfg), default=str))


def damage(data: bytes, edit: str, at: int, blob: bytes) -> bytes:
    """``data`` cut at ``at``, or with ``blob`` written over it or inserted
    there (``at`` modulo the length)."""
    at %= len(data) + 1
    if edit == "truncate":
        return data[:at]
    if edit == "overwrite":
        return data[:at] + blob + data[at + len(blob):]
    return data[:at] + blob + data[at:]


class TestFuzzModelFiles:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["truncate", "overwrite", "insert"]),
                              st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
                    min_size=1, max_size=2))
    def test_a_damaged_file_gives_a_value_error_or_the_same_model(self, fuzz_run, edits):
        root, data_root, data, model = fuzz_run
        path, out = root / "damaged.npz", root / "inspect"
        for edit in edits:
            data = damage(data, *edit)
        path.write_bytes(data)
        try:
            loaded = M.load_model(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            loaded = None
        if loaded is not None:
            assert loaded.config == model.config and loaded.meta == model.meta
            for name in M.PARAMETERS + ("feature_center",):
                got, want = getattr(loaded, name), getattr(model, name)
                got, want = getattr(got, "value", got), getattr(want, "value", want)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stderr", err)
            code = main(["inspect", "--dataset", "SYN", "--data-root", str(data_root),
                         "--model", str(path), "--out", str(out)])
        event("model" if loaded is not None else "value error")
        if loaded is None:
            assert code == 2 and one_config_error_line(err.getvalue())
            assert str(path) in err.getvalue()
        else:
            assert code == 0 and err.getvalue() == ""
