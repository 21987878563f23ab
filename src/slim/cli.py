"""Command-line entry point.

Subcommands: cv, train, sweep-k, coherence, coherence-bound, gradcheck, inspect.
Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error.
Dataset root resolution: --data-root flag, then $SLIM_DATA_DIR, then ./data.
Config files are plain "key = value" text with [section] headers; the keys
of every section count, [DEFAULT]'s too. Explicit command-line flags win over
the file, the file wins over built-in defaults (``build_config``). A
command's keys are the field names of its config class, which checks itself:
``training.TrainConfig`` for cv, train and sweep-k, ``coherence.SweepConfig``
for coherence and ``coherence.BoundConfig`` for coherence-bound; any other key
is a configuration error. --jobs starts at most one worker per fold. The
rules across options are asked of their owners before the run directory is
made: ``training.check_cv_epochs`` and ``coherence.check_points``.

Only this module writes a run directory (``model.npz`` is ``save_model``'s):
``write_json`` writes manifest.json and cv_result.json, ``write_jsonl``
epochs.jsonl and ``write_csv`` sweep.csv and coherence.csv. A sweep's K list
is resolved once, by ``coherence.distinct_ks``, and the manifest records the
run that was made: the config, plus ``folds`` for cv and sweep-k and the
distinct ``ks`` for both sweeps. Every warning is one stderr line,
``warning: <message>``.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields, replace
from enum import Enum

import numpy as np

from . import coherence as coh
from . import landmarks as L
from . import model as M
from . import training
from .autodiff import NumericError, check_registered_ops, grad_check
from .datasets import DatasetError, load_tu_dataset, make_folds
from .pooling import DENSITY_EPS, pool_graph

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
# TrainConfig fields with a flag, and their help; the flag's type and shown
# default come from TrainConfig. layer_decay, activation, classifier_hidden
# and kmeans_restarts are set only in a config file
TRAIN_FLAGS = {
    "seed": "master seed",
    "k": "landmark count",
    "hops": "substructure radius in hops",
    "variant": "substructure layout",
    "latent": "embedding width",
    "hidden": "encoder hidden width: int or D, D/2, 2D",
    "optimizer": "optimizer",
    "learning_rate": "learning rate",
    "epochs": "epoch budget",
    "batch_size": "graphs per mini-batch",
    "lambda_embed": "co-occurrence loss weight",
    "lambda_cluster": "clustering loss weight",
    "semi_supervised": "add unlabeled held-out graphs to the unsupervised terms (cv, sweep-k)",
    "include_means": "append densities and landmark means to the classifier feature",
}
# the flags of coherence (every SweepConfig field) and coherence-bound (every
# BoundConfig field), and their help
SWEEP_FLAGS = {
    "seed": "first seed of the sweep",
    "ks": "comma-separated K values",
    "seeds": "seeds per K",
    "components": "mixture components",
    "scale": "mixture component scale",
    "points": "points per draw",
}
BOUND_FLAGS = {
    "d": "embedding dimension",
    "K": "landmark count",
    "cdcp_over_umax2": "combined constant C_d*C_p/u_max^2",
}
# environment variables that size the BLAS thread pool, recorded in each manifest
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    pass


# what a command may raise, first match wins: (exception, stderr prefix, exit code)
FAILURES = (
    (ConfigError, "configuration error", EXIT_CONFIG),
    (DatasetError, "dataset error", EXIT_IO),
    (OSError, "i/o error", EXIT_IO),
    (training.DivergenceError, "training diverged", EXIT_CHECK_FAILED),
    (NumericError, "numeric error", EXIT_CHECK_FAILED),
)


def _one_line(text) -> str:
    return " ".join(str(text).split())   # configparser's errors span three lines


def _failure(exc: BaseException) -> tuple[str, int | None]:
    """The stderr line and exit code ``main`` gives for ``exc``; for an
    exception outside FAILURES, the exception's type and text and no code."""
    text = _one_line(exc)
    for kind, prefix, code in FAILURES:
        if isinstance(exc, kind):
            return f"{prefix}: {text}", code
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__, None


def _show_warning(message, *_):
    """Shows a warning as one stderr line, ``warning: <message>``."""
    sys.stderr.write(f"warning: {_one_line(message)}\n")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _numeric_environment() -> dict:
    """What the run's arithmetic and thread pools depend on: the Python,
    numpy and BLAS versions ("? ?" unless numpy's Meson build records it),
    the BLAS thread variables (None when unset) and the usable CPU count."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            "usable_cpus": L._usable_cpus()}


def _write_lines(path: str, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_json(path: str, payload: dict):
    _write_lines(path, [json.dumps(payload, indent=2, default=str)])


def write_jsonl(path: str, records):
    _write_lines(path, map(json.dumps, records))


def write_csv(path: str, header: tuple[str, ...], rows):
    """``header``, then one line per row: a None cell is empty, a float has
    six decimals, any other value is its ``str``."""
    _write_lines(path, [",".join(header)] + [
        ",".join("" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
                 for v in row) for row in rows])


@contextmanager
def run_record(command: str, args, config: dict, artifacts: list[str], seed: int | None):
    """Writes ``manifest.json`` to ``args.out`` on entry, with the numeric
    environment, and again however the block ends, with the finish time,
    elapsed seconds, ``status`` ("ok" or "failed"), ``exit_code`` and
    ``error`` (see ``_failure``). ``seed`` is None for a command that draws
    nothing. It is the only code that creates the output directory."""
    record = {"command": command, "config": config, "seed": seed,
              "dataset": getattr(args, "dataset", None), "out_dir": args.out,
              "environment": _numeric_environment(),
              "started_at": _utc_now(), "finished_at": "",
              "artifacts": [os.path.join(args.out, a) for a in artifacts]}

    def write():
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "manifest.json"), record)

    start = time.perf_counter()
    write()
    error, code = None, EXIT_OK
    try:
        yield
    except BaseException as exc:
        error, code = _failure(exc)
        raise
    finally:
        record.update(finished_at=_utc_now(), elapsed_s=time.perf_counter() - start,
                      status="ok" if error is None else "failed", exit_code=code, error=error)
        write()


@contextmanager
def config_errors(prefix: str = ""):
    """Raises a ValueError of the block as a ConfigError, after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def build_config(args, cls):
    """``cls``, a config class that checks itself, from its fields set by an
    explicit flag or, failing that, by the ``--config`` file (every section,
    [DEFAULT] too), coerced to the type of their default; the rest keep their
    default. Keys match case-insensitively; any other key is an error. Each
    file value is checked alone against the other defaults, so its error
    names the file and the key; the merge is then checked across fields."""
    defaults = {f.name: f.default for f in fields(cls)}
    path = getattr(args, "config", None)
    file_values = {}
    if path:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)   # values are literal
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser:   # [DEFAULT] first, then the sections in file order
            file_values.update(parser[section])
    unknown = sorted(set(file_values) - {name.lower() for name in defaults})
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}; "
                          f"known keys: {', '.join(defaults)}")
    given = {}
    for name, default in defaults.items():
        if getattr(args, name, None) is not None:
            given[name] = getattr(args, name)
        elif name.lower() in file_values:
            with config_errors(f"{path}: {name}: "):
                given[name] = _coerce(file_values[name.lower()], default)
                cls(**{name: given[name]})
    with config_errors():
        return cls(**given)


def _coerce(value: str, like):
    try:
        if isinstance(like, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
        if isinstance(like, (int, float)):
            return type(like)(value)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"expected a {type(like).__name__}, got {value!r}") from exc
    return value


def _load_bundle(args):
    return load_tu_dataset(args.data_root or os.environ.get("SLIM_DATA_DIR", "data"),
                           args.dataset)


def _fold_plan(bundle, folds: int, cfg: training.TrainConfig):
    with config_errors():
        training.check_cv_epochs(cfg)
        return make_folds(bundle, folds, cfg.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cv(args) -> int:
    cfg = build_config(args, training.TrainConfig)
    bundle = _load_bundle(args)
    plan = _fold_plan(bundle, args.folds, cfg)
    config = {**asdict(cfg), "folds": plan.fold_count}
    with run_record("cv", args, config, ["cv_result.json", "epochs.jsonl"], cfg.seed):
        result = training.cross_validate(bundle, cfg, plan, jobs=args.jobs)
        summary = asdict(result)
        histories = summary.pop("fold_histories")   # epochs.jsonl's, not cv_result.json's
        write_jsonl(os.path.join(args.out, "epochs.jsonl"),
                    ({"fold": fold, **m} for fold, history in enumerate(histories)
                     for m in history))
        write_json(os.path.join(args.out, "cv_result.json"), summary)
    print(f"{bundle.name}: {result.mean:.4f} ± {result.std:.4f} "
          f"(epoch {result.selected_epoch}, {plan.fold_count} folds)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(args, training.TrainConfig)
    if cfg.semi_supervised:
        raise ConfigError("semi_supervised (--semi-supervised) applies to cv and sweep-k "
                          "only: train holds out no graphs to add unlabeled")
    bundle = _load_bundle(args)
    with run_record("train", args, asdict(cfg), ["model.npz", "epochs.jsonl"], cfg.seed):
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, history = training.train(graphs, cfg, bundle.class_count,
                                        bundle.node_label_count)
        state.meta["dataset"] = bundle.name
        write_jsonl(os.path.join(args.out, "epochs.jsonl"), (asdict(m) for m in history))
        M.save_model(os.path.join(args.out, "model.npz"), state)
        acc = M.accuracy(graphs, state)
    print(f"trained on {len(graphs)} graphs; final training accuracy {acc:.4f}")
    return EXIT_OK


def cmd_sweep_k(args) -> int:
    cfg = build_config(args, training.TrainConfig)
    with config_errors():   # each K as TrainConfig checks its k
        k_values = [replace(cfg, k=k).k for k in coh.parse_int_list(args.ks)]
    bundle = _load_bundle(args)
    plan = _fold_plan(bundle, args.folds, cfg)
    ks = coh.distinct_ks(k_values)
    config = {**asdict(cfg), "ks": ks, "folds": plan.fold_count}
    with run_record("sweep-k", args, config, ["sweep.csv"], cfg.seed):
        rows = training.sweep_k(bundle, cfg, ks, plan, jobs=args.jobs)
        write_csv(os.path.join(args.out, "sweep.csv"), ("K", "mean_acc", "std_acc"),
                  map(astuple, rows))
    for row in rows:
        print(f"K={row.k}: {row.mean_acc:.4f} ± {row.std_acc:.4f}")
    return EXIT_OK


def cmd_coherence(args) -> int:
    opts = build_config(args, coh.SweepConfig)
    with config_errors():
        coh.check_points(opts.ks, opts.points)
    ks = coh.distinct_ks(opts.ks)
    generator = coh.GaussianMixture.default_2d(components=opts.components, scale=opts.scale,
                                               points=opts.points)
    seeds = list(range(opts.seed, opts.seed + opts.seeds))
    config = {"d": generator.d, "ks": ks, "seeds": seeds, "components": opts.components,
              "scale": opts.scale, "points": opts.points}
    with run_record("coherence", args, config, ["coherence.csv"], opts.seed):
        cells = coh.empirical_coherence_sweep(generator, ks, seeds)
        write_csv(os.path.join(args.out, "coherence.csv"),
                  ("K", "seed", "coherence", "distortion", "bound"), map(astuple, cells))
        summary = coh.sweep_summary(cells)
        defined = [row for row in summary if row["mean_coherence"] is not None]
        rho = coh.spearman([row["k"] for row in defined],
                           [row["mean_coherence"] for row in defined])
    print(f"spearman(K, mean coherence) = {rho:.4f}")
    return EXIT_OK


def cmd_coherence_bound(args) -> int:
    opts = build_config(args, coh.BoundConfig)
    print(f"theorem lower bound (d={opts.d}, K={opts.K}): {opts.bound():.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    reports = check_registered_ops(step=args.step, tolerance=args.tolerance)
    reports.append(_end_to_end_report(args.step, args.tolerance))
    payload = {
        "reports": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def _end_to_end_report(step: float, tolerance: float):
    """Gradient-check the per-graph joint loss with respect to every parameter."""
    from .synthetic import make_bundle

    bundle = make_bundle(n_graphs=2, seed=5)
    cfg = training.TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5,
                               epochs=1, seed=5)
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    rng = np.random.default_rng(7)
    state = training.init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                                bundle.class_count, rng)
    state.u.value = rng.standard_normal((cfg.k, cfg.latent)) * 0.5
    data = graphs[0]
    target = L.target_distribution(M.batch_forward([data], state.frozen()).w.value)

    def loss_direct(*params):
        total, _ = M.joint_loss([data], state.with_parameters(params), [target])
        return total

    inputs = [p.value.copy() for p in state.parameters()]
    return grad_check(loss_direct, inputs, step=step, tolerance=tolerance,
                      name="end_to_end_joint_loss", rng=np.random.default_rng(3))


def cmd_inspect(args) -> int:
    if not os.path.isfile(args.model):
        raise DatasetError(f"model file not found: {args.model}")
    with config_errors():
        state = M.load_model(args.model)
    bundle = _load_bundle(args)
    if not 0 <= args.graph < len(bundle.graphs):
        raise ConfigError(f"graph index {args.graph} out of range")
    data = M.prepare_graph(bundle.graphs[args.graph], bundle.node_label_count,
                           state.config.substructure())
    width_in = state.t1.value.shape[0]
    if data.z.shape[1] != width_in:
        raise ConfigError(f"model {args.model}: its {state.config.variant.value} config gives "
                          f"{data.z.shape[1]}-wide substructure rows on {bundle.name}, "
                          f"but the encoder takes {width_in}")
    w = M.batch_forward([data], state.frozen(), [False]).w.value
    p, _, v, c_norm = pool_graph(w, *data.edges)
    dumps = {"W": w, "p": p, "M": data.x.T @ v,
             "C": c_norm * np.outer(p + DENSITY_EPS, p + DENSITY_EPS), "C_norm": c_norm}
    if args.with_z:
        dumps["Z"] = data.z
    files = {f"graph{args.graph}_{name}.csv": array for name, array in dumps.items()}
    with run_record("inspect", args, {"graph": args.graph}, list(files), None):
        for name, array in files.items():
            np.savetxt(os.path.join(args.out, name), np.atleast_2d(array),
                       delimiter=",", fmt="%.10g")
    print(f"wrote per-graph matrices for graph {args.graph} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, like every other
    configuration error, and exits 2."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, except a default of None:
    a flag that a config file may set defaults to None, and its help names
    the option's own default instead."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _add_options(p, cls, helps: dict, choices: dict | None = None):
    """The flags build_config reads for ``cls``: --config, and one flag per
    field named in ``helps`` ({name: help}), typed by the field's default.
    The flag itself defaults to None, so build_config can tell a given flag
    from an omitted one."""
    defaults = {f.name: f.default for f in fields(cls)}
    p.add_argument("--config", default=None, help="key = value config file")
    for name, help_text in helps.items():
        default = defaults[name]
        if isinstance(default, bool):
            kind = dict(action="store_const", const=True)
        elif isinstance(default, Enum):
            kind = dict(choices=[v.value for v in type(default)])
        elif isinstance(default, (int, float)):
            kind = dict(type=type(default))
        else:
            kind = dict(choices=(choices or {}).get(name))
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       help=f"{help_text} (default: {getattr(default, 'value', default)})",
                       **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slim",
        description="structural landmarking and interaction modelling for graphs",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flag groups; each subcommand takes the groups it reads
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True, help="TU dataset name")
    dataset.add_argument("--data-root", default=None,
                         help="dataset root (default: $SLIM_DATA_DIR or ./data)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=positive_int, default=L._usable_cpus(),
                      help="parallel workers for folds/sweep cells")
    train_options = argparse.ArgumentParser(add_help=False)
    _add_options(train_options, training.TrainConfig, TRAIN_FLAGS,
                 choices={"optimizer": M.OPTIMIZERS})

    def command(name, help_text, fn, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents,
                           formatter_class=_HelpFormatter)
        p.set_defaults(fn=fn)
        return p

    p = command("cv", "stratified cross-validation", cmd_cv,
                dataset, out, jobs, train_options)
    p.add_argument("--folds", type=int, default=10, help="fold count")

    command("train", "train on the full dataset and save the model", cmd_train,
            dataset, out, train_options)

    p = command("sweep-k", "accuracy as a function of landmark count", cmd_sweep_k,
                dataset, out, jobs, train_options)
    p.add_argument("--ks", required=True, help="comma-separated K values")
    p.add_argument("--folds", type=int, default=10, help="fold count")

    p = command("coherence", "coherence of k-means landmarks on a Gaussian mixture",
                cmd_coherence, out)
    _add_options(p, coh.SweepConfig, SWEEP_FLAGS)

    p = command("coherence-bound", "analytic lower bound on squared coherence",
                cmd_coherence_bound)
    _add_options(p, coh.BoundConfig, BOUND_FLAGS)

    p = command("gradcheck", "finite-difference check of every op", cmd_gradcheck)
    p.add_argument("--step", type=positive_float, default=1e-5,
                   help="finite-difference step")
    p.add_argument("--tolerance", type=positive_float, default=1e-4,
                   help="max relative error allowed")

    p = command("inspect", "dump per-graph W, p, M, C, C_norm as CSV", cmd_inspect,
                dataset, out)
    p.add_argument("--model", required=True, help="model .npz written by train")
    p.add_argument("--graph", type=int, default=0, help="graph index")
    p.add_argument("--with-z", dest="with_z", action="store_true",
                   help="also dump the substructure matrix Z")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is None and hasattr(args, "out"):
        dataset = getattr(args, "dataset", None) or "run"
        args.out = os.path.join("slim_runs", f"{args.command}_{dataset}")
    try:
        with warnings.catch_warnings():
            # NumericError and DivergenceError name every non-finite value,
            # and the one stderr line should be all a failure prints
            warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"slim\.")
            # restored when the block ends; fold workers fork with it
            warnings.showwarning = _show_warning
            return args.fn(args)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        error, code = _failure(exc)
        print(error, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
