"""Command-line entry point.

Subcommands: cv, train, sweep-k, coherence, coherence-bound, gradcheck, inspect.
Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error.
Dataset root resolution: --data-root flag, then $SLIM_DATA_DIR, then ./data.
Config files are plain "key = value" text with [section] headers; explicit
command-line flags win over the file, the file wins over built-in defaults.
The training keys are the field names of ``training.TrainConfig``, the
coherence keys those of ``COHERENCE_OPTIONS`` and ``BOUND_OPTIONS``; any
other key is a configuration error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
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
# coherence sweep and bound options: name -> (default, help); each is a flag and a key
COHERENCE_OPTIONS = {
    "seed": (0, "first seed of the sweep"),
    "ks": ("2,4,8,16,32,64,128,256", "comma-separated K values"),
    "seeds": (10, "seeds per K"),
    "components": (4, "mixture components"),
    "scale": (0.5, "mixture component scale"),
    "points": (1024, "points per draw"),
}
BOUND_OPTIONS = {
    "d": (2, "embedding dimension"),
    "K": (8, "landmark count"),
    "cdcp_over_umax2": (1.0, "combined constant C_d*C_p/u_max^2"),
}


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


def _failure(exc: BaseException) -> tuple[str, int | None]:
    """The stderr line and exit code ``main`` gives for ``exc``; for an
    exception outside FAILURES, the exception's type and text and no code."""
    text = " ".join(str(exc).split())   # one line (configparser's errors span three)
    for kind, prefix, code in FAILURES:
        if isinstance(exc, kind):
            return f"{prefix}: {text}", code
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__, None


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextmanager
def run_record(command: str, args, config: dict, artifacts: list[str], seed: int | None):
    """Writes ``manifest.json`` to ``args.out`` on entry, and again however
    the block ends, with the finish time, elapsed seconds, ``status``
    ("ok" or "failed"), ``exit_code`` and ``error`` (see ``_failure``).
    ``seed`` is None for a command that draws nothing. It is the only code
    that creates the output directory."""
    record = {"command": command, "config": config, "seed": seed,
              "dataset": getattr(args, "dataset", None), "out_dir": args.out,
              "started_at": _utc_now(), "finished_at": "",
              "artifacts": [os.path.join(args.out, a) for a in artifacts]}

    def write():
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, default=str)
            fh.write("\n")

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


def data_root(args) -> str:
    if getattr(args, "data_root", None):
        return args.data_root
    return os.environ.get("SLIM_DATA_DIR", "data")


def resolve_options(args, defaults: dict, check=None) -> dict:
    """The options of ``defaults`` set by an explicit flag or, failing that,
    by the ``--config`` file (all sections), coerced to the type of their
    default. Keys match case-insensitively; any other key is an error. A file
    value's ValueError, from coercion or ``check(name, value)``, names both."""
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
        for section in parser.sections():
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
            try:
                given[name] = _coerce(file_values[name.lower()], default)
                if check is not None:
                    check(name, given[name])
            except ValueError as exc:
                raise ConfigError(f"{path}: {name}: {exc}") from exc
    return given


def _coerce(value: str, like):
    if isinstance(like, bool):
        spelling = value.strip().lower()
        if spelling not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ConfigError(f"expected a bool, got {value!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[spelling]
    try:
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float):
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"expected a {type(like).__name__}, got {value!r}") from exc
    return value


def table_options(args, table: dict) -> argparse.Namespace:
    """The options of ``table`` ({name: (default, help)}): flags over
    config-file values over the table's defaults, each range-checked alone
    by ``_check_coherence_option``; a file value's error names the file and
    the key."""
    defaults = {name: default for name, (default, _) in table.items()}
    opts = {**defaults, **resolve_options(args, defaults, check=_check_coherence_option)}
    for name, value in opts.items():
        _check_coherence_option(name, value)
    return argparse.Namespace(**opts)


def _check_coherence_option(name: str, value):
    """Raises ConfigError when one coherence or bound option is out of range
    on its own; checks across options follow the merge."""
    if name == "ks":
        k_values = _parse_int_list(value)
        if min(k_values) < 1 or len({k for k in k_values if k >= 2}) < 2:
            raise ConfigError("the sweep needs K >= 1 and at least two distinct K >= 2")
    elif name in ("seeds", "components") and not value > 0:
        raise ConfigError(f"{name} must be positive")
    elif name == "scale" and not (math.isfinite(value) and value > 0):
        raise ConfigError("scale must be finite and positive")
    elif name == "seed" and value < 0:
        raise ConfigError("seed must be non-negative")
    elif name == "cdcp_over_umax2" and not (math.isfinite(value) and value >= 0):
        raise ConfigError("cdcp_over_umax2 must be finite and non-negative")
    elif name == "d" and value < 2:
        raise ConfigError("bound requires dimension >= 2")
    elif name == "K" and value < 2:
        raise ConfigError("bound requires K >= 2")


def _train_defaults() -> dict:
    return {f.name: f.default for f in fields(training.TrainConfig)}


def build_train_config(args) -> training.TrainConfig:
    """Merge CLI flags over config-file values over TrainConfig defaults. Each
    file value is checked alone first, the merge then across fields."""
    try:
        return training.TrainConfig(**resolve_options(
            args, _train_defaults(),
            check=lambda name, value: training.TrainConfig(**{name: value})))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_bundle(args):
    return load_tu_dataset(data_root(args), args.dataset)


def _fold_plan(bundle, folds: int, cfg: training.TrainConfig):
    if cfg.epochs < 1:
        raise ConfigError("cross-validation needs at least one epoch")
    try:
        return make_folds(bundle, folds, cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_cv(args) -> int:
    cfg = build_train_config(args)
    bundle = _load_bundle(args)
    plan = _fold_plan(bundle, args.folds, cfg)
    with run_record("cv", args, asdict(cfg), ["cv_result.json", "epochs.jsonl"], cfg.seed):
        result = training.cross_validate(
            bundle, cfg, plan, jobs=args.jobs,
            metrics_path=os.path.join(args.out, "epochs.jsonl"),
        )
        with open(os.path.join(args.out, "cv_result.json"), "w", encoding="utf-8") as fh:
            json.dump(asdict(result), fh, indent=2)
            fh.write("\n")
    print(f"{bundle.name}: {result.mean:.4f} ± {result.std:.4f} "
          f"(epoch {result.selected_epoch}, {plan.fold_count} folds)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_train_config(args)
    if cfg.semi_supervised:
        raise ConfigError("semi_supervised (--semi-supervised) applies to cv and sweep-k "
                          "only: train holds out no graphs to add unlabeled")
    bundle = _load_bundle(args)
    with run_record("train", args, asdict(cfg), ["model.npz", "epochs.jsonl"], cfg.seed):
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, history = training.train(graphs, cfg, bundle.class_count,
                                        bundle.node_label_count)
        state.meta["dataset"] = bundle.name
        with open(os.path.join(args.out, "epochs.jsonl"), "w", encoding="utf-8") as fh:
            for m in history:
                fh.write(json.dumps(asdict(m)) + "\n")
        M.save_model(os.path.join(args.out, "model.npz"), state)
        acc = M.accuracy(graphs, state)
    print(f"trained on {len(graphs)} graphs; final training accuracy {acc:.4f}")
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError("expected at least one integer")
    return values


def cmd_sweep_k(args) -> int:
    cfg = build_train_config(args)
    k_values = _parse_int_list(args.ks)
    if any(k < 1 for k in k_values):
        raise ConfigError("K values must be positive")
    bundle = _load_bundle(args)
    plan = _fold_plan(bundle, args.folds, cfg)
    with run_record("sweep-k", args, asdict(cfg), ["sweep.csv"], cfg.seed):
        rows = training.sweep_k(bundle, cfg, k_values, plan, jobs=args.jobs)
        training.write_sweep_csv(rows, os.path.join(args.out, "sweep.csv"))
    for row in rows:
        print(f"K={row.k}: {row.mean_acc:.4f} ± {row.std_acc:.4f}")
    return EXIT_OK


def cmd_coherence(args) -> int:
    opts = table_options(args, COHERENCE_OPTIONS)
    k_values = _parse_int_list(opts.ks)
    if max(k_values) > opts.points:
        raise ConfigError("--points must be at least the largest K")
    generator = coh.GaussianMixture.default_2d(components=opts.components, scale=opts.scale,
                                               points=opts.points)
    seeds = list(range(opts.seed, opts.seed + opts.seeds))
    config = {"d": generator.d, "ks": k_values, "seeds": seeds, "components": opts.components,
              "scale": opts.scale, "points": opts.points}
    with run_record("coherence", args, config, ["coherence.csv"], opts.seed):
        cells = coh.empirical_coherence_sweep(generator, k_values, seeds)
        with open(os.path.join(args.out, "coherence.csv"), "w", encoding="utf-8") as fh:
            fh.write("K,seed,coherence,distortion,bound\n")
            for cell in cells:
                fh.write(cell.csv_row() + "\n")
        summary = coh.sweep_summary(cells)
        defined = [row for row in summary if row["mean_coherence"] is not None]
        rho = coh.spearman([row["k"] for row in defined],
                           [row["mean_coherence"] for row in defined])
    print(f"spearman(K, mean coherence) = {rho:.4f}")
    return EXIT_OK


def cmd_coherence_bound(args) -> int:
    opts = table_options(args, BOUND_OPTIONS)
    bound = coh.bound_from_ratio(opts.d, opts.K, opts.cdcp_over_umax2)
    print(f"theorem lower bound (d={opts.d}, K={opts.K}): {bound:.4f}")
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
        total, _ = M.joint_loss([data], state.with_parameters(params), 0.01, 0.01, [target])
        return total

    inputs = [p.value.copy() for p in state.parameters()]
    return grad_check(loss_direct, inputs, step=step, tolerance=tolerance,
                      name="end_to_end_joint_loss", rng=np.random.default_rng(3))


def cmd_inspect(args) -> int:
    if not os.path.isfile(args.model):
        raise DatasetError(f"model file not found: {args.model}")
    try:
        state = M.load_model(args.model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


def _add_options(p, options: dict, choices: dict | None = None):
    """The flags resolve_options reads: --config, and one flag per option of
    ``options`` ({name: (default, help)}), typed by its default. The flag
    itself defaults to None, so resolve_options can tell a given flag from
    an omitted one."""
    p.add_argument("--config", default=None, help="key = value config file")
    for name, (default, help_text) in options.items():
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


def _add_train_flags(p):
    defaults = _train_defaults()
    _add_options(p, {name: (defaults[name], text) for name, text in TRAIN_FLAGS.items()},
                 choices={"optimizer": M.OPTIMIZERS})


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
    _add_train_flags(train_options)

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
    _add_options(p, COHERENCE_OPTIONS)

    p = command("coherence-bound", "analytic lower bound on squared coherence",
                cmd_coherence_bound)
    _add_options(p, BOUND_OPTIONS)

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
            return args.fn(args)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        error, code = _failure(exc)
        print(error, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
