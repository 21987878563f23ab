"""Command-line entry point.

Subcommands: cv, train, sweep-k, coherence, gradcheck, inspect.
Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error.
Dataset root resolution: --data-root flag, then $SLIM_DATA_DIR, then ./data.
Config files are plain "key = value" text with [section] headers; explicit
command-line flags win over the file, the file wins over built-in defaults.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import coherence as coh
from . import model as M
from . import training
from .autodiff import NumericError, check_registered_ops, grad_check
from .datasets import DatasetError, load_tu_dataset, make_folds
from .pooling import DENSITY_EPS, pool_graph
from .substructure import Variant

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
# config-file spellings of a boolean; any other value is a configuration error
BOOL_SPELLINGS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                  **dict.fromkeys(("0", "false", "no", "off"), False)}


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    dataset: str | None
    out_dir: str
    started_at: str = ""
    finished_at: str = ""
    artifacts: list[str] = field(default_factory=list)

    def path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")

    def write(self):
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.path(), "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2, default=str)
            fh.write("\n")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _start_manifest(command: str, args, config: dict, artifacts: list[str],
                    seed: int = 0) -> RunManifest:
    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        dataset=getattr(args, "dataset", None),
        out_dir=args.out,
        started_at=_utc_now(),
        artifacts=[os.path.join(args.out, a) for a in artifacts],
    )
    manifest.write()
    return manifest


def _finish_manifest(manifest: RunManifest):
    manifest.finished_at = _utc_now()
    manifest.write()


def data_root(args) -> str:
    if getattr(args, "data_root", None):
        return args.data_root
    return os.environ.get("SLIM_DATA_DIR", "data")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser[section]))
    return merged


def _coerce(value: str, like):
    if isinstance(like, bool):
        spelling = value.strip().lower()
        if spelling not in BOOL_SPELLINGS:
            raise ConfigError(f"expected a bool, got {value!r}")
        return BOOL_SPELLINGS[spelling]
    try:
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float):
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"expected a {type(like).__name__}, got {value!r}") from exc
    return value


def build_train_config(args) -> training.TrainConfig:
    """Merge CLI flags over config-file values over TrainConfig defaults."""
    defaults = training.TrainConfig()
    file_values = _load_config_file(getattr(args, "config", None))
    kwargs = {}
    for name in ("hops", "variant", "k", "latent", "hidden", "optimizer",
                 "learning_rate", "epochs", "batch_size", "lambda_embed",
                 "lambda_cluster", "seed", "semi_supervised", "include_means",
                 "layer_decay", "activation", "classifier_hidden",
                 "kmeans_restarts"):
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            kwargs[name] = cli_value
        elif name in file_values:
            kwargs[name] = _coerce(file_values[name], getattr(defaults, name))
    if "hidden" in kwargs and isinstance(kwargs["hidden"], str) and kwargs["hidden"].isdigit():
        kwargs["hidden"] = int(kwargs["hidden"])
    try:
        if "variant" in kwargs:
            kwargs["variant"] = Variant(kwargs["variant"])
        return training.TrainConfig(**kwargs)
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


def _config_dict(cfg: training.TrainConfig) -> dict:
    d = dict(cfg.__dict__)
    d["variant"] = cfg.variant.value
    return d


# ---------------------------------------------------------------------------
# subcommands


def cmd_cv(args) -> int:
    cfg = build_train_config(args)
    bundle = _load_bundle(args)
    plan = _fold_plan(bundle, args.folds, cfg)
    manifest = _start_manifest("cv", args, _config_dict(cfg),
                               ["cv_result.json", "epochs.jsonl"], seed=cfg.seed)
    result = training.cross_validate(
        bundle, cfg, plan, jobs=args.jobs,
        metrics_path=os.path.join(args.out, "epochs.jsonl"),
    )
    with open(os.path.join(args.out, "cv_result.json"), "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2)
        fh.write("\n")
    _finish_manifest(manifest)
    print(f"{bundle.name}: {result.mean:.4f} ± {result.std:.4f} "
          f"(epoch {result.selected_epoch}, {plan.fold_count} folds)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_train_config(args)
    bundle = _load_bundle(args)
    manifest = _start_manifest("train", args, _config_dict(cfg),
                               ["model.npz", "epochs.jsonl"], seed=cfg.seed)
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    state, history = training.train(graphs, cfg, bundle.class_count,
                                    bundle.node_label_count)
    state.meta.update(dataset=bundle.name, config=_config_dict(cfg))
    with open(os.path.join(args.out, "epochs.jsonl"), "w", encoding="utf-8") as fh:
        for m in history:
            fh.write(json.dumps(m.as_dict()) + "\n")
    M.save_model(os.path.join(args.out, "model.npz"), state)
    _finish_manifest(manifest)
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
    manifest = _start_manifest("sweep-k", args, _config_dict(cfg), ["sweep.csv"],
                               seed=cfg.seed)
    rows = training.sweep_k(bundle, cfg, k_values, plan, jobs=args.jobs)
    training.write_sweep_csv(rows, os.path.join(args.out, "sweep.csv"))
    _finish_manifest(manifest)
    for row in rows:
        print(f"K={row.k}: {row.mean_acc:.4f} ± {row.std_acc:.4f}")
    return EXIT_OK


def cmd_coherence(args) -> int:
    file_values = _load_config_file(getattr(args, "config", None))
    for name, default in (("d", 2), ("K", 8), ("components", 4), ("scale", 0.5),
                          ("points", 1024), ("seeds", 10),
                          ("ks", "2,4,8,16,32,64,128,256"),
                          ("cdcp_over_umax2", 1.0)):
        if getattr(args, name) is None:
            raw = file_values.get(name.lower())
            setattr(args, name, default if raw is None else _coerce(raw, default))
    if args.analytic_only:
        if args.d < 2:
            raise ConfigError("analytic bound requires dimension >= 2")
        if args.K < 2:
            raise ConfigError("analytic bound requires K >= 2")
        bound = coh.bound_from_ratio(args.d, args.K, args.cdcp_over_umax2)
        print(f"theorem lower bound (d={args.d}, K={args.K}): {bound:.4f}")
        return EXIT_OK
    if args.d < 2:
        raise ConfigError("coherence sweep with bound requires dimension >= 2")
    if args.d != 2:
        raise ConfigError("the built-in generator is 2-dimensional")
    generator = coh.GaussianMixture.default_2d(
        components=args.components, scale=args.scale, points=args.points
    )
    k_values = _parse_int_list(args.ks)
    if min(k_values) < 1 or len({k for k in k_values if k >= 2}) < 2:
        raise ConfigError("the sweep needs K >= 1 and at least two distinct K >= 2")
    if max(k_values) > args.points:
        raise ConfigError("--points must be at least the largest K")
    if args.seeds < 1 or args.components < 1:
        raise ConfigError("--seeds and --components must be positive")
    seed0 = 0 if args.seed is None else args.seed
    seeds = list(range(seed0, seed0 + args.seeds))
    manifest = _start_manifest("coherence", args,
                               {"d": args.d, "ks": k_values, "seeds": seeds,
                                "components": args.components, "scale": args.scale,
                                "points": args.points},
                               ["coherence.csv"], seed=seed0)
    cells = coh.empirical_coherence_sweep(generator, k_values, seeds)
    with open(os.path.join(args.out, "coherence.csv"), "w", encoding="utf-8") as fh:
        fh.write("K,seed,coherence,distortion,bound\n")
        for cell in cells:
            fh.write(cell.csv_row() + "\n")
    summary = coh.sweep_summary(cells)
    defined = [row for row in summary if row["mean_coherence"] is not None]
    rho = coh.spearman([row["k"] for row in defined],
                       [row["mean_coherence"] for row in defined])
    _finish_manifest(manifest)
    print(f"spearman(K, mean coherence) = {rho:.4f}")
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
    from . import embedding as E
    from . import landmarks as L
    from .synthetic import make_bundle

    bundle = make_bundle(n_graphs=2, seed=5)
    cfg = training.TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5,
                               epochs=1, seed=5)
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    rng = np.random.default_rng(7)
    state = training.init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                                bundle.class_count, rng)
    state.landmarks.u.value = rng.standard_normal((cfg.k, cfg.latent)) * 0.5
    data = graphs[0]
    target = L.target_distribution(M.batch_forward([data], state.frozen()).w.value)
    params = state.parameters()

    def loss_direct(*flat):
        enc = E.EncoderParams(flat[0], flat[1], flat[2], flat[3],
                              activation=state.encoder.activation)
        lm = L.LandmarkSet(flat[4], dof=state.landmarks.dof)
        clf = M.ClassifierParams(flat[5], flat[6], flat[7], flat[8])
        st = M.ModelState(encoder=enc, landmarks=lm, classifier=clf,
                          include_means=state.include_means)
        total, _ = M.joint_loss([data], st, 0.01, 0.01, [target])
        return total

    inputs = [p.value.copy() for p in params]
    return grad_check(loss_direct, inputs, step=step, tolerance=tolerance,
                      name="end_to_end_joint_loss", rng=np.random.default_rng(3))


def cmd_inspect(args) -> int:
    if not os.path.isfile(args.model):
        raise DatasetError(f"model file not found: {args.model}")
    try:
        state = M.load_model(args.model)
        cfg_meta = state.meta.get("config", {})
        sub_cfg = training.TrainConfig(
            hops=int(cfg_meta.get("hops", 3)),
            variant=Variant(cfg_meta.get("variant", "node_distribution")),
            layer_decay=float(cfg_meta.get("layer_decay", 0.5)),
        ).substructure()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model {args.model}: {exc}") from exc
    bundle = _load_bundle(args)
    if not 0 <= args.graph < len(bundle.graphs):
        raise ConfigError(f"graph index {args.graph} out of range")
    data = M.prepare_graph(bundle.graphs[args.graph], bundle.node_label_count, sub_cfg)
    width_in = state.encoder.t1.value.shape[0]
    if data.z.shape[1] != width_in:
        raise ConfigError(f"model {args.model}: its {sub_cfg.variant.value} config gives "
                          f"{data.z.shape[1]}-wide substructure rows on {bundle.name}, "
                          f"but the encoder takes {width_in}")
    w = M.batch_forward([data], state.frozen(), [False]).w.value
    p, _, v, c_norm = pool_graph(w, *data.edges)
    manifest = _start_manifest("inspect", args, {"graph": args.graph},
                               [f"graph{args.graph}_{name}.csv"
                                for name in ("W", "p", "M", "C", "C_norm")])
    os.makedirs(args.out, exist_ok=True)

    def dump(name, array):
        path = os.path.join(args.out, f"graph{args.graph}_{name}.csv")
        np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.10g")

    dump("W", w)
    dump("p", p)
    dump("M", data.x.T @ v)
    dump("C", c_norm * np.outer(p + DENSITY_EPS, p + DENSITY_EPS))
    dump("C_norm", c_norm)
    if args.with_z:
        dump("Z", data.z)
        manifest.artifacts.append(os.path.join(args.out, f"graph{args.graph}_Z.csv"))
    _finish_manifest(manifest)
    print(f"wrote per-graph matrices for graph {args.graph} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p, dataset=True):
    if dataset:
        p.add_argument("--dataset", required=True, help="TU dataset name")
        p.add_argument("--data-root", default=None,
                       help="dataset root (default: $SLIM_DATA_DIR or ./data)")
    p.add_argument("--seed", type=int, default=None, help="master seed (default: 0)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel workers for folds/sweep cells")


def _add_train_flags(p):
    p.add_argument("--k", type=int, default=None, help="landmark count (default: 100)")
    p.add_argument("--hops", type=int, default=None,
                   help="substructure radius in hops (default: 3)")
    p.add_argument("--variant", choices=[v.value for v in Variant], default=None,
                   help="substructure layout (default: node_distribution)")
    p.add_argument("--latent", type=int, default=None, help="embedding width (default: 32)")
    p.add_argument("--hidden", default=None,
                   help="encoder hidden width: int or D, D/2, 2D (default: 2D)")
    p.add_argument("--optimizer", choices=["sgd", "adagrad"], default=None,
                   help="optimizer (default: adagrad)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None,
                   help="learning rate (default: 0.01)")
    p.add_argument("--epochs", type=int, default=None, help="epoch budget (default: 300)")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help="graphs per mini-batch (default: 32)")
    p.add_argument("--lambda-embed", dest="lambda_embed", type=float, default=None,
                   help="co-occurrence loss weight (default: 0.01)")
    p.add_argument("--lambda-cluster", dest="lambda_cluster", type=float, default=None,
                   help="clustering loss weight (default: 0.01)")
    p.add_argument("--semi-supervised", dest="semi_supervised", action="store_const",
                   const=True, default=None,
                   help="include unlabeled validation graphs in the unsupervised terms")
    p.add_argument("--include-means", dest="include_means", action="store_const",
                   const=True, default=None,
                   help="append densities and landmark means to the classifier feature")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slim",
        description="structural landmarking and interaction modelling for graphs",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cv", help="stratified cross-validation",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--folds", type=int, default=10, help="fold count")
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("train", help="train on the full dataset and save the model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep-k", help="accuracy as a function of landmark count",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--ks", required=True, help="comma-separated K values")
    p.add_argument("--folds", type=int, default=10, help="fold count")
    p.set_defaults(fn=cmd_sweep_k)

    p = sub.add_parser("coherence", help="coherence sweep / analytic bound",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p, dataset=False)
    p.add_argument("--analytic-only", action="store_true",
                   help="evaluate only the analytic bound")
    p.add_argument("--d", type=int, default=None, help="embedding dimension (default: 2)")
    p.add_argument("--K", type=int, default=None,
                   help="landmark count for --analytic-only (default: 8)")
    p.add_argument("--cdcp-over-umax2", dest="cdcp_over_umax2", type=float, default=None,
                   help="combined constant C_d*C_p/u_max^2 for --analytic-only (default: 1)")
    p.add_argument("--ks", default=None,
                   help="comma-separated K values (default: 2,4,...,256)")
    p.add_argument("--seeds", type=int, default=None, help="seeds per K (default: 10)")
    p.add_argument("--components", type=int, default=None,
                   help="mixture components (default: 4)")
    p.add_argument("--scale", type=float, default=None,
                   help="mixture component scale (default: 0.5)")
    p.add_argument("--points", type=int, default=None, help="points per draw (default: 1024)")
    p.set_defaults(fn=cmd_coherence)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="max relative error allowed")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump per-graph W, p, M, C, C_norm as CSV",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--model", required=True, help="model .npz written by train")
    p.add_argument("--graph", type=int, default=0, help="graph index")
    p.add_argument("--with-z", dest="with_z", action="store_true",
                   help="also dump the substructure matrix Z")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is None and hasattr(args, "out"):
        dataset = getattr(args, "dataset", None) or "run"
        args.out = os.path.join("slim_runs", f"{args.command}_{dataset}")
    if hasattr(args, "out") and args.out:
        os.makedirs(args.out, exist_ok=True)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except training.DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
