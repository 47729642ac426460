"""Command-line front end.

Heavy imports happen inside main() so --threads can pin BLAS pools
through environment variables before numpy first loads. Files are
written to a temp path and renamed, so a failing run never leaves a
half-written checkpoint or CSV behind.
"""
from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_threads(argv) -> None:
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    if not threads.isdigit() or int(threads) < 1:
        raise SystemExit(f"--threads wants a positive integer, got {threads!r}")
    if "numpy" in sys.modules:
        print("warning: numpy already imported, --threads has no effect", file=sys.stderr)
    for var in _THREAD_VARS:
        os.environ[var] = threads


def _emit(path, text: str) -> None:
    """CSV and config text go to the path when given, stdout otherwise."""
    from .checkpoint import atomic_open

    if path:
        with atomic_open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    from .blocks import MODES  # loads numpy, so only after _pin_threads

    parser = argparse.ArgumentParser(
        prog="dualformer",
        description="Dual-branch backbone with partition-wise attention.",
    )
    def common_flags(p, root: bool) -> None:
        # on subparsers the defaults are suppressed so a flag placed before
        # the subcommand is not clobbered by the subparser's parse pass
        kw = {} if root else {"default": argparse.SUPPRESS}
        p.add_argument(
            "--threads", type=int, help="pin BLAS/OpenMP pools to N threads", **kw
        )
        p.add_argument(
            "--precision",
            choices=("f32", "f64"),
            **({"default": "f32"} if root else kw),
        )
        p.add_argument(
            "--seed", type=int, help="weight init seed", **({"default": 0} if root else kw)
        )

    common_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_source(p, ckpt: bool = False):
        g = p.add_mutually_exclusive_group(required=False)
        g.add_argument("--preset", help="preset name (T, XS, S, B, Micro)")
        g.add_argument("--config", help="path to a key=value config file")
        if ckpt:
            g.add_argument("--ckpt", help="path to a checkpoint")
        p.add_argument("--mode", choices=MODES, help="override the block mode")

    p = sub.add_parser("build", help="materialize a model and save a checkpoint")
    model_source(p)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dump-config", help="also write the flat config text here")

    p = sub.add_parser("train", help="train on the synthetic shape task")
    model_source(p)
    p.add_argument("--n", type=int, default=2000, help="dataset size")
    p.add_argument("--size", type=int, default=32, help="image side, multiple of 32")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--weight-decay", type=float, default=0.05)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--out", help="save the trained checkpoint here")
    p.add_argument("--metrics", help="write per-epoch CSV here")

    p = sub.add_parser("eval", help="evaluate a checkpoint on fresh synthetic data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--out", help="write loss/accuracy CSV here")

    p = sub.add_parser("count", help="count learnable parameters")
    model_source(p, ckpt=True)

    p = sub.add_parser("flops", help="analytic multiply-accumulate counts")
    model_source(p)
    p.add_argument("--height", type=int, default=224)
    p.add_argument("--width", type=int, default=224)

    p = sub.add_parser("fourier", help="radial spectrum of a stage's features")
    model_source(p, ckpt=True)
    p.add_argument("--stage", type=int, default=3)
    p.add_argument("--n", type=int, default=64, help="probe batch size")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out", help="write the spectrum CSV here")

    p = sub.add_parser("partitions", help="dump hash partitions as PGM images")
    model_source(p, ckpt=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=0, help="batch element to visualize")

    p = sub.add_parser("gradcheck", help="finite-difference audit of a whole model")
    model_source(p)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--max-checks", type=int, default=2, help="audited elements per tensor")
    p.add_argument("--tol", type=float, default=1e-4)

    for cmd in sub.choices.values():
        common_flags(cmd, root=False)
    return parser


def _resolve_config(args, default_preset: str | None = None):
    import dataclasses

    from .model import config_from_text, get_preset

    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = config_from_text(fh.read())
    else:
        preset = getattr(args, "preset", None) or default_preset
        if preset is None:
            raise SystemExit("pass --preset or --config")
        cfg = get_preset(preset)
    mode = getattr(args, "mode", None)
    if mode is not None and mode != cfg.mode:
        cfg = dataclasses.replace(cfg, mode=mode)
        cfg.validate()
    return cfg


def _resolve_model(args, default_preset: str | None = None):
    from .checkpoint import load_checkpoint
    from .model import build_model

    if getattr(args, "ckpt", None):
        if getattr(args, "mode", None):
            raise SystemExit("--mode cannot rewire a stored checkpoint; rebuild instead")
        return load_checkpoint(args.ckpt)
    return build_model(_resolve_config(args, default_preset), seed=args.seed)


def main() -> int:
    argv = sys.argv[1:]
    _pin_threads(argv)
    args = _build_parser().parse_args(argv)

    from . import precision
    from .model import ConfigError
    from .tensor import ShapeError

    precision.set_default_dtype(args.precision)
    try:
        return _dispatch(args)
    except (ConfigError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    import numpy as np

    from .checkpoint import save_checkpoint
    from .model import config_to_text, count_params

    if args.command == "build":
        from .model import build_model

        cfg = _resolve_config(args)
        model = build_model(cfg, seed=args.seed)
        save_checkpoint(args.out, model)
        if args.dump_config:
            _emit(args.dump_config, config_to_text(cfg))
        print(f"built {cfg.name}: {count_params(model)} params -> {args.out}")
        return 0

    if args.command == "train":
        from .data import make_shapes
        from .model import build_model
        from .train import train_toy

        cfg = _resolve_config(args, default_preset="Micro")
        if cfg.num_classes != 4:
            raise SystemExit(
                f"the shape task has 4 classes; config {cfg.name} has {cfg.num_classes}"
            )
        images, labels = make_shapes(args.n, seed=args.data_seed, size=args.size)
        model = build_model(cfg, seed=args.seed)
        report = train_toy(
            model,
            images,
            labels,
            epochs=args.epochs,
            batch_size=args.batch,
            lr=args.lr,
            weight_decay=args.weight_decay,
            val_fraction=args.val_fraction,
            seed=args.seed,
            log=lambda line: print(line, file=sys.stderr),
        )
        _emit(args.metrics, report.to_csv())
        if args.out:
            save_checkpoint(args.out, model)
        print(
            f"final val_acc={report.final_val_acc:.4f} val_loss={report.final_val_loss:.4f}",
            file=sys.stderr,
        )
        return 0

    if args.command == "eval":
        from .checkpoint import load_checkpoint
        from .data import make_shapes
        from .train import evaluate

        model = load_checkpoint(args.ckpt)
        images, labels = make_shapes(args.n, seed=args.data_seed, size=args.size)
        loss, acc = evaluate(model, images, labels, args.batch)
        _emit(args.out, f"loss,acc\n{loss:.6f},{acc:.6f}\n")
        return 0

    if args.command == "count":
        from .model import named_parameters

        model = _resolve_model(args)
        groups: dict[str, int] = {}
        for name, p in named_parameters(model):
            key = name.split(".")[0].split("[")[0]
            groups[key] = groups.get(key, 0) + p.size
        for key, size in groups.items():
            print(f"{key:10s} {size:>12d}")
        print(f"{'total':10s} {count_params(model):>12d}")
        return 0

    if args.command == "flops":
        from .flops import count_flops

        cfg = _resolve_config(args)
        report = count_flops(cfg, args.height, args.width)
        print(f"stem       {report['stem']:>16d}")
        for i, entry in enumerate(report["stages"], 1):
            gh, gw = entry["grid"]
            print(f"stage{i} ({gh}x{gw})  transition {entry['transition']:>14d}  "
                  f"blocks {entry['blocks']:>14d}")
        print(f"head       {report['head']:>16d}")
        print(f"total      {report['total']:>16d}")
        return 0

    if args.command == "fourier":
        from .analysis import fourier_report, spectrum_to_csv
        from .data import make_shapes

        model = _resolve_model(args, default_preset="Micro")
        images, _ = make_shapes(args.n, seed=args.data_seed, size=args.size)
        report = fourier_report(model, images, args.stage, args.bins)
        print(
            f"stage {report['stage']} grid {report['grid'][0]}x{report['grid'][1]} "
            f"high-freq mean {report['high_freq_mean']:.2f} dB",
            file=sys.stderr,
        )
        _emit(args.out, spectrum_to_csv(report["radii"], report["db"]))
        return 0

    if args.command == "partitions":
        from .analysis import dump_partitions
        from .data import make_shapes

        model = _resolve_model(args, default_preset="Micro")
        images, _ = make_shapes(args.n, seed=args.data_seed, size=args.size)
        paths = dump_partitions(model, images, args.out_dir, sample=args.sample)
        print(f"wrote {len(paths)} partition maps to {args.out_dir}")
        return 0

    if args.command == "gradcheck":
        from . import precision
        from .data import make_shapes
        from .gradcheck import grad_check
        from .model import build_model, capture_partitions, forward, named_parameters
        from .train import cross_entropy

        precision.set_default_dtype("f64")
        cfg = _resolve_config(args, default_preset="Micro")
        model = build_model(cfg, seed=args.seed)
        images, labels = make_shapes(
            max(8, 4 * ((args.batch + 3) // 4)), seed=args.seed, size=args.size
        )
        images, labels = images[: args.batch], labels[: args.batch]
        frozen = [e["assignment"] for e in capture_partitions(model, images)]

        def loss_fn(*_):
            return cross_entropy(forward(model, images, frozen=frozen), labels)

        params = [p for _, p in named_parameters(model)]
        worst = grad_check(
            loss_fn, params, eps=args.eps, max_checks_per_input=args.max_checks,
            seed=args.seed,
        )
        status = "ok" if worst <= args.tol else "FAIL"
        print(f"worst relative error {worst:.3e} over {len(params)} tensors [{status}]")
        return 0 if worst <= args.tol else 1

    raise SystemExit(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
