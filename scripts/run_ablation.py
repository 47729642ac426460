"""Train the Micro preset under each block mode on identical data.

Every run shares weights seed, data, schedule and budget; only the block
wiring changes. The interesting orderings are parallel vs series (how the
two branches are composed) and parallel vs the single-route attention
variants.
"""
import argparse
import dataclasses
import sys

from dualformer.blocks import MODES
from dualformer.checkpoint import atomic_open
from dualformer.data import make_shapes
from dualformer.model import build_model, get_preset
from dualformer.train import train_toy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", nargs="*", default=list(MODES))
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="ablation.csv")
    args = ap.parse_args()

    images, labels = make_shapes(args.n, seed=args.seed)
    rows = []
    for mode in args.modes:
        cfg = dataclasses.replace(get_preset("Micro"), mode=mode)
        model = build_model(cfg, seed=args.seed)
        report = train_toy(
            model, images, labels, epochs=args.epochs, batch_size=args.batch, seed=args.seed
        )
        last = report.epochs[-1]
        rows.append((mode, last["train_loss"], last["val_loss"], last["val_acc"]))
        print(
            f"{mode:10s} train {last['train_loss']:.4f}  "
            f"val {last['val_loss']:.4f}  acc {last['val_acc']:.4f}"
        )
    with atomic_open(args.out, "w") as fh:
        fh.write("mode,train_loss,val_loss,val_acc\n")
        for mode, tl, vl, va in rows:
            fh.write(f"{mode},{tl:.6f},{vl:.6f},{va:.6f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
