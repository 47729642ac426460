"""Cross-entropy training with AdamW on the toy shape task."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import train_val_split
from .model import Model, forward, named_parameters
from .tensor import ShapeError, Tensor, _guard_finite, _make, no_grad, one_hot


# AdamW's moment decay rates and denominator floor
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0  # global gradient-norm cap per step
# A batch loss above this many times ln(num_classes), the loss of a uniform
# guess, counts as divergence even when it is finite.
DIVERGED_LOSS_FACTOR = 100.0


class TrainingDiverged(RuntimeError):
    """Loss or gradients stopped being finite, or the loss blew up."""


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the batch, as one autodiff node.

    Each row is shifted by its max before the exp, so any logit magnitude is
    stable; :func:`one_hot` checks the labels, and the label's logit is
    picked as a product with it. A non-finite loss raises
    ``FloatingPointError``.
    """
    if logits.ndim != 2:
        raise ValueError(f"expected logits (B, classes), got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels {labels.shape} do not match rows of {logits.shape}")
    onehot = one_hot(labels, k, logits.dtype)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e.sum(axis=1)
        loss = (np.log(s) - (z * onehot).sum(axis=1)).mean()
    _guard_finite(loss, "cross_entropy")

    def backward(g):
        # softmax - onehot, scaled by g/B, in this order: the softmax is never
        # formed on its own
        gb = g / b
        dz = (gb / s)[:, None] * e
        dz -= gb * onehot
        return (dz,)

    return _make(loss, (logits,), backward, "cross_entropy")


@dataclass
class AdamW:
    """Decoupled weight decay; decay touches only rank >= 2 tensors."""

    params: list
    lr: float = 3e-3
    weight_decay: float = 0.05
    step_count: int = field(default=0, init=False)
    _m: dict = field(default_factory=dict, init=False)
    _v: dict = field(default_factory=dict, init=False)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            else:
                v = self._v[name]
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            self._m[name], self._v[name] = m, v
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay and p.ndim >= 2:
                update = update + self.weight_decay * p.data.astype(np.float64)
            p.data -= (lr * update).astype(p.dtype)


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise TrainingDiverged(f"gradient norm is {norm}")
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for _, p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list, init=False)

    @property
    def final_val_acc(self) -> float:
        return self.epochs[-1]["val_acc"] if self.epochs else 0.0

    @property
    def final_val_loss(self) -> float:
        return self.epochs[-1]["val_loss"] if self.epochs else 0.0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_acc"]
        for row in self.epochs:
            lines.append(
                f"{row['epoch']},{row['train_loss']:.6f},"
                f"{row['val_loss']:.6f},{row['val_acc']:.6f}"
            )
        return "\n".join(lines) + "\n"


def evaluate(model: Model, images, labels, batch_size: int = 64):
    """Eval-mode mean loss and accuracy over the whole set; records no graph."""
    n = images.shape[0]
    loss_sum, correct = 0.0, 0
    with no_grad():
        for start in range(0, n, batch_size):
            xb = images[start : start + batch_size]
            yb = labels[start : start + batch_size]
            logits = forward(model, xb, train=False)
            loss_sum += float(cross_entropy(logits, yb).item()) * xb.shape[0]
            correct += int(np.sum(np.argmax(logits.data, axis=1) == yb))
    return loss_sum / n, correct / n


def train_toy(
    model: Model,
    images,
    labels,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 3e-3,
    weight_decay: float = 0.05,
    val_fraction: float = 0.2,
    seed: int = 0,
    log=None,
) -> TrainReport:
    """Minibatch AdamW training with a held-out validation split.

    Cosine decay to 5% of the peak rate after a one-epoch warmup. Raises
    TrainingDiverged on a batch loss that is not finite or exceeds
    DIVERGED_LOSS_FACTOR * ln(num_classes), instead of training on.
    """
    tx, ty, vx, vy = train_val_split(images, labels, val_fraction, seed)
    params = named_parameters(model)
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(seed + 1)
    steps_per_epoch = max(1, -(-tx.shape[0] // batch_size))
    total_steps = epochs * steps_per_epoch
    warmup = steps_per_epoch
    max_loss = DIVERGED_LOSS_FACTOR * np.log(model.config.num_classes)
    report = TrainReport()
    step = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(tx.shape[0])
        loss_sum = 0.0
        for start in range(0, tx.shape[0], batch_size):
            idx = order[start : start + batch_size]
            try:
                logits = forward(model, tx[idx], train=True)
                loss = cross_entropy(logits, ty[idx])
            except FloatingPointError as exc:
                raise TrainingDiverged(f"forward overflowed at epoch {epoch}") from exc
            val = float(loss.item())
            if not val <= max_loss:  # NaN fails the comparison too
                raise TrainingDiverged(f"loss became {val} at epoch {epoch}, above {max_loss:.4g}")
            opt.zero_grad()
            loss.backward()
            clip_gradients(params, CLIP_NORM)
            if step < warmup:
                cur_lr = lr * (step + 1) / warmup
            else:
                frac = (step - warmup) / max(1, total_steps - warmup)
                cur_lr = lr * (0.05 + 0.95 * 0.5 * (1.0 + np.cos(np.pi * frac)))
            opt.step(lr=cur_lr)
            loss_sum += val * idx.shape[0]
            step += 1
        val_loss, val_acc = evaluate(model, vx, vy, batch_size)
        row = {
            "epoch": epoch,
            "train_loss": loss_sum / tx.shape[0],
            "val_loss": val_loss,
            "val_acc": val_acc,
        }
        report.epochs.append(row)
        if log is not None:
            log(
                f"epoch {epoch:3d}  train {row['train_loss']:.4f}  "
                f"val {val_loss:.4f}  acc {val_acc:.4f}"
            )
    return report
