"""The three workloads: seeded inputs, one operation each, and its output check.

Every workload has the same shape: ``setup(seed)`` does the program's own
set-up (build weights, make data) and is timed as ``setup_s``;
``prepare()`` computes the references the checks compare against, outside
every timed phase; ``op(i)`` runs operation ``i`` and returns its timed
seconds and per-call seconds, raising ``CheckFailed`` when an output is
wrong. Program functions are always reached through their module, so the
tracer's rebinding sees every call.
"""
from __future__ import annotations

import copy
import dataclasses
from time import perf_counter as _clock

import numpy as np

from dualformer import blocks, data, mhpa, model, partition, precision, tensor, train

# Relative tolerance of an f32 loss or gradient norm against its f64
# reference under the same partitions. Measured errors are 1e-8 to 1e-7; a
# 0.1% error in f32 GELU moves the eval loss by 2.5e-4 and the first-step
# gradient norm by 3.5e-4.
REL_TOL = 1e-5
# Relative tolerance of the f32 MHPA head output and gradient against the
# independent f64 reference; measured errors are below 1e-6.
HEAD_TOL = 1e-4


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def _close(got: float, ref: float, what: str) -> None:
    if not np.isfinite(got) or abs(got - ref) > REL_TOL * max(1.0, abs(ref)):
        raise CheckFailed(f"{what}: got {got!r}, f64 reference {ref!r}")


def _upcast(m):
    """Deep copy of a model with every float32 array widened to float64."""
    m64 = copy.deepcopy(m)

    def walk(obj):
        if isinstance(obj, tensor.Tensor):
            obj.data = obj.data.astype(np.float64)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                val = getattr(obj, f.name)
                if isinstance(val, np.ndarray) and val.dtype == np.float32:
                    setattr(obj, f.name, val.astype(np.float64))
                else:
                    walk(val)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)

    walk(m64)
    m64.dtype = np.float64
    return m64


def _frozen(m, images, train_mode: bool) -> list:
    # on a copy: a train-mode forward moves the batch-norm running buffers
    with tensor.no_grad():
        trace = model.capture_partitions(copy.deepcopy(m), images, train=train_mode)
    return [entry["assignment"] for entry in trace]


def _sign_hash(tokens: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Bucket ids computed one hyperplane at a time, independent of hash_codes."""
    code = np.zeros(tokens.shape[0], dtype=np.int64)
    for bit, normal in enumerate(beta):
        code |= (tokens @ normal >= 0.0).astype(np.int64) << bit
    return code


def _gelu(z: np.ndarray) -> np.ndarray:
    return 0.5 * z * (1.0 + np.tanh(0.7978845608028654 * (z + 0.044715 * z**3)))


def _head_reference(x, head, assign, k: int) -> np.ndarray:
    """One MHPA head forward in f64 numpy, buckets reduced by one-hot matmuls.

    Independent of the segment ops and the autodiff engine: the gate
    weights tokens inside their bucket (intra), a softmax over non-empty
    buckets weights the bucket means (inter), and both views are projected
    back per token.
    """
    w = {f.name: getattr(head, f.name).data.astype(np.float64)
         for f in dataclasses.fields(head) if f.name != "norms"}
    onehot = np.eye(k)[assign]  # (n, K)
    counts = onehot.sum(axis=0)
    gate = 1.0 / (1.0 + np.exp(-x))
    values = x @ w["token_w"] + w["token_b"]
    weights = gate / ((onehot.T @ gate)[assign] + mhpa.EPS)
    intra = weights * values / ((onehot.T @ weights)[assign] + mhpa.EPS)
    descr = (onehot.T @ values) / np.maximum(counts, 1)[:, None]
    scores = (_gelu(descr @ w["imp_w1"] + w["imp_b1"]) @ w["imp_w2"] + w["imp_b2"])[:, 0]
    scores = np.where(counts > 0, scores, -np.inf)
    coeff = np.exp(scores - scores.max())
    inter = descr * (coeff / coeff.sum())[:, None]
    return np.concatenate([intra, inter[assign]], axis=1) @ w["agg_w"] + w["agg_b"]


class EvalT224:
    """``train.evaluate`` on one batch of 2 seeded 224x224 images, preset T."""

    name = "eval-T224"
    items = "images"
    named = ("eval_images_per_s", "eval_batch_ms_tail")
    setup_repeats = 5
    tail_pct = 35  # ~16 batches per 30 s run: at least 10 lie above p35
    is_model = True
    BATCH, RES, POOL = 2, 224, 2
    image_hw = (RES, RES)
    TERMINAL_STD = 0.02

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cfg = model.get_preset("T")
        self.model = model.build_model(self.cfg, seed=seed)
        self._fill_terminals(rng)
        self.batches = [
            (
                rng.standard_normal((self.BATCH, 3, self.RES, self.RES)).astype(np.float32),
                rng.integers(0, self.cfg.num_classes, size=self.BATCH),
            )
            for _ in range(self.POOL)
        ]

    def _fill_terminals(self, rng) -> None:
        # A fresh model zeroes each branch's last projection, which makes every
        # block the identity; seeded values let every block reach the logits.
        for stage in self.model.stages:
            for blk in stage.blocks:
                for w in (blk.mbconv.proj_w, blk.mhpa.up_w, blk.ffn.w2):
                    w.data[...] = self.TERMINAL_STD * rng.standard_normal(w.shape)
        # Unit-scale head weights give logits of order 1, so the loss the check
        # compares moves by ~4e-4 when the logits move by 1e-3.
        head = self.model.head_w
        head.data[...] = rng.standard_normal(head.shape)

    def prepare(self) -> None:
        m64 = _upcast(self.model)
        self.ref_loss = []
        for x, y in self.batches:
            frozen = _frozen(self.model, x, False)
            with precision.precision("f64"), tensor.no_grad():
                logits = model.forward(m64, x.astype(np.float64), frozen=frozen)
                self.ref_loss.append(train.cross_entropy(logits, y).item())

    def op(self, i: int):
        x, y = self.batches[i % self.POOL]
        t0 = _clock()
        loss, _ = train.evaluate(self.model, x, y)
        dt = _clock() - t0
        _close(loss, self.ref_loss[i % self.POOL], f"eval loss, batch {i % self.POOL}")
        return self.BATCH, dt, {}


class TrainMicro32:
    """One AdamW training step on preset Micro, batch 64 drawn from a shapes pool."""

    name = "train-Micro32"
    items = "samples"
    named = ("train_samples_per_s", "train_step_ms_tail")
    setup_repeats = 5
    tail_pct = 88  # ~105 steps per 30 s run
    is_model = True
    BATCH, RES, POOL = 64, 32, 512
    image_hw = (RES, RES)
    CLIP = 1.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = model.get_preset("Micro")
        self.model = model.build_model(self.cfg, seed=seed)
        self.images, self.labels = data.make_shapes(self.POOL, seed=seed, size=self.RES)
        self.params = model.named_parameters(self.model)
        self.opt = train.AdamW(self.params)

    def _batch(self, i: int):
        idx = np.random.default_rng([self.seed, 2, i]).choice(self.POOL, self.BATCH, replace=False)
        return self.images[idx], self.labels[idx]

    def prepare(self) -> None:
        x, y = self._batch(0)
        frozen = _frozen(self.model, x, True)
        m64 = _upcast(self.model)
        with precision.precision("f64"):
            logits = model.forward(m64, x.astype(np.float64), train=True, frozen=frozen)
            loss = train.cross_entropy(logits, y)
            loss.backward()
            norm = train.clip_gradients(model.named_parameters(m64), self.CLIP)
        self.ref = (loss.item(), norm)

    def op(self, i: int):
        x, y = self._batch(i)
        t0 = _clock()
        logits = model.forward(self.model, x, train=True)
        loss = train.cross_entropy(logits, y)
        self.opt.zero_grad()
        loss.backward()
        norm = train.clip_gradients(self.params, self.CLIP)
        self.opt.step()
        dt = _clock() - t0
        value = loss.item()
        if not np.isfinite(value):
            raise CheckFailed(f"step {i}: loss is {value}")
        if i == 0:
            _close(value, self.ref[0], "first step loss")
            _close(norm, self.ref[1], "first step gradient norm")
        return self.BATCH, dt, {}


class Tokens3136:
    """LSH, k-means and one MHPA head forward+backward on fresh (3136, 64) tokens."""

    name = "tokens-3136"
    items = "tokens"
    named = ("tokens_per_s", "op_ms_tail")
    setup_repeats = 51
    tail_pct = 93  # ~175 operations per 30 s run, checks included
    is_model = False
    N, D, BITS, ITERS = 3136, 64, 3, 5
    K = 1 << BITS

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.norms = partition.sample_norm_vectors(self.BITS, self.D, rng)
        cfg = mhpa.MhpaConfig(hash_bits=self.BITS, num_heads=1)
        self.head = blocks.make_mhpa(self.D, cfg, rng).heads[0]

    def prepare(self) -> None:
        pass

    def op(self, i: int):
        toks = np.random.default_rng([self.seed, 3, i]).standard_normal((self.N, self.D))
        x = tensor.Tensor(toks, requires_grad=True)
        t0 = _clock()
        lsh = partition.lsh_assign(toks, self.norms)
        t1 = _clock()
        km = partition.kmeans_assign(toks, self.K, max_iters=self.ITERS, seed=i)
        t2 = _clock()
        out, assign = mhpa.mhpa_head_forward(x, self.head, self.K)
        tensor.tsum(out).backward()
        t3 = _clock()

        if not np.array_equal(lsh.assignment, _sign_hash(toks, self.norms.beta)):
            raise CheckFailed(f"op {i}: lsh_assign differs from the sign-of-projection hash")
        km.validate()
        if not (km.counts > 0).all():
            raise CheckFailed(f"op {i}: k-means left a cluster empty")
        if not np.isfinite(partition.kmeans_objective(toks, km)):
            raise CheckFailed(f"op {i}: k-means objective is not finite")
        x64 = x.data.astype(np.float64)
        if not np.array_equal(assign, _sign_hash(x64, self.head.norms.beta)):
            raise CheckFailed(f"op {i}: head assignment differs from the sign-of-projection hash")
        ref = _head_reference(x64, self.head, assign, self.K)
        err = np.abs(out.data - ref).max()
        if out.shape != ref.shape or not err <= HEAD_TOL * np.abs(ref).max():
            raise CheckFailed(f"op {i}: head output is off its f64 reference by {err}")
        # directional derivative of sum(output) by central differences, same buckets
        v = np.random.default_rng([self.seed, 4, i]).standard_normal(x64.shape)
        h = 1e-4
        fd = (_head_reference(x64 + h * v, self.head, assign, self.K).sum()
              - _head_reference(x64 - h * v, self.head, assign, self.K).sum()) / (2 * h)
        ad = float(np.sum(x.grad.astype(np.float64) * v)) if x.grad is not None else np.nan
        if not abs(ad - fd) <= HEAD_TOL * max(1.0, abs(fd)):
            raise CheckFailed(f"op {i}: head gradient gives {ad} along a probe, differences give {fd}")
        calls = {"lsh": t1 - t0, "kmeans": t2 - t1, "mhpa_head": t3 - t2}
        return self.N, t3 - t0, calls


WORKLOADS = {w.name: w for w in (EvalT224, TrainMicro32, Tokens3136)}
