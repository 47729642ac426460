"""Spans around calls into the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function with a timing wrapper and
rebinds every module-level name in the ``dualformer`` package that refers to
the original, because ``blocks``, ``mhpa``, ``model`` and ``train`` import by
name. Methods (``Tensor.backward``, ``AdamW.step``) are replaced on their
class. ``uninstall`` puts every original back.

Each span records (id, parent id, name, operation index, start ns, end ns)
in memory; ``write_spans`` writes them out once the run is over. A name's
self time is its spans' durations minus the time covered by their direct
child spans.

Post-call hooks run after a span closes, so their cost lands in no span:
they resolve layer sites for replay, count the autodiff nodes an eval
forward records and count empty hash buckets.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# (module, attribute path) of every traced function, in report order
TARGETS = (
    ("train", "evaluate"),
    ("train", "cross_entropy"),
    ("train", "clip_gradients"),
    ("train", "AdamW.step"),
    ("model", "forward"),
    ("blocks", "patch_embed_forward"),
    ("blocks", "dual_block_forward"),
    ("blocks", "mbconv_forward"),
    ("blocks", "ffn_forward"),
    ("mhpa", "mhpa_forward"),
    ("mhpa", "mhpa_head_forward"),
    ("partition", "hash_codes"),
    ("partition", "lsh_assign"),
    ("partition", "kmeans_assign"),
    ("norms", "layer_norm_channels"),
    ("norms", "batch_norm"),
    ("conv", "conv2d"),
    ("tensor", "gelu"),
    ("tensor", "sigmoid"),
    ("tensor", "softmax"),
    ("tensor", "matmul"),
    ("tensor", "segment_sum"),
    ("tensor", "gather_segments"),
    ("tensor", "Tensor.backward"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

# Layer-site functions -> (site kind, arguments replay passes after the
# input ``x``). The first call of each kind per stage is kept for replay;
# patch embeds are counted to tell the stages apart.
SITE_ARGS = {
    "blocks.patch_embed_forward": ("embed", ("p", "train")),
    "blocks.mbconv_forward": ("mbconv", ("p", "train")),
    "mhpa.mhpa_forward": ("mhpa", ("params", "cfg")),
    "blocks.ffn_forward": ("ffn", ("p",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = np.zeros(len(TARGETS), dtype=np.int64)
        self.self_ns = np.zeros(len(TARGETS), dtype=np.int64)
        self.op = -1
        self.eval_graph_nodes = 0
        self.buckets = 0
        self.empty_buckets = 0
        # site name -> (function name, input shape, input dtype, extra args)
        self.sites: dict[str, tuple] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._embeds_seen = 0
        self._saved: list[tuple] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dualformer"]
        for idx, (mod_name, attr) in enumerate(TARGETS):
            mod = importlib.import_module(f"dualformer.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(idx, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(idx, orig)
            for m in pkg:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, name, wrapped)

    def _rebind(self, owner, name, new) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, idx: int, fn):
        name = SPAN_NAMES[idx]
        hook = self._hook_for(name)
        sig = inspect.signature(fn) if hook is not None else None
        stack, spans = self._stack, self.spans
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, idx, self.op, t0, t1))
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(name, bound.arguments, result)
            return result

        return traced

    def per_op(self, ops: int) -> dict:
        """Calls and self ms per workload operation for every traced name."""
        out = {}
        for idx, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (float(self.calls[idx]) / ops, "count")
            out[f"{name}.self_ms"] = (float(self.self_ns[idx]) / 1e6 / ops, "ms")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,op,start_ns,end_ns\n")
            for sid, parent, idx, op, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{SPAN_NAMES[idx]},{op},{t0},{t1}\n")

    # -- post-call hooks ----------------------------------------------------

    def _hook_for(self, name: str):
        if name == "model.forward":
            return self._after_forward
        if name in SITE_ARGS:
            return self._after_site
        if name == "mhpa.mhpa_head_forward":
            return self._after_head
        return None

    def _after_forward(self, name, args, result) -> None:
        self._embeds_seen = 0
        if not args["train"]:
            from dualformer.tensor import graph_records

            self.eval_graph_nodes += len(graph_records(result))

    def _after_site(self, name, args, result) -> None:
        kind, replay_args = SITE_ARGS[name]
        seen = self._embeds_seen
        if kind == "embed":
            site = "stem" if seen == 0 else f"embed{seen + 1}"
            self._embeds_seen = seen + 1
        else:
            site = f"s{seen}.{kind}"
        if site not in self.sites:
            x = args["x"]
            self.sites[site] = (name, tuple(x.shape), x.dtype,
                                tuple(args[a] for a in replay_args))

    def _after_head(self, name, args, result) -> None:
        from dualformer.mhpa import segment_counts

        _, assign = result
        counts = segment_counts(assign, args["num_clusters"])
        self.buckets += counts.size
        self.empty_buckets += int(np.count_nonzero(counts == 0))
