"""Layer-site replay: forward and backward ms per site, with analytic MACs.

A site is the stem, a stage transition (``embed2``..``embed4``), or the
MBConv, MHPA or FFN of the first block of a stage (``s1``..``s4``). The
tracer records each site's input shape and parameters during the traced
phase; here every site runs again in isolation, untraced, on a seeded input
of that shape, and backward runs from the sum of its output. MACs come from
``dualformer.flops``, so ``fwd_gmac_s`` is the achieved rate of the forward.
"""
from __future__ import annotations

import importlib
import time

import numpy as np

SITES = ("stem", "embed2", "embed3", "embed4") + tuple(
    f"s{s}.{kind}" for s in range(1, 5) for kind in ("mbconv", "mhpa", "ffn")
)
REPEATS = 3


def site_macs(cfg, image_hw, site: str, batch: int) -> int:
    """MACs of one site for a batch, from the preset and the image size."""
    from dualformer import flops

    table = flops.count_flops(cfg, *image_hw)
    if site == "stem":
        per_image = table["stem"]
    elif site.startswith("embed"):
        per_image = table["stages"][int(site[5:]) - 1]["transition"]
    else:
        stage, kind = site[1:].split(".")
        si = int(stage) - 1
        gh, gw = table["stages"][si]["grid"]
        parts = flops.block_flops(gh, gw, cfg, si)
        per_image = parts[{"mbconv": "conv", "mhpa": "attn", "ffn": "ffn"}[kind]]
    return per_image * batch


def _clear_grads(params) -> None:
    from dualformer.model import named_parameters

    for _, p in named_parameters(params):
        p.grad = None


def replay(sites: dict, cfg, image_hw, seed: int) -> dict:
    """Per-layer metrics ``site.<s>.{fwd_ms,bwd_ms,fwd_gmac_s}`` for every site.

    ``sites`` maps a site name to what the tracer captured. Every name in
    SITES must be present: a model workload that misses one is a failure.
    """
    from dualformer.tensor import Tensor, tsum

    missing = [s for s in SITES if s not in sites]
    if missing:
        raise RuntimeError(f"traced run did not reach sites {missing}")
    rng = np.random.default_rng([seed, 7])
    out = {}
    for site in SITES:
        fn_name, shape, dtype, extra = sites[site]
        mod_name, fn_attr = fn_name.split(".")
        fn = getattr(importlib.import_module(f"dualformer.{mod_name}"), fn_attr)
        x = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
        fwd, bwd = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            y = fn(x, *extra)
            t1 = time.perf_counter()
            tsum(y).backward()
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
            x.grad = None
            _clear_grads(extra[0])
        fwd_s, bwd_s = float(np.median(fwd)), float(np.median(bwd))
        macs = site_macs(cfg, image_hw, site, shape[0])
        out[f"site.{site}.fwd_ms"] = (fwd_s * 1e3, "ms")
        out[f"site.{site}.bwd_ms"] = (bwd_s * 1e3, "ms")
        out[f"site.{site}.fwd_gmac_s"] = (macs / fwd_s / 1e9, "GMAC/s")
    return out


def absent() -> dict:
    """Site metrics of a workload that runs no model: no site did any work."""
    out = {}
    for site in SITES:
        out[f"site.{site}.fwd_ms"] = (0.0, "ms")
        out[f"site.{site}.bwd_ms"] = (0.0, "ms")
        out[f"site.{site}.fwd_gmac_s"] = (0.0, "GMAC/s")
    return out
