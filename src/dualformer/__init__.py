"""Dual-branch vision backbone with partition-wise attention, on numpy.

Attribute access is lazy so the CLI can pin BLAS thread pools through
environment variables before anything pulls numpy in.

Importing the package makes every full garbage collection hand the C heap's
free pages back to the OS, where the C library is glibc (``_trim_heap``).
"""
from __future__ import annotations

import ctypes
import gc
import importlib

__version__ = "0.1.0"


def _trim_heap(phase: str, info: dict) -> None:
    """After a full collection, return the C heap's free pages to the OS.

    glibc gives back only the top of its heap on its own. numpy's and
    glibc's small-block caches keep a few freed buffers alive, and one that
    sits high in the heap keeps every free page below it resident: a large
    transient pass, such as an f64 forward over a model copy, then stays in
    the resident set for the life of the process (about 40 MB after
    perfbench's eval-T224 set-up, in some launches and not others).
    ``malloc_trim`` releases free pages anywhere in the heap. CPython runs
    a full collection rarely on its own, so the cost is a few page faults
    now and then; ``gc.collect()`` asks for one.
    """
    if phase == "stop" and info["generation"] == 2:
        _malloc_trim(0)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc: no hook
    _malloc_trim = None
else:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
    gc.callbacks.append(_trim_heap)

_EXPORTS = {
    "Tensor": ".tensor",
    "constant": ".tensor",
    "no_grad": ".tensor",
    "conv2d": ".conv",
    "grad_check": ".gradcheck",
    "ModelConfig": ".model",
    "PRESETS": ".model",
    "get_preset": ".model",
    "build_model": ".model",
    "forward": ".model",
    "count_params": ".model",
    "count_flops": ".flops",
    "save_checkpoint": ".checkpoint",
    "load_checkpoint": ".checkpoint",
    "make_shapes": ".data",
    "train_toy": ".train",
    "set_default_dtype": ".precision",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module, __name__), name)
