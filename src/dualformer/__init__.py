"""Dual-branch vision backbone with partition-wise attention, on numpy.

Attribute access is lazy so the CLI can pin BLAS thread pools through
environment variables before anything pulls numpy in.

Importing the package sets one allocator policy, where the C library is
glibc; on any other C library it does nothing. glibc's ``mallopt`` pins its
mmap threshold and its trim threshold at ``_HEAP_THRESHOLD`` (1 GiB): every
buffer the model allocates then comes from the heap and goes back to it when
freed, where glibc's defaults map a block over 128 KiB to fresh pages, unmap
it when it is freed, and trim the heap's free top, so a map-sized temporary
paid its first-touch page faults on every call (about 8,000 per operation
of perfbench's tokens-3136 loop, one per 4 KiB page). Free pages then go
back to the OS in one place, ``_trim_heap``: every full garbage collection
calls ``malloc_trim``, which also releases free pages below the heap's top.
"""
from __future__ import annotations

import ctypes
import gc
import importlib
import os

__version__ = "0.1.0"


def _trim_heap(phase: str, info: dict) -> None:
    """After a full collection, return the C heap's free pages to the OS.

    Under the pinned trim threshold glibc gives back nothing on its own,
    and under its default one only the top of its heap. numpy's and glibc's
    small-block caches keep a few freed buffers alive, and one that sits
    high in the heap keeps every free page below it resident: a large
    transient pass, such as an f64 forward over a model copy, then stays in
    the resident set for the life of the process (about 40 MB after
    perfbench's eval-T224 set-up, in some launches and not others).
    ``malloc_trim`` releases free pages anywhere in the heap. CPython runs
    a full collection rarely on its own, so the cost is a few page faults
    now and then; ``gc.collect()`` asks for one.
    """
    if phase == "stop" and info["generation"] == 2:
        _malloc_trim(0)


def _glibc():
    """The process's C library when it is glibc, else None."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        return ctypes.CDLL(None)
    except (AttributeError, OSError, ValueError):  # no confstr name, no libc handle
        return None


def _pin_thresholds(libc) -> bool:
    """Set glibc's mmap and trim thresholds to ``_HEAP_THRESHOLD``; True when
    glibc accepted both."""
    mallopt = libc.mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    accepted = [mallopt(param, _HEAP_THRESHOLD) for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)]
    return accepted == [1, 1]


# mallopt's parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# largest block served from the heap, and most free heap top kept mapped
_HEAP_THRESHOLD = 1 << 30

_libc = _glibc()
_heap_pinned = _libc is not None and _pin_thresholds(_libc)
if _libc is None:
    _malloc_trim = None
else:
    _malloc_trim = _libc.malloc_trim
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
