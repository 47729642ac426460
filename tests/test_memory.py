"""The allocator policy: freed buffers stay in the C heap for reuse, and full
garbage collections return the heap's free pages to the OS."""
import gc
import os
import resource

import numpy as np
import pytest

import dualformer

MIB = 2**20


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(dualformer._malloc_trim is None, reason="needs glibc's malloc_trim")
def test_full_collection_releases_heap_pinned_by_a_live_buffer():
    # 96 KiB buffers stay under glibc's mmap threshold, so they come from the
    # heap; the last one stays live above the others, so freeing them cannot
    # shrink the heap from the top and 47 MiB of free pages stay resident
    bufs = [np.ones(96 * 1024 // 8) for _ in range(512)]
    keep = bufs.pop()
    del bufs
    before = _rss()
    gc.collect()
    assert before - _rss() > 32 * MIB
    assert keep.sum() == keep.size


@pytest.mark.skipif(dualformer._malloc_trim is None, reason="needs glibc's malloc_trim")
def test_only_full_collections_trim(monkeypatch):
    calls = []
    monkeypatch.setattr(dualformer, "_malloc_trim", calls.append)
    gc.collect(0)
    gc.collect(1)
    assert calls == []
    gc.collect()
    assert calls == [0]


@pytest.mark.skipif(not dualformer._heap_pinned, reason="needs glibc's mallopt")
def test_freed_large_buffer_is_reused_without_page_faults():
    # under glibc's default thresholds an 8 MiB block is mapped on its own and
    # unmapped when freed, so filling the next one takes about 500 faults
    gc.disable()  # a full collection would trim the freed block back to the OS
    try:
        np.ones(8 * MIB // 8)  # touched, then freed
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        buf = np.ones(8 * MIB // 8)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    finally:
        gc.enable()
    assert faults < 16
    assert buf.sum() == buf.size
