"""Frequency profiles of feature maps and partition visualization."""
from __future__ import annotations

import os

import numpy as np

from .checkpoint import atomic_open
from .mhpa import partition_to_grayscale
from .model import Model, capture_partitions, forward_features
from .tensor import Tensor, no_grad

DB_FLOOR = -240.0
HIGH_FREQ_CUTOFF = 0.75  # share of the max radius where the high band starts


def radial_log_amplitude(feature_map, num_bins: int = 64):
    """Radially averaged 2-D spectrum in dB relative to the DC amplitude.

    Accepts (H, W), (C, H, W) or (B, C, H, W); amplitudes are averaged over
    the leading axes before binning. Returns (radii, db), each num_bins
    long; radii are normalized so 1.0 is the corner of the frequency plane.
    Bins no frequency falls in are NaN; zero amplitudes clip to -240 dB.
    """
    data = feature_map.data if isinstance(feature_map, Tensor) else np.asarray(feature_map)
    if data.ndim == 2:
        data = data[None]
    if data.ndim == 4:
        data = data.reshape(-1, *data.shape[2:])
    if data.ndim != 3:
        raise ValueError(f"expected 2 to 4 dims, got shape {data.shape}")
    if num_bins < 2:
        raise ValueError(f"num_bins must be at least 2, got {num_bins}")
    h, w = data.shape[1], data.shape[2]
    amp = np.abs(np.fft.fft2(data.astype(np.float64))).mean(axis=0)
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    r = np.sqrt(fy * fy + fx * fx)
    rmax = float(r.max())
    if rmax == 0.0:
        raise ValueError(f"map {h}x{w} too small for a spectrum")
    r = r / rmax
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    idx = np.clip(np.digitize(r.ravel(), edges) - 1, 0, num_bins - 1)
    sums = np.bincount(idx, weights=amp.ravel(), minlength=num_bins)
    counts = np.bincount(idx, minlength=num_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    dc = amp[0, 0]
    if dc <= 0:
        dc = 1.0
    ratio = means / dc
    db = np.where(
        np.isnan(ratio),
        np.nan,
        20.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 20.0))),
    )
    radii = 0.5 * (edges[:-1] + edges[1:])
    return radii, db


def high_frequency_mean(radii: np.ndarray, db: np.ndarray) -> float:
    """Mean dB over bins at or beyond HIGH_FREQ_CUTOFF of the max radius."""
    vals = db[radii >= HIGH_FREQ_CUTOFF]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        raise ValueError(f"no populated bins beyond cutoff {HIGH_FREQ_CUTOFF}")
    return float(vals.mean())


def fourier_report(model: Model, images, stage: int, num_bins: int = 64) -> dict:
    """Spectrum of the feature map leaving `stage` (1-based) on a batch."""
    with no_grad():
        feats = forward_features(model, images, stage)
    radii, db = radial_log_amplitude(feats, num_bins)
    return {
        "stage": stage,
        "grid": (feats.shape[2], feats.shape[3]),
        "radii": radii,
        "db": db,
        "high_freq_mean": high_frequency_mean(radii, db),
    }


def spectrum_to_csv(radii: np.ndarray, db: np.ndarray) -> str:
    lines = ["radius,db"]
    for r, v in zip(radii, db):
        lines.append(f"{r:.6f},{'nan' if np.isnan(v) else format(v, '.6f')}")
    return "\n".join(lines) + "\n"


def write_pgm(path: str, gray: np.ndarray) -> None:
    """Binary 8-bit PGM (P5)."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 array, got {gray.dtype} {gray.shape}")
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def dump_partitions(model: Model, images, out_dir: str, sample: int = 0) -> list[str]:
    """Write one PGM per head of every hash site showing bucket ids for one input.

    Returns the written paths. File names carry stage, block and head so a
    directory listing reads as the traversal order.
    """
    batch = images.shape[0]
    if not 0 <= sample < batch:
        raise ValueError(f"sample {sample} outside the batch of {batch}")
    trace = capture_partitions(model, images)
    if not trace:
        raise ValueError(f"model mode {model.config.mode!r} has no hash sites to draw")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for entry in trace:
        for head, assign in enumerate(entry["assignment"][sample]):
            gray = partition_to_grayscale(assign, entry["num_clusters"], entry["shape"])
            name = f"stage{entry['stage']}_block{entry['block']}_h{head}.pgm"
            path = os.path.join(out_dir, name)
            write_pgm(path, gray)
            paths.append(path)
    return paths
