"""Spectrum analysis and image export."""
import numpy as np
import pytest

from dualformer import analysis
from dualformer.analysis import (
    DB_FLOOR,
    dump_partitions,
    fourier_report,
    high_frequency_mean,
    radial_log_amplitude,
    spectrum_to_csv,
    write_pgm,
)
from dualformer.model import build_model, forward_features, get_preset
from dualformer.tensor import graph_records


def np_radial_oracle(img, num_bins):
    """Scalar-loop rebin of a single map."""
    h, w = img.shape
    amp = np.abs(np.fft.fft2(img.astype(np.float64)))
    fy, fx = np.fft.fftfreq(h), np.fft.fftfreq(w)
    rmax = np.sqrt(fy.min() ** 2 + fx.min() ** 2)
    sums, counts = np.zeros(num_bins), np.zeros(num_bins)
    for i in range(h):
        for j in range(w):
            r = np.sqrt(fy[i] ** 2 + fx[j] ** 2) / rmax
            b = min(int(r * num_bins), num_bins - 1)
            sums[b] += amp[i, j]
            counts[b] += 1
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    ratio = means / amp[0, 0]
    floor = 10.0 ** (DB_FLOOR / 20.0)
    return np.where(np.isnan(ratio), np.nan, 20 * np.log10(np.maximum(ratio, floor)))


def test_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        img = rng.normal(size=(16, 16)) + 2.0
        radii, db = radial_log_amplitude(img, num_bins=8)
        want = np_radial_oracle(img, 8)
        both = ~(np.isnan(db) | np.isnan(want))
        assert both.sum() >= 6
        assert np.allclose(db[both], want[both], atol=1e-9)
        assert radii.shape == (8,)


def test_constant_map_all_energy_at_dc():
    radii, db = radial_log_amplitude(np.full((32, 32), 3.0), num_bins=16)
    # bin 0 averages DC with a few zero neighbors, so near 0 but not exact
    assert db[0] > -20.0
    rest = db[1:][~np.isnan(db[1:])]
    assert (rest <= DB_FLOOR + 1e-9).all()


def test_white_noise_spectrum_is_flat():
    rng = np.random.default_rng(1)
    maps = rng.normal(size=(64, 64, 64))  # average over many draws
    radii, db = radial_log_amplitude(maps, num_bins=8)
    body = db[1:-1]
    body = body[~np.isnan(body)]
    assert body.max() - body.min() < 3.0


def test_low_pass_map_loses_high_frequencies():
    rng = np.random.default_rng(2)
    noise = rng.normal(size=(32, 32))
    k = np.ones((5, 5)) / 25.0
    smooth = np.real(
        np.fft.ifft2(np.fft.fft2(noise) * np.fft.fft2(k, s=(32, 32)))
    )
    r_n, db_n = radial_log_amplitude(noise, num_bins=16)
    r_s, db_s = radial_log_amplitude(smooth, num_bins=16)
    assert high_frequency_mean(r_s, db_s) < high_frequency_mean(r_n, db_n) - 6.0


def test_high_frequency_mean_window():
    radii = np.array([0.2, 0.5, 0.8, 0.9])
    db = np.array([0.0, -3.0, -10.0, np.nan])
    assert high_frequency_mean(radii, db) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        high_frequency_mean(radii, np.full(4, np.nan))


def test_batched_input_shapes():
    rng = np.random.default_rng(3)
    r1, _ = radial_log_amplitude(rng.normal(size=(2, 3, 16, 16)))
    assert r1.shape == (64,)
    with pytest.raises(ValueError):
        radial_log_amplitude(rng.normal(size=(5,)))
    with pytest.raises(ValueError):
        radial_log_amplitude(np.ones((1, 1)))


def test_fourier_report_on_model():
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(4).normal(size=(2, 3, 64, 64)).astype(np.float32)
    rep = fourier_report(model, x, stage=3, num_bins=4)
    assert rep["grid"] == (4, 4)
    assert rep["stage"] == 3
    assert np.isfinite(rep["high_freq_mean"])


def test_fourier_report_records_no_graph(monkeypatch):
    maps = []

    def spy(*args, **kwargs):
        maps.append(forward_features(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(analysis, "forward_features", spy)
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(4).normal(size=(1, 3, 64, 64)).astype(np.float32)
    fourier_report(model, x, stage=2, num_bins=4)
    assert len(maps) == 1
    assert not maps[0].requires_grad
    assert graph_records(maps[0]) == []


def test_spectrum_csv_format():
    csv = spectrum_to_csv(np.array([0.25, 0.75]), np.array([-1.5, np.nan]))
    assert csv == "radius,db\n0.250000,-1.500000\n0.750000,nan\n"


def test_pgm_layout(tmp_path):
    gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = str(tmp_path / "x.pgm")
    write_pgm(path, gray)
    raw = open(path, "rb").read()
    assert raw == b"P5\n3 2\n255\n" + bytes(range(6))
    with pytest.raises(ValueError):
        write_pgm(path, gray.astype(np.float32))
    with pytest.raises(ValueError):
        write_pgm(path, gray.ravel())


def test_pgm_write_that_fails_partway_leaves_the_old_file(tmp_path):
    class FailingPayload(np.ndarray):
        def tobytes(self, *args, **kwargs):
            raise OSError("disk full")

    path = tmp_path / "x.pgm"
    path.write_bytes(b"old")
    with pytest.raises(OSError):  # after the header is written
        write_pgm(str(path), np.zeros((2, 3), np.uint8).view(FailingPayload))
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.pgm"]


def test_dump_partitions_files(tmp_path):
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32)
    paths = dump_partitions(model, x, str(tmp_path), sample=1)
    assert len(paths) == sum(get_preset("Micro").heads)
    for p in paths:
        raw = open(p, "rb").read()
        assert raw.startswith(b"P5\n")
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert names[0].startswith("stage1_block1_")
