"""Loss, optimizer, and the toy training loop."""
import re

import numpy as np
import pytest

from dualformer import precision, train
from dualformer.data import make_shapes
from dualformer.model import build_model, forward, get_preset, named_parameters
from dualformer.tensor import ShapeError, Tensor, graph_records
from dualformer.train import (
    AdamW,
    TrainingDiverged,
    clip_gradients,
    cross_entropy,
    evaluate,
    train_toy,
)


@pytest.fixture(autouse=True)
def _f64():
    with precision.precision("f64"):
        yield


def np_cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


def test_cross_entropy_matches_log_softmax_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b, k = rng.integers(1, 9), rng.integers(2, 7)
        logits = rng.normal(size=(b, k)) * rng.uniform(0.1, 30)
        labels = rng.integers(0, k, size=b)
        got = cross_entropy(Tensor(logits, requires_grad=True), labels).data
        assert np.allclose(got, np_cross_entropy(logits, labels), atol=1e-10)


@pytest.mark.parametrize("labels", [[0, -1], [0, 4], [0.0, 1.0]], ids=["neg", "K", "float"])
def test_cross_entropy_rejects_bad_labels(labels):
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 4))), np.array(labels))


def test_cross_entropy_extreme_logits_finite():
    logits = Tensor(np.array([[1e4, -1e4, 0.0, 3.0]]))
    loss = cross_entropy(logits, np.array([0]))
    assert np.isfinite(loss.data)
    assert loss.data < 1e-6  # the right class dominates


def np_cross_entropy_grad(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)


@pytest.mark.parametrize("scale", [0.1, 3.0, 1e4])
def test_cross_entropy_and_gradient_match_numpy_oracle(scale):
    r = np.random.default_rng(int(scale * 10))
    for _ in range(20):
        b, k = r.integers(1, 9), r.integers(2, 7)
        logits = scale * r.normal(size=(b, k))
        if scale == 1e4:  # saturated rows: +-1e4 exactly, as in a diverging run
            logits = np.where(r.random((b, k)) < 0.5, -1e4, 1e4) + r.normal(size=(b, k))
        labels = r.integers(0, k, size=b)
        t = Tensor(logits, requires_grad=True)
        loss = cross_entropy(t, labels)
        assert graph_records(loss) == [("cross_entropy", (id(t),), id(loss))]
        want = np_cross_entropy(logits, labels)
        assert abs(loss.item() - want) <= 1e-12 * max(1.0, abs(want))
        (loss * 2.5).backward()  # an upstream gradient other than 1
        assert np.abs(t.grad - 2.5 * np_cross_entropy_grad(logits, labels)).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_cross_entropy_rejects_non_finite_logits(bad):
    # -inf on the label's own logit makes the loss +inf
    logits = np.zeros((2, 3))
    logits[1, 2] = bad
    with pytest.raises(FloatingPointError):
        cross_entropy(Tensor(logits), np.array([0, 2]))


def test_cross_entropy_rejects_labels_of_the_wrong_length():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 1, 2]))


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(
        np.array([[1.0, 2.0, 0.5, -1.0], [0.0, 0.0, 0.0, 0.0]]), requires_grad=True
    )
    labels = np.array([1, 3])
    cross_entropy(logits, labels).backward()
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(2), labels] -= 1.0
    assert np.allclose(logits.grad, p / 2.0, atol=1e-12)


def test_adamw_first_step_closed_form():
    p = Tensor(np.full((2, 2), 2.0), requires_grad=True)
    p.grad = np.full((2, 2), 0.5)
    opt = AdamW([("w", p)], lr=0.1, weight_decay=0.05)
    opt.step()
    # fresh moments with bias correction reduce to g / (|g| + eps)
    want = 2.0 - 0.1 * (0.5 / (0.5 + 1e-8) + 0.05 * 2.0)
    assert np.allclose(p.data, want, atol=1e-12)


def test_adamw_skips_decay_on_vectors():
    vec = Tensor(np.full((3,), 2.0), requires_grad=True)
    vec.grad = np.full((3,), 0.5)
    opt = AdamW([("b", vec)], lr=0.1, weight_decay=0.5)
    opt.step()
    assert np.allclose(vec.data, 2.0 - 0.1 * 0.5 / (0.5 + 1e-8), atol=1e-12)


def test_adamw_decays_every_tensor_but_the_biases_and_norm_affines():
    # decay goes by rank, so each bias, gamma and beta must stay a vector
    model = build_model(get_preset("Micro"), seed=0)
    params = named_parameters(model)
    r = np.random.default_rng(0)
    for _, p in params:
        p.data += r.standard_normal(p.shape)  # the zero terminals too
        p.grad = np.zeros_like(p.data)
    before = {n: p.data.copy() for n, p in params}
    AdamW(params, lr=0.1, weight_decay=0.5).step()
    vector = re.compile(r"(.+_)?(b\d?|gamma|beta)")
    kept = [n for n, _ in params if vector.fullmatch(n.rsplit(".", 1)[-1])]
    assert any(n.endswith("imp_b2") for n in kept)
    for n, p in params:
        if n in kept:
            assert np.array_equal(p.data, before[n]), n
        else:
            assert (np.abs(p.data) < np.abs(before[n])).all(), n


def test_adamw_sign_descent_drives_param_down():
    # each step moves about lr while far from the minimum
    p = Tensor(np.array([[10.0]]), requires_grad=True)
    opt = AdamW([("w", p)], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        p.grad = np.array([[2.0 * p.data[0, 0]]])  # d/dp p^2
        opt.step()
    assert abs(p.data[0, 0]) < 1.0


def test_adamw_zero_grad_and_skip_none():
    p = Tensor(np.ones((2,)), requires_grad=True)
    opt = AdamW([("b", p)], lr=0.1)
    opt.step()  # no grad: untouched
    assert np.array_equal(p.data, np.ones(2))
    p.grad = np.ones(2)
    opt.zero_grad()
    assert p.grad is None


def test_clip_rescales_to_max_norm():
    a = Tensor(np.zeros((2,)), requires_grad=True)
    b = Tensor(np.zeros((2,)), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    total = clip_gradients([("a", a), ("b", b)], max_norm=1.0)
    assert total == pytest.approx(5.0)
    norm = np.sqrt((a.grad**2).sum() + (b.grad**2).sum())
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros((2,)), requires_grad=True)
    a.grad = np.array([0.3, 0.4])
    clip_gradients([("a", a)], max_norm=1.0)
    assert np.allclose(a.grad, [0.3, 0.4])


def test_clip_rejects_nonfinite():
    a = Tensor(np.zeros((1,)), requires_grad=True)
    a.grad = np.array([np.nan])
    with pytest.raises(TrainingDiverged):
        clip_gradients([("a", a)], max_norm=1.0)


def test_toy_training_reduces_loss_and_reports():
    images, labels = make_shapes(64, seed=0)
    model = build_model(get_preset("Micro"), seed=0)
    report = train_toy(model, images, labels, epochs=4, batch_size=16, seed=0)
    assert len(report.epochs) == 4
    assert report.epochs[-1]["train_loss"] < report.epochs[0]["train_loss"]
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 1 and len(first) == 4
    assert report.final_val_acc == report.epochs[-1]["val_acc"]
    assert report.final_val_loss == report.epochs[-1]["val_loss"]


def test_report_with_no_epoch_reads_zero():
    report = train.TrainReport()
    assert report.final_val_acc == report.final_val_loss == 0.0


def test_toy_training_deterministic():
    images, labels = make_shapes(32, seed=1)
    reports = []
    for _ in range(2):
        model = build_model(get_preset("Micro"), seed=3)
        reports.append(train_toy(model, images, labels, epochs=2, batch_size=16, seed=5))
    assert reports[0].to_csv() == reports[1].to_csv()


def test_evaluate_matches_forward():
    images, labels = make_shapes(16, seed=2)
    model = build_model(get_preset("Micro"), seed=0)
    loss, acc = evaluate(model, images, labels, batch_size=8)
    logits = forward(model, images).data
    assert loss == pytest.approx(np_cross_entropy(logits, labels), abs=1e-6)
    assert acc == pytest.approx(np.mean(np.argmax(logits, axis=1) == labels))


def test_evaluate_records_no_graph(monkeypatch):
    images, labels = make_shapes(8, seed=2)
    model = build_model(get_preset("Micro"), seed=0)
    logits = []

    def spy(*args, **kwargs):
        logits.append(forward(*args, **kwargs))
        return logits[-1]

    monkeypatch.setattr(train, "forward", spy)
    evaluate(model, images, labels, batch_size=4)
    assert len(logits) == 2
    for out in logits:
        assert not out.requires_grad
        assert graph_records(out) == []


def test_evaluate_restores_graph_recording_after_an_error():
    model = build_model(get_preset("Micro"), seed=0)
    with pytest.raises(ShapeError):
        evaluate(model, np.zeros((2, 3, 30, 30)), np.zeros(2, dtype=np.int64))
    out = forward(model, make_shapes(8, seed=0)[0][:1])
    assert out.requires_grad
    assert graph_records(out)


def test_divergence_aborts():
    images, labels = make_shapes(16, seed=3)
    model = build_model(get_preset("Micro"), seed=0)
    # x1e100 overflows batch norm's variance in the first forward
    for _, p in named_parameters(model):
        p.data *= 1e100
    with pytest.raises(TrainingDiverged) as caught:
        train_toy(model, images, labels, epochs=1, batch_size=8)
    assert isinstance(caught.value.__cause__, FloatingPointError)


def test_finite_loss_blowup_aborts():
    # x1e30 keeps every value finite: the first batch's loss is about 2.4e59
    # against 1.39 for a uniform guess over 4 classes, and without a bound
    # an epoch trains through to a loss of about 2.7e143
    images, labels = make_shapes(16, seed=3)
    model = build_model(get_preset("Micro"), seed=0)
    for _, p in named_parameters(model):
        p.data *= 1e30
    with pytest.raises(TrainingDiverged, match="epoch 1") as caught:
        train_toy(model, images, labels, epochs=1, batch_size=8)
    assert caught.value.__cause__ is None
