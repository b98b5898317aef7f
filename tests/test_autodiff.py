"""Tests for the gradient tape, primitives, and update rules.

Expected values come from hand-derived arithmetic (sliding-window sums,
polynomial derivatives, the expanded two-step Adam recursion) or from
test-local oracles (naive convolution loops, central finite differences,
a two-backward reconstruction of the adversarial update). The code under
test never supplies its own expected values.
"""

import ctypes
import inspect
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import norm

from sinmt import autodiff as ad


def numeric_grad(make_loss, tensor, eps=1e-5):
    """Central-difference gradient of make_loss() w.r.t. one tensor.

    make_loss must be a deterministic function of tensor.data evaluated
    with no tape active (pure forward).
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = make_loss().item()
        flat[i] = orig - eps
        f_minus = make_loss().item()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def conv1d_oracle(x, w, stride):
    """Naive triple-loop strided cross-correlation."""
    B, C, L = x.shape
    O, _, K = w.shape
    T = (L - K) // stride + 1
    out = np.zeros((B, O, T))
    for b in range(B):
        for o in range(O):
            for t in range(T):
                s = t * stride
                out[b, o, t] = np.sum(x[b, :, s:s + K] * w[o])
    return out


def analytic_grads(make_loss, tensors):
    """Tape gradients for a list of tensors."""
    with ad.Tape() as tape:
        loss = make_loss()
    tape.backward(loss)
    return [tape.grad(t) for t in tensors]


def _leaf(r, *shape):
    return ad.Tensor(r.normal(size=shape), requires_grad=True)


# primitive name -> [(case label, build)]; build(rng) returns the op under
# test and its inputs, all of which require gradients.
PRIMITIVE_CASES = {
    "add": [("add_broadcast", lambda r: (
        ad.add, [_leaf(r, 3, 4), _leaf(r, 4)]))],
    "mul": [("mul_broadcast", lambda r: (
        ad.mul, [_leaf(r, 3, 4), _leaf(r, 3, 1)]))],
    "scale": [("scale", lambda r: (
        lambda a: ad.scale(a, -2.7), [_leaf(r, 5)]))],
    "matmul": [
        ("matmul", lambda r: (ad.matmul, [_leaf(r, 3, 4), _leaf(r, 4, 5)])),
        ("matmul_batched", lambda r: (
            ad.matmul, [_leaf(r, 2, 3, 4), _leaf(r, 4, 5)])),
    ],
    "conv1d": [("conv1d_stride3", lambda r: (
        lambda a, b: ad.conv1d(a, b, stride=3),
        [_leaf(r, 2, 3, 20), _leaf(r, 4, 3, 5)]))],
    "gelu": [("gelu", lambda r: (ad.gelu, [_leaf(r, 4, 6)]))],
    "softmax": [
        ("softmax_last", lambda r: (
            lambda a: ad.softmax(a, axis=-1), [_leaf(r, 3, 7)])),
        ("softmax_axis0", lambda r: (
            lambda a: ad.softmax(a, axis=0), [_leaf(r, 3, 7)])),
    ],
    "attention": [("attention", lambda r: (
        ad.attention, [_leaf(r, 2, 2, 5, 3) for _ in range(3)]))],
    "log_softmax": [("log_softmax", lambda r: (
        lambda a: ad.log_softmax(a, axis=-1), [_leaf(r, 3, 7)]))],
    "layer_norm": [("layer_norm", lambda r: (
        ad.layer_norm,
        [_leaf(r, 4, 6),
         ad.Tensor(r.uniform(0.5, 1.5, size=6), requires_grad=True),
         _leaf(r, 6)]))],
    "layer_mix": [("layer_mix", lambda r: (
        ad.layer_mix, [_leaf(r, 3, 2, 4, 5), _leaf(r, 3)]))],
    "reduce_sum": [("sum_axis_keepdims", lambda r: (
        lambda a: ad.reduce_sum(a, axis=1, keepdims=True),
        [_leaf(r, 3, 4, 2)]))],
    "concat": [("concat_axis1", lambda r: (
        lambda a, b: ad.concat([a, b], axis=1),
        [_leaf(r, 2, 3), _leaf(r, 2, 5)]))],
    "reshape": [("reshape", lambda r: (
        lambda a: ad.reshape(a, (6, 2)), [_leaf(r, 3, 4)]))],
    "transpose": [("transpose", lambda r: (
        lambda a: ad.transpose(a, (2, 0, 1)), [_leaf(r, 2, 3, 4)]))],
    "gradient_reversal": [("grl_positive", lambda r: (
        lambda a: ad.gradient_reversal(a, 0.7), [_leaf(r, 3, 4)]))],
}


class TestForwardPrimitives:
    def test_softmax_uniform_on_equal_scores(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    def test_softmax_rows_normalized_and_nonnegative(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = ad.Tensor(rng.normal(0, 50, size=(4, 9)))
            out = ad.softmax(x, axis=-1).data
            assert np.all(out >= 0.0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_stable_under_large_shift(self):
        x = np.array([1.0, 2.0, 3.0])
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 1e4)).data
        assert np.all(np.isfinite(b))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gelu_matches_gaussian_cdf_definition(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=64)
        out = ad.gelu(ad.Tensor(x)).data
        np.testing.assert_allclose(out, x * norm.cdf(x), rtol=1e-12, atol=1e-15)

    def test_conv1d_hand_window_sums(self):
        out = ad.conv1d(ad.Tensor([[[1.0, 2.0, 3.0, 4.0]]]),
                        ad.Tensor([[[1.0, 1.0]]]), stride=2)
        np.testing.assert_array_equal(out.data, [[[3.0, 7.0]]])

    def test_conv1d_matches_naive_loop(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            stride = int(rng.integers(1, 4))
            x = rng.normal(size=(2, 3, 23))
            w = rng.normal(size=(4, 3, 5))
            out = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride=stride)
            np.testing.assert_allclose(out.data, conv1d_oracle(x, w, stride),
                                       rtol=1e-12, atol=1e-14)

    def test_conv1d_output_length(self):
        x = ad.Tensor(np.zeros((1, 1, 17)))
        w = ad.Tensor(np.zeros((1, 1, 4)))
        assert ad.conv1d(x, w, stride=3).shape == (1, 1, 5)

    def test_layer_norm_standardizes_last_axis(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(5.0, 3.0, size=(6, 16)))
        gain = ad.Tensor(np.ones(16))
        bias = ad.Tensor(np.zeros(16))
        out = ad.layer_norm(x, gain, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_shape_errors_name_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.add(a, b)
        with pytest.raises(ValueError, match="conform"):
            ad.matmul(a, b)
        with pytest.raises(ValueError, match="channel"):
            ad.conv1d(ad.Tensor(np.zeros((1, 2, 9))),
                      ad.Tensor(np.zeros((1, 3, 4))))
        with pytest.raises(ValueError, match=r"\(3, 2, 4\).*\(2,\)"):
            ad.layer_mix(ad.Tensor(np.zeros((3, 2, 4))),
                         ad.Tensor(np.zeros(2)))

    def test_forward_is_finite_on_finite_inputs(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(0, 10, size=(3, 8)))
        for out in (ad.softmax(x), ad.log_softmax(x), ad.gelu(x),
                    ad.scale(x, -3.0)):
            assert np.all(np.isfinite(out.data))


def unfused_attention(q, k, v):
    """softmax(q kᵀ / √d) v from the separate primitives."""
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                      1.0 / np.sqrt(q.shape[-1]))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def head_split_attention(batch, record, op=ad.attention):
    """``op`` on head-split views of seeded (batch, 250, 4, 8) leaves,
    as in the encoder: the output and, when ``record``, each leaf's
    gradient and its strides."""
    rng = np.random.default_rng(batch)
    leaves = [ad.Tensor(rng.normal(size=(batch, 250, 4, 8)),
                        requires_grad=record) for _ in range(3)]
    proj = ad.Tensor(rng.normal(size=(batch, 250, 4, 8)))
    if not record:
        q, k, v = (ad.transpose(t, (0, 2, 1, 3)) for t in leaves)
        return [op(q, k, v).data]
    with ad.Tape() as tape:
        q, k, v = (ad.transpose(t, (0, 2, 1, 3)) for t in leaves)
        out = op(q, k, v)
        loss = ad.reduce_sum(ad.mul(ad.transpose(out, (0, 2, 1, 3)), proj))
    tape.backward(loss)
    grads = [tape.grad(t) for t in leaves]
    return [out.data] + grads + [np.array(g.strides) for g in grads]


class TestAttention:
    @pytest.mark.parametrize("batch", [1, 11])
    def test_bit_identical_to_unfused_chain(self, batch):
        """The batch runs one utterance at a time, with the utterances
        shared out over the usable CPUs (TestWorkerCount pins the share
        count). Inputs and the upstream gradient are head-split views,
        as in the encoder, and k's gradient must keep the unfused
        chain's memory layout, because a broadcast sum over it adds in
        that order. Each leaf's gradient is a transposed view of its
        head-split tensor's, so comparing the leaves' strides compares
        those layouts."""
        fused = head_split_attention(batch, True)
        chain = head_split_attention(batch, True, unfused_attention)
        for name, a, b in zip(["out", *"qkv", "q strides", "k strides",
                               "v strides"], fused, chain):
            assert np.array_equal(a, b), name

    def test_forward_without_tape_matches(self):
        rng = np.random.default_rng(5)
        q, k, v = (ad.Tensor(rng.normal(size=(11, 4, 250, 8)))
                   for _ in range(3))
        assert np.array_equal(ad.attention(q, k, v).data,
                              unfused_attention(q, k, v).data)

    def test_a_recorded_node_keeps_no_probabilities(self):
        """Backward rebuilds the probabilities from each row's max and
        sum, so between forward and backward the node holds those
        (64 kB here) and its output, not the (4, 4, 250, 250)
        probabilities' 8 MB."""
        rng = np.random.default_rng(8)
        q, k, v = (ad.Tensor(rng.normal(size=(4, 4, 250, 8)),
                             requires_grad=True) for _ in range(3))
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = ad.attention(q, k, v)
                kept = (tracemalloc.get_traced_memory()[0] - before
                        - out.data.nbytes)
                loss = ad.reduce_sum(out)
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2**20
        tape.backward(loss)
        assert tape.grad(q).shape == q.shape

    def test_shape_mismatch_names_all_shapes(self):
        a = ad.Tensor(np.zeros((1, 2, 5, 3)))
        b = ad.Tensor(np.zeros((1, 2, 4, 3)))
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 3\)"):
            ad.attention(a, b, a)


def taped_gelu(x):
    """gelu's output and its gradient under a seeded projection."""
    leaf = ad.Tensor(x, requires_grad=True)
    proj = ad.Tensor(np.random.default_rng(x.size).normal(size=x.shape))
    with ad.Tape() as tape:
        out = ad.gelu(leaf)
        loss = ad.reduce_sum(ad.mul(out, proj))
    tape.backward(loss)
    return [out.data, tape.grad(leaf)]


def taped_op(op, arrays, wants_grad):
    """``op`` on tensors of ``arrays`` under a tape, the loss a seeded
    projection of its output: the output, then the gradient of each
    input whose ``wants_grad`` flag is set, then those gradients'
    strides."""
    leaves = [ad.Tensor(a, requires_grad=w)
              for a, w in zip(arrays, wants_grad)]
    with ad.Tape() as tape:
        out = op(*leaves)
        proj = np.random.default_rng(out.size).normal(size=out.shape)
        loss = ad.reduce_sum(ad.mul(out, ad.Tensor(proj)))
    tape.backward(loss)
    grads = [tape.grad(t) for t, w in zip(leaves, wants_grad) if w]
    return [out.data] + grads + [np.array(g.strides) for g in grads]


def assert_all_equal(results):
    """Every run's arrays are bit-equal to the first run's."""
    one, *more = results
    for other in more:
        assert len(other) == len(one)
        for a, b in zip(one, other):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


class TestWorkerCount:
    """Ops on frame tensors split their batch into one share per usable
    CPU; each share does the same float operations, so nothing may
    depend on the share count (``across_counts`` runs 1, 2 and 3)."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("batch", [1, 11])
    def test_attention_bit_identical_across_counts(self, across_counts,
                                                   batch, record):
        one, *more = across_counts(
            lambda: head_split_attention(batch, record))
        assert len(one) == (7 if record else 1)
        for other in more:
            for a, b in zip(one, other):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(11, 16, 40), (1003,), ()])
    def test_gelu_bit_identical_across_counts(self, across_counts, shape):
        x = np.random.default_rng(3).normal(0, 2, size=shape)
        one, *more = across_counts(lambda: taped_gelu(x))
        for other in more:
            for a, b in zip(one, other):
                assert a.shape == shape
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_gelu_backward_bit_identical_across_counts(self, across_counts,
                                                       transposed):
        """The backward product is split when the upstream gradient is
        C-contiguous and computed whole when it is not (here it comes
        through a transpose); both equal g · (Φ(x) + x·φ(x)) as numpy
        computes it whole."""
        x = np.random.default_rng(4).normal(0, 2, size=(11, 16, 40))

        def op(t):
            out = ad.gelu(t)
            return ad.transpose(out, (0, 2, 1)) if transposed else out

        results = across_counts(lambda: taped_op(op, [x], [True]))
        assert_all_equal(results)
        out, grad, _ = results[0]
        g = np.random.default_rng(out.size).normal(size=out.shape)
        if transposed:
            g = g.transpose(0, 2, 1)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        deriv = np.exp(-0.5 * x * x)
        deriv *= 1.0 / np.sqrt(2.0 * np.pi)
        deriv *= x
        deriv += cdf
        assert np.array_equal(grad, g * deriv)

    @pytest.mark.parametrize("signal_grad", [True, False])
    @pytest.mark.parametrize("batch", [1, 11])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_conv1d_bit_identical_across_counts(self, across_counts, stride,
                                                batch, signal_grad):
        rng = np.random.default_rng(stride)
        x = rng.normal(size=(batch, 3, 61))
        w = rng.normal(size=(5, 3, 7))
        results = across_counts(lambda: taped_op(
            lambda s, k: ad.conv1d(s, k, stride), [x, w],
            [signal_grad, True]))
        assert len(results[0]) == (5 if signal_grad else 3)
        assert_all_equal(results)

    @pytest.mark.parametrize("shape", [(11, 25 * 8), (11, 25, 8), (1, 25, 8)])
    def test_layer_norm_bit_identical_across_counts(self, across_counts,
                                                    shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(1.0, 3.0, size=shape)
        gain, bias = rng.normal(size=(2, shape[-1]))
        results = across_counts(lambda: taped_op(
            ad.layer_norm, [x, gain, bias], [True, True, True]))
        assert_all_equal(results)

    @pytest.mark.parametrize("batch", [1, 11])
    def test_matmul_bit_identical_across_counts(self, across_counts, batch):
        rng = np.random.default_rng(batch)
        a = rng.normal(size=(batch, 25, 8))
        b = rng.normal(size=(8, 6))
        results = across_counts(
            lambda: taped_op(ad.matmul, [a, b], [True, True]))
        assert_all_equal(results)

    @pytest.mark.parametrize("batch", [1, 11])
    def test_layer_mix_bit_identical_across_counts(self, across_counts,
                                                   batch):
        """At every count, output and gradients equal the mul →
        reduce_sum chain's, bits and strides; a sum of -0.0 terms is
        +0.0, as numpy's axis-0 sum gives it."""
        rng = np.random.default_rng(batch)
        stack = rng.normal(size=(3, batch, 25, 8))
        stack[:, 0, 0] = -0.0
        weights = rng.dirichlet(np.ones(3))

        def chain(s, w):
            return ad.reduce_sum(ad.mul(s, ad.reshape(w, (3, 1, 1, 1))),
                                 axis=0)

        results = across_counts(lambda: taped_op(
            ad.layer_mix, [stack, weights], [True, True]))
        want = taped_op(chain, [stack, weights], [True, True])
        assert_all_equal(results + [want])
        assert not np.signbit(results[0][0][0, 0]).any()

    def test_gradients_reaching_a_node_twice_add_in_shares(
            self, across_counts):
        """Two consumers' gradients of one tensor are summed as numpy's
        whole add sums them, at every count."""
        x = np.random.default_rng(9).normal(size=(11, 5, 8))
        results = across_counts(lambda: taped_op(
            lambda t: ad.add(ad.gelu(t), ad.scale(t, 0.3)), [x], [True]))
        assert_all_equal(results)

    @pytest.mark.parametrize("frames_first", [True, False])
    @pytest.mark.parametrize("other", [(8,), (1, 5, 1), (11, 5, 8), ()])
    def test_add_bit_identical_across_counts(self, across_counts, other,
                                             frames_first):
        rng = np.random.default_rng(len(other))
        arrays = [rng.normal(size=(11, 5, 8)), rng.normal(size=other)]
        if not frames_first:
            arrays.reverse()
        results = across_counts(
            lambda: taped_op(ad.add, arrays, [True, True]))
        assert_all_equal(results)
        assert np.array_equal(results[0][0], arrays[0] + arrays[1])

    def test_a_strided_operand_keeps_numpys_layout(self, across_counts):
        """An op whose per-item operand is not C-contiguous runs whole,
        so its result has the layout numpy gives it at every count."""
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(11, 8, 5)).transpose(0, 2, 1)
        bias, gain = rng.normal(size=(2, 8))
        for op, arrays, want in [
                (ad.add, [frames, bias], frames + bias),
                (ad.gelu, [frames],
                 frames * (0.5 * (1.0 + erf(frames * (1.0 / np.sqrt(2.0)))))),
                (lambda x, g: ad.layer_norm(x, g, ad.Tensor(bias)),
                 [frames, gain], None)]:
            results = across_counts(
                lambda: taped_op(op, arrays, [True] * len(arrays)))
            assert_all_equal(results)
            for out, *_ in results:
                assert out.strides == frames.strides
            if want is not None:
                assert np.array_equal(results[0][0], want)

    def test_shares_cover_the_batch_once(self, monkeypatch):
        monkeypatch.setattr(ad, "_worker_count", lambda: 3)
        ran = []

        def work(lo, hi):
            ran.append((lo, hi, threading.get_ident()))

        ad._in_shares(11, work)
        assert sorted(r[:2] for r in ran) == [(0, 3), (3, 7), (7, 11)]
        caller = threading.get_ident()
        assert [r[2] == caller for r in sorted(ran)] == [True, False, False]
        ran.clear()
        ad._in_shares(2, work)  # at most one share per item
        assert sorted(r[:2] for r in ran) == [(0, 1), (1, 2)]

    def test_a_share_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ad, "_worker_count", lambda: 3)
        done = []

        def work(lo, hi):
            if lo == 3:
                raise ArithmeticError(f"share {lo}:{hi}")
            done.append(lo)

        with pytest.raises(ArithmeticError, match="share 3:7"):
            ad._in_shares(11, work)
        assert sorted(done) == [0, 7]  # the other shares ran to the end

    def test_small_ops_stay_in_the_caller(self, monkeypatch):
        """Below ``_SPLIT_MIN_SIZE`` output elements nothing is handed
        to a worker, and the result is the whole-array computation."""
        monkeypatch.setattr(ad, "_worker_count", lambda: 3)

        def no_split(n, work):
            raise AssertionError("split a small op")

        monkeypatch.setattr(ad, "_in_shares", no_split)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 8, 40))
        w = rng.normal(size=(40, 6))
        for op, arrays, want in [
                (ad.add, [x, w[:, 0]], x + w[:, 0]),
                (ad.matmul, [x, w], np.matmul(x, w)),
                (lambda t: ad.layer_norm(t, ad.Tensor(np.ones(40)),
                                         ad.Tensor(np.zeros(40))), [x],
                 (x - x.mean(-1, keepdims=True))
                 * (1.0 / np.sqrt(x.var(-1, keepdims=True) + 1e-5))),
                (ad.gelu, [x],
                 x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))))]:
            out = taped_op(op, arrays, [True] * len(arrays))[0]
            assert np.array_equal(out, want)

    def test_workers_are_reused_across_calls(self, monkeypatch):
        monkeypatch.setattr(ad, "_worker_count", lambda: 3)
        caller = threading.get_ident()

        def workers():
            ran = []
            ad._in_shares(11, lambda lo, hi: ran.append(
                (lo, threading.get_ident())))
            return [ident for lo, ident in sorted(ran) if lo]

        first = workers()
        assert len(set(first)) == 2 and caller not in first
        threads = threading.active_count()
        for _ in range(20):
            assert workers() == first
        assert threading.active_count() == threads

    def test_a_caller_share_error_waits_for_the_others(self, monkeypatch):
        monkeypatch.setattr(ad, "_worker_count", lambda: 3)
        done = []

        def work(lo, hi):
            if lo == 0:
                raise ArithmeticError("caller's share")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ArithmeticError, match="caller's share"):
            ad._in_shares(11, work)
        assert sorted(done) == [3, 7]


class TestOneBlasThread:
    """Importing ``sinmt.autodiff`` runs numpy's bundled OpenBLAS on one
    thread, so the shares are the one layer of CPU parallelism."""

    def test_import_sets_numpys_openblas_to_one_thread(self):
        libs = (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")
        getters = [str(p) for p in sorted(libs) if hasattr(
            ctypes.CDLL(str(p)), "scipy_openblas_get_num_threads64_")]
        if not getters:
            pytest.skip("numpy carries no bundled scipy-openblas")
        code = ("import ctypes, sinmt.autodiff; print(ctypes.CDLL("
                f"{getters[0]!r}).scipy_openblas_get_num_threads64_())")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(ad.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "1"

    def test_missing_library_or_setter_does_nothing(self, monkeypatch):
        def missing(path):
            raise OSError(f"{path}: cannot open shared object file")

        for cdll in (missing, lambda path: object()):
            monkeypatch.setattr(ad.ctypes, "CDLL", cdll)
            assert ad._run_blas_on_one_thread() is None


class TestUnreadGradients:
    """A backward function computes no gradient for an input that does
    not require one."""

    @staticmethod
    def backward_of(out, tape):
        """The recorded node's gradients for a ones upstream gradient."""
        return tape._nodes[out.node_id].backward_fn(np.ones(out.shape))

    def test_conv1d_skips_a_constant_signal(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(2, 1, 40)))
        w = ad.Tensor(rng.normal(size=(4, 1, 8)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv1d(x, w, stride=4)
        gx, gw = self.backward_of(out, tape)
        assert gx is None
        assert gw.shape == w.shape

    def test_layer_norm_skips_constant_gain_and_bias(self):
        x = ad.Tensor(np.random.default_rng(1).normal(size=(3, 10)),
                      requires_grad=True)
        with ad.Tape() as tape:
            out = ad.layer_norm(x, ad.Tensor(np.ones(10)),
                                ad.Tensor(np.zeros(10)))
        gx, gg, gb = self.backward_of(out, tape)
        assert gg is None and gb is None
        assert gx.shape == x.shape


class TestBackward:
    def test_square_gradient(self):
        x = ad.Tensor(3.0, requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.mul(x, x)
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), 6.0)

    def test_unused_parameter_gets_zero_gradient(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        unused = ad.Tensor([5.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(unused), [0.0])

    def test_fanout_accumulates(self):
        x = ad.Tensor([1.5, -2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), 2.0 * x.data + 1.0, rtol=1e-14)

    def test_only_leaf_gradients_outlive_backward(self):
        x = ad.Tensor([1.5, -2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            loss = ad.reduce_sum(ad.add(y, x))
        grads = tape.backward(loss)
        assert set(grads) == {x.node_id}
        np.testing.assert_allclose(tape.grad(x), 2.0 * x.data + 1.0,
                                   rtol=1e-14)
        for t in (y, loss):
            with pytest.raises(ValueError, match="only leaves"):
                tape.grad(t)

    @staticmethod
    def capturing_op(t, refs):
        """Record a node whose backward captures a fresh array, and append
        a weak reference to that array to ``refs``."""
        captured = np.full(t.shape, 2.0)
        refs.append(weakref.ref(captured))

        def bwd(g):
            return (g * captured,)

        return ad._emit("capturing", (t,), t.data * captured, bwd)

    def test_backward_frees_each_capture_as_the_sweep_passes(self):
        x = ad.Tensor([1.5, -2.0], requires_grad=True)
        refs, alive_when_a_ran = [], []

        def bwd_a(g):
            alive_when_a_ran.append(refs[0]() is not None)
            return (g,)

        with ad.Tape() as tape:
            a = ad._emit("a", (x,), x.data.copy(), bwd_a)
            loss = ad.reduce_sum(self.capturing_op(a, refs))
        tape.backward(loss)
        # B (the capturing node) was recorded after A, so the sweep ran
        # it first and had dropped its capture before A's bwd ran
        assert alive_when_a_ran == [False]
        np.testing.assert_array_equal(tape.grad(x), [2.0, 2.0])

    def test_backward_frees_the_captures_of_unreached_nodes(self):
        x = ad.Tensor([1.5, -2.0], requires_grad=True)
        refs = []
        with ad.Tape() as tape:
            self.capturing_op(x, refs)  # a dead branch before the loss
            loss = ad.reduce_sum(ad.mul(x, x))
            self.capturing_op(x, refs)  # recorded after the loss
        tape.backward(loss)
        assert [r() for r in refs] == [None, None]
        np.testing.assert_array_equal(tape.grad(x), 2.0 * x.data)

    def test_layer_norm_node_does_not_hold_its_input(self):
        """layer_norm keeps x̂ and 1/σ for backward, so the array it
        normalized is freed when nothing else holds it."""
        leaf = ad.Tensor(np.random.default_rng(2).normal(size=(4, 10)),
                         requires_grad=True)
        with ad.Tape():
            h = ad.scale(leaf, 2.0)
            ref = weakref.ref(h.data)
            ad.layer_norm(h, ad.Tensor(np.ones(10), requires_grad=True),
                          ad.Tensor(np.zeros(10)))
            del h
        assert ref() is None

    def test_conv1d_node_keeps_its_signal_not_its_columns(self):
        """Backward gathers the im2col columns again from the signal, so
        between forward and backward the node holds the signal (already
        allocated here) and its output, not the (8, 499, 64) columns'
        2 MB."""
        rng = np.random.default_rng(9)
        x = ad.Tensor(rng.normal(size=(8, 16, 1000)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(32, 16, 4)), requires_grad=True)
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = ad.conv1d(x, w, stride=2)
                kept = (tracemalloc.get_traced_memory()[0] - before
                        - out.data.nbytes)
                loss = ad.reduce_sum(out)
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        tape.backward(loss)
        assert tape.grad(x).shape == x.shape
        assert tape.grad(w).shape == w.shape

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_empty_tape_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="empty"):
            tape.backward(ad.Tensor(1.0))

    def test_foreign_loss_rejected(self):
        x = ad.Tensor(2.0, requires_grad=True)
        with ad.Tape() as tape:
            ad.mul(x, x)
        loose = ad.Tensor(1.0)
        with pytest.raises(ValueError, match="not recorded"):
            tape.backward(loose)

    def test_no_recording_without_tape(self):
        x = ad.Tensor([1.0], requires_grad=True)
        out = ad.mul(x, x)
        assert out.tape is None
        assert out.requires_grad

    def test_parameter_reused_across_tapes(self):
        p = ad.Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with ad.Tape() as tape:
                loss = ad.reduce_sum(ad.mul(p, p))
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(p), 2.0 * p.data)
            p.data = p.data - 0.1 * tape.grad(p)

    def test_composite_conv_layernorm_crossentropy_fd(self):
        """Named three-stage composite against central differences."""
        rng = np.random.default_rng(42)
        x = ad.Tensor(rng.normal(size=(2, 3, 16)))
        w = ad.Tensor(rng.normal(size=(5, 3, 4)) * 0.5, requires_grad=True)
        gain = ad.Tensor(np.ones(7), requires_grad=True)
        bias = ad.Tensor(np.zeros(7), requires_grad=True)
        labels = np.zeros((2, 5, 7))
        labels[0, :, 2] = 1.0
        labels[1, :, 4] = 1.0

        def make_loss():
            h = ad.conv1d(x, w, stride=2)
            h = ad.layer_norm(h, gain, bias)
            logp = ad.log_softmax(h, axis=-1)
            return ad.scale(ad.reduce_sum(ad.mul(logp, ad.Tensor(labels))), -1.0)

        for t in (w, gain, bias):
            (a,) = analytic_grads(make_loss, [t])
            n = numeric_grad(make_loss, t)
            np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-8)

    def test_every_primitive_against_finite_differences(self):
        rng = np.random.default_rng(1234)
        for primitive, cases in PRIMITIVE_CASES.items():
            for label, build in cases:
                op, tensors = build(rng)
                proj = np.random.default_rng(zlib.crc32(label.encode())).normal(
                    size=op(*tensors).shape)

                def make_loss(op=op, tensors=tensors, proj=proj):
                    return ad.reduce_sum(ad.mul(op(*tensors), ad.Tensor(proj)))

                analytic = analytic_grads(make_loss, tensors)
                if primitive == "gradient_reversal":
                    # FD sees the identity, so compare against the
                    # sign-flipped projection gradient instead.
                    np.testing.assert_allclose(analytic[0], -0.7 * proj,
                                               rtol=1e-14, err_msg=label)
                    continue
                for t, a in zip(tensors, analytic):
                    n = numeric_grad(make_loss, t)
                    np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-8,
                                               err_msg=label)

    def test_every_primitive_has_a_finite_difference_case(self):
        """Every public function whose body records a tape node through
        ``_emit`` (the rule the benchmark's tracer uses to find
        primitives) is covered by the finite-difference test above."""
        primitives = {
            name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == ad.__name__
            and "_emit(" in inspect.getsource(fn)}
        assert primitives == set(PRIMITIVE_CASES)


class TestGradientReversal:
    def test_forward_is_bit_identical(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        for lam in (-1.0, 0.0, 0.5, 1.0, 3.25):
            out = ad.gradient_reversal(x, lam)
            assert np.array_equal(out.data, x.data)

    def test_forward_example_values(self):
        out = ad.gradient_reversal(ad.Tensor([0.2, -1.5]), 1.0)
        np.testing.assert_array_equal(out.data, [0.2, -1.5])

    def test_backward_flips_sign_at_unit_scale(self):
        x = ad.Tensor([10.0, 20.0], requires_grad=True)
        upstream = np.array([1.0, 2.0])
        with ad.Tape() as tape:
            loss = ad.reduce_sum(
                ad.mul(ad.gradient_reversal(x, 1.0), ad.Tensor(upstream)))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [-1.0, -2.0])

    def test_backward_passes_through_at_minus_one(self):
        x = ad.Tensor([3.0, -4.0], requires_grad=True)
        upstream = np.array([0.5, -2.5])
        with ad.Tape() as tape:
            loss = ad.reduce_sum(
                ad.mul(ad.gradient_reversal(x, -1.0), ad.Tensor(upstream)))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), upstream)

    def test_backward_scales_elementwise_exactly(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lam = float(rng.uniform(-2, 2))
            x = ad.Tensor(rng.normal(size=7), requires_grad=True)
            upstream = rng.normal(size=7)
            with ad.Tape() as tape:
                loss = ad.reduce_sum(
                    ad.mul(ad.gradient_reversal(x, lam), ad.Tensor(upstream)))
            tape.backward(loss)
            np.testing.assert_array_equal(tape.grad(x), -lam * upstream)


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        ps = ad.ParameterSet()
        ps.add("w", np.zeros(3), "extractor")
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", np.zeros(3), "spoof_head")

    def test_unknown_group_rejected(self):
        ps = ad.ParameterSet()
        with pytest.raises(ValueError, match="group"):
            ps.add("w", np.zeros(3), "decoder")

    def test_groups_partition_names(self):
        ps = ad.ParameterSet()
        ps.add("a", np.zeros(2), "extractor")
        ps.add("b", np.zeros(2), "spoof_head")
        ps.add("c", np.zeros(2), "speaker_head")
        assert ps.group_names("extractor") == ["a"]
        assert ps.group_names("spoof_head") == ["b"]
        assert ps.group_names("speaker_head") == ["c"]
        assert sorted(ps) == ["a", "b", "c"]

    def test_state_roundtrip_and_shape_guard(self):
        ps = ad.ParameterSet()
        ps.add("w", np.arange(6.0).reshape(2, 3), "extractor")
        state = ps.state()
        ps["w"].data[:] = 0.0
        ps.load_state(state)
        np.testing.assert_array_equal(ps["w"].data,
                                      np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError, match="w"):
            ps.load_state({"w": np.zeros((3, 2))})
        with pytest.raises(ValueError, match="missing"):
            ps.load_state({})


class TestSgdStep:
    def test_single_value(self):
        ps = ad.ParameterSet()
        ps.add("theta", np.array(1.0), "extractor")
        ad.optimizer_step(ps, {"theta": np.array(0.5)},
                          ad.OptimizerState.sgd(0.1))
        np.testing.assert_allclose(ps["theta"].data, 0.95, rtol=1e-15)

    def test_zero_gradient_is_identity(self):
        ps = ad.ParameterSet()
        ps.add("theta", np.array([2.0, -3.0]), "extractor")
        before = ps["theta"].data.copy()
        ad.optimizer_step(ps, {"theta": np.zeros(2)},
                          ad.OptimizerState.sgd(0.1))
        np.testing.assert_array_equal(ps["theta"].data, before)

    def test_missing_gradient_names_parameter(self):
        ps = ad.ParameterSet()
        ps.add("theta", np.array(1.0), "extractor")
        ps.add("other", np.array(1.0), "spoof_head")
        for state in (ad.OptimizerState.sgd(0.1),
                      ad.OptimizerState.adam(ps, lr=0.1)):
            with pytest.raises(ValueError, match="other"):
                ad.optimizer_step(ps, {"theta": np.array(0.5)}, state)
            assert ps["theta"].data == 1.0
            assert state.step_count == 0

    def test_nan_gradient_fails_fast_without_update(self):
        ps = ad.ParameterSet()
        ps.add("theta", np.array([1.0, 2.0]), "extractor")
        ps.add("other", np.array(1.0), "spoof_head")
        state = ad.OptimizerState.sgd(0.1)
        with pytest.raises(ad.NumericsError, match="other"):
            ad.optimizer_step(ps, {"theta": np.array([0.5, 0.5]),
                                   "other": np.array(np.nan)}, state)
        np.testing.assert_array_equal(ps["theta"].data, [1.0, 2.0])
        assert ps["other"].data == 1.0
        assert state.step_count == 0


class TestAdamStep:
    def _one_param(self, value):
        ps = ad.ParameterSet()
        ps.add("p", np.array([value]), "extractor")
        return ps

    def test_first_step_moves_by_lr_times_sign(self):
        for g in (0.3, -2.0, 1e-4):
            ps = self._one_param(1.0)
            state = ad.OptimizerState.adam(ps, lr=0.1)
            ad.optimizer_step(ps, {"p": np.array([g])}, state)
            delta = ps["p"].data[0] - 1.0
            np.testing.assert_allclose(delta, -0.1 * np.sign(g), rtol=1e-3)

    def test_zero_gradient_zero_state_is_identity(self):
        ps = self._one_param(4.0)
        state = ad.OptimizerState.adam(ps, lr=0.1)
        ad.optimizer_step(ps, {"p": np.zeros(1)}, state)
        np.testing.assert_array_equal(ps["p"].data, [4.0])

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta = 1.0
        m = v = 0.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta = theta - lr * mhat / (np.sqrt(vhat) + eps)

        ps = self._one_param(1.0)
        state = ad.OptimizerState.adam(ps, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ad.optimizer_step(ps, {"p": np.array([1.0])}, state)
        ad.optimizer_step(ps, {"p": np.array([1.0])}, state)
        assert state.step_count == 2
        np.testing.assert_allclose(ps["p"].data[0], theta, atol=1e-12)

    def test_nan_gradient_fails_fast_without_update(self):
        ps = self._one_param(1.0)
        state = ad.OptimizerState.adam(ps, lr=0.1)
        with pytest.raises(ad.NumericsError, match="p"):
            ad.optimizer_step(ps, {"p": np.array([np.nan])}, state)
        np.testing.assert_array_equal(ps["p"].data, [1.0])
        assert state.step_count == 0

    def test_step_count_increments_by_one(self):
        ps = self._one_param(1.0)
        state = ad.OptimizerState.adam(ps, lr=0.01)
        for expected in (1, 2, 3):
            ad.optimizer_step(ps, {"p": np.array([0.5])}, state)
            assert state.step_count == expected


def _two_head_setup(seed):
    """Tiny shared-extractor, two-head network for update-rule oracles."""
    rng = np.random.default_rng(seed)
    ps = ad.ParameterSet()
    wf = ps.add("wf", rng.normal(size=(6, 5)) * 0.4, "extractor")
    ws = ps.add("ws", rng.normal(size=(5, 2)) * 0.4, "spoof_head")
    wd = ps.add("wd", rng.normal(size=(5, 3)) * 0.4, "speaker_head")
    x = rng.normal(size=(4, 6))
    ys = np.eye(2)[rng.integers(0, 2, size=4)]
    yd = np.eye(3)[rng.integers(0, 3, size=4)]
    return ps, wf, ws, wd, x, ys, yd


def _ce(logits, onehot):
    logp = ad.log_softmax(logits, axis=-1)
    n = onehot.shape[0]
    return ad.scale(ad.reduce_sum(ad.mul(logp, ad.Tensor(onehot))), -1.0 / n)


class TestTwoBackwardOracle:
    """Checks the realized update against per-loss backward passes.

    The oracle runs two plain backward passes (one per loss, no reversal
    layer anywhere) and reassembles the expected update: the shared
    extractor moves along grad(Ls) - lam * alpha * grad(Ld), each head
    along its own loss only.
    """

    def _combined_grads(self, ps, wf, ws, wd, x, ys, yd, lam, alpha):
        def forward():
            h = ad.gelu(ad.matmul(ad.Tensor(x), ps["wf"]))
            ls = _ce(ad.matmul(h, ps["ws"]), ys)
            ld = _ce(ad.matmul(ad.gradient_reversal(h, lam), ps["wd"]), yd)
            return ad.add(ls, ad.scale(ld, alpha))

        with ad.Tape() as tape:
            loss = forward()
        tape.backward(loss)
        return ps.collect_grads(tape)

    def _per_loss_grads(self, ps, x, ys, yd):
        def run(head):
            with ad.Tape() as tape:
                h = ad.gelu(ad.matmul(ad.Tensor(x), ps["wf"]))
                if head == "spoof":
                    loss = _ce(ad.matmul(h, ps["ws"]), ys)
                else:
                    loss = _ce(ad.matmul(h, ps["wd"]), yd)
            tape.backward(loss)
            return ps.collect_grads(tape)

        return run("spoof"), run("speaker")

    @pytest.mark.parametrize("lam,alpha", [(1.0, 0.1), (-1.0, 0.1),
                                           (0.5, 0.3), (2.0, 1.0)])
    def test_extractor_update_decomposition(self, lam, alpha):
        ps, wf, ws, wd, x, ys, yd = _two_head_setup(99)
        combined = self._combined_grads(ps, wf, ws, wd, x, ys, yd, lam, alpha)
        g_ls, g_ld = self._per_loss_grads(ps, x, ys, yd)

        expected_wf = g_ls["wf"] - lam * alpha * g_ld["wf"]
        np.testing.assert_allclose(combined["wf"], expected_wf, atol=1e-12)
        np.testing.assert_allclose(combined["ws"], g_ls["ws"], atol=1e-15)
        np.testing.assert_allclose(combined["wd"], alpha * g_ld["wd"],
                                   atol=1e-15)

    def test_head_isolation(self):
        ps, wf, ws, wd, x, ys, yd = _two_head_setup(55)
        g_ls, g_ld = self._per_loss_grads(ps, x, ys, yd)
        np.testing.assert_array_equal(g_ls["wd"], np.zeros_like(wd.data))
        np.testing.assert_array_equal(g_ld["ws"], np.zeros_like(ws.data))

    def test_full_sgd_step_matches_reassembled_update(self):
        lam, alpha, lr = 1.0, 0.1, 0.05
        ps, wf, ws, wd, x, ys, yd = _two_head_setup(123)
        start = ps.state()
        g_ls, g_ld = self._per_loss_grads(ps, x, ys, yd)
        combined = self._combined_grads(ps, wf, ws, wd, x, ys, yd, lam, alpha)
        ad.optimizer_step(ps, combined, ad.OptimizerState.sgd(lr))

        expected = {
            "wf": start["wf"] - lr * (g_ls["wf"] - lam * alpha * g_ld["wf"]),
            "ws": start["ws"] - lr * g_ls["ws"],
            "wd": start["wd"] - lr * alpha * g_ld["wd"],
        }
        for name in expected:
            np.testing.assert_allclose(ps[name].data, expected[name],
                                       atol=1e-12)

    def test_negative_unit_scale_equals_plain_sum_objective(self):
        """lam = -1 must reproduce a step on Ls + alpha*Ld with no reversal."""
        alpha, lr = 0.1, 0.05
        ps, wf, ws, wd, x, ys, yd = _two_head_setup(321)
        twin = ad.ParameterSet()
        for name, t in ps.items():
            twin.add(name, t.data.copy(), ps.group_of(name))

        combined = self._combined_grads(ps, wf, ws, wd, x, ys, yd, -1.0, alpha)
        ad.optimizer_step(ps, combined, ad.OptimizerState.sgd(lr))

        with ad.Tape() as tape:
            h = ad.gelu(ad.matmul(ad.Tensor(x), twin["wf"]))
            ls = _ce(ad.matmul(h, twin["ws"]), ys)
            ld = _ce(ad.matmul(h, twin["wd"]), yd)
            loss = ad.add(ls, ad.scale(ld, alpha))
        tape.backward(loss)
        ad.optimizer_step(twin, twin.collect_grads(tape),
                          ad.OptimizerState.sgd(lr))

        for name in ps:
            np.testing.assert_allclose(ps[name].data, twin[name].data,
                                       atol=1e-12)


class TestCheckGradients:
    def test_linear_crossentropy_passes(self):
        rng = np.random.default_rng(5)
        ps = ad.ParameterSet()
        ps.add("w", rng.normal(size=(6, 3)) * 0.5, "extractor")
        ps.add("b", np.zeros(3), "extractor")
        x = rng.normal(size=(8, 6))
        y = np.eye(3)[rng.integers(0, 3, size=8)]

        def closure():
            logits = ad.add(ad.matmul(ad.Tensor(x), ps["w"]), ps["b"])
            return _ce(logits, y)

        report = ad.check_gradients(closure, ps, seed=0)
        assert report.passed, report.summary()
        assert report.max_rel_err < 1e-5

    def test_constant_closure_skips_relative_rule(self):
        ps = ad.ParameterSet()
        ps.add("w", np.ones((4, 4)), "extractor")

        def closure():
            return ad.reduce_sum(ad.mul(ad.Tensor(np.ones(2)),
                                        ad.Tensor([1.0, 2.0])))

        report = ad.check_gradients(closure, ps, seed=0)
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_adversarial_composite_passes_on_flipped_objective(self):
        """With a reversal layer inside, the extractor gradient equals the
        gradient of Ls - lam*alpha*Ld; finite differences of that plain
        objective must agree with the reversal-layer backward pass."""
        lam, alpha = 1.0, 0.1
        ps, wf, ws, wd, x, ys, yd = _two_head_setup(777)

        def reversal_closure():
            h = ad.gelu(ad.matmul(ad.Tensor(x), ps["wf"]))
            ls = _ce(ad.matmul(h, ps["ws"]), ys)
            ld = _ce(ad.matmul(ad.gradient_reversal(h, lam), ps["wd"]), yd)
            return ad.add(ls, ad.scale(ld, alpha))

        def flipped_closure():
            h = ad.gelu(ad.matmul(ad.Tensor(x), ps["wf"]))
            ls = _ce(ad.matmul(h, ps["ws"]), ys)
            ld = _ce(ad.matmul(h, ps["wd"]), yd)
            return ad.add(ls, ad.scale(ld, -lam * alpha))

        with ad.Tape() as tape:
            loss = reversal_closure()
        tape.backward(loss)
        reversal_wf = tape.grad(ps["wf"])

        with ad.Tape() as tape2:
            loss2 = flipped_closure()
        tape2.backward(loss2)
        np.testing.assert_allclose(reversal_wf, tape2.grad(ps["wf"]),
                                   atol=1e-12)

        report = ad.check_gradients(flipped_closure, ps, seed=3)
        assert report.passed, report.summary()

    def test_detects_a_wrong_backward_rule(self):
        """A deliberately corrupted derivative must trip the checker."""
        ps = ad.ParameterSet()
        ps.add("w", np.array([0.7, -1.3, 0.4]), "extractor")

        def bad_square(t):
            out_data = t.data ** 2

            def bwd(g):
                return (3.0 * t.data * g,)  # wrong: true rule is 2x

            return ad._emit("bad_square", (t,), out_data, bwd)

        def closure():
            return ad.reduce_sum(bad_square(ps["w"]))

        report = ad.check_gradients(closure, ps, seed=0)
        assert not report.passed
        assert report.worst.name == "w"

    def test_report_is_deterministic(self):
        rng = np.random.default_rng(8)
        ps = ad.ParameterSet()
        ps.add("w", rng.normal(size=(40, 3)), "extractor")
        x = rng.normal(size=(4, 40))
        y = np.eye(3)[rng.integers(0, 3, size=4)]

        def closure():
            return _ce(ad.matmul(ad.Tensor(x), ps["w"]), y)

        r1 = ad.check_gradients(closure, ps, seed=11, coords_per_tensor=16)
        r2 = ad.check_gradients(closure, ps, seed=11, coords_per_tensor=16)
        assert r1.max_rel_err == r2.max_rel_err
        assert r1.worst.worst_coord == r2.worst.worst_coord

    def test_eps_bounds_enforced(self):
        ps = ad.ParameterSet()
        ps.add("w", np.ones(2), "extractor")
        with pytest.raises(ValueError, match="eps"):
            ad.check_gradients(lambda: ad.reduce_sum(ps["w"]), ps, eps=0.5)
