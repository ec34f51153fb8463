"""Numerics: op semantics, gradient correctness, determinism."""

import numpy as np
import pytest

from faultgen import autodiff as ad
from faultgen.autodiff import Parameter, Tensor
from faultgen.errors import ContractError, DimensionError, NumericError

from helpers import grad_check, rel_err

RNG = np.random.default_rng(42)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_hand_arithmetic(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose((a @ b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        # d/da sum(a @ b) = ones(m, n) @ b.T
        a = RNG.standard_normal((5, 4))
        b = RNG.standard_normal((4, 3))
        with ad.precision("float64"):
            ta = Tensor(a, requires_grad=True)
            loss = (ta @ Tensor(b)).sum()
            loss.backward()
            expected = np.ones((5, 3)) @ b.T
            assert rel_err(ta.grad, expected) < 1e-12

    def test_batched_grads_match_fd(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((4, 3))
        err = grad_check(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])
        assert err < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor(np.zeros(3)), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)

    def test_stabilized_no_overflow(self):
        out = ad.softmax(Tensor(np.array([1000.0, 0.0])), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_reference_values(self):
        # independent high-precision evaluation of softmax([1,2,3])
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        with ad.precision("float64"):
            out = ad.softmax(Tensor(np.array([1.0, 2.0, 3.0])), axis=-1)
        assert rel_err(out.data, expected) < 1e-6

    def test_rows_sum_to_one(self):
        x = RNG.standard_normal((4, 7)).astype(np.float32)
        out = ad.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_grad(self):
        x = RNG.standard_normal((3, 5))
        w = RNG.standard_normal((3, 5))
        err = grad_check(lambda ts: (ad.softmax(ts[0], axis=-1) * Tensor(w)).sum(), [x])
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.5))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-6)

    def test_already_normalized(self):
        x = Tensor(np.array([1.0, -1.0]))
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_grads_match_fd(self):
        x = RNG.standard_normal((3, 6))
        g = RNG.standard_normal(6)
        b = RNG.standard_normal(6)
        w = RNG.standard_normal((3, 6))
        err = grad_check(
            lambda ts: (ad.layer_norm(ts[0], ts[1], ts[2]) * Tensor(w)).sum(),
            [x, g, b],
        )
        assert err < 1e-6


class TestBackward:
    def test_sum_grad_is_ones(self):
        p = Parameter("p", np.array([1.0, 2.0, 3.0]))
        loss = p.sum()
        loss.backward()
        np.testing.assert_allclose(p.grad, np.ones(3))

    def test_detached_param_gets_zero_grad(self):
        p = Parameter("p", np.ones(3))
        q = Parameter("q", np.ones(3))
        loss = q.sum()
        loss.backward()
        np.testing.assert_allclose(p.grad, np.zeros(3))

    def test_frozen_param_untouched(self):
        p = Parameter("p", np.array([1.0, 2.0]), trainable=False)
        loss = (p * 3.0).sum()
        loss.backward()
        np.testing.assert_allclose(p.grad, np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_reused_node_accumulates(self):
        with ad.precision("float64"):
            x = Tensor(np.array([2.0]), requires_grad=True)
            loss = (x * x).sum()  # same tensor on both sides
            loss.backward()
            np.testing.assert_allclose(x.grad, [4.0])


@pytest.mark.parametrize("name,build,arrays", [
    ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda ts: (ts[0] + ts[1]).sum(), [(2, 3, 4), (4,)]),
    ("sub", lambda ts: (ts[0] - ts[1]).sum(), [(3, 4), (3, 4)]),
    ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (3, 4)]),
    ("mul_broadcast", lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (3, 4)]),
    ("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(), [(3, 3), (3, 3)]),
    ("absolute", lambda ts: ad.absolute(ts[0]).sum(), [(4, 4)]),
    ("minimum", lambda ts: ad.minimum((ts[0] * ts[0]).sum() * 0.1, 0.4), [(3, 3)]),
    ("gelu", lambda ts: ad.gelu(ts[0]).sum(), [(4, 5)]),
    ("sum_axis", lambda ts: (ts[0].sum(axis=1) * ts[0].sum(axis=1)).sum(), [(3, 4)]),
    ("mean", lambda ts: (ts[0].mean(axis=-1, keepdims=True) * ts[0]).sum(), [(3, 4)]),
    ("reshape", lambda ts: (ts[0].reshape((4, 3)) @ ts[0].reshape((3, 4))).sum(), [(2, 6)]),
    ("transpose", lambda ts: (ts[0].transpose((1, 0, 2)) * 2.0).sum(), [(2, 3, 4)]),
    ("swapaxes", lambda ts: (ts[0].swapaxes(-1, -2) @ ts[0]).sum(), [(3, 4)]),
    ("slice", lambda ts: (ts[0][:, 1:3] * ts[0][:, 0:2]).sum(), [(3, 5)]),
    ("pad", lambda ts: (ad.pad(ts[0], 1, 2, 2)[:, 1:4] * 3.0).sum(), [(2, 4)]),
    ("concat", lambda ts: (ad.concat([ts[0], ts[1]], axis=1) * ad.concat([ts[1], ts[0]], axis=1)).sum(),
     [(2, 3), (2, 3)]),
    ("stack", lambda ts: (ad.stack([ts[0], ts[1]], axis=0) * ad.stack([ts[1], ts[0]], axis=0)).sum(),
     [(2, 3), (2, 3)]),
])
def test_op_gradients_match_central_differences(name, build, arrays):
    rng = np.random.default_rng(hash(name) % 2**32)
    vals = [rng.standard_normal(s) for s in arrays]
    assert grad_check(build, vals) < 1e-6, name


def test_gelu_float32_matches_float64_tanh_reference():
    x = np.concatenate([np.linspace(-1e3, 1e3, 20001),
                        np.random.default_rng(4).standard_normal(10000)]).astype(np.float32)
    out = ad.gelu(Tensor(x)).data
    assert out.dtype == np.float32
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * np.power(x64, 3))))
    # floored at 1: far in the negative tail float32 rounds 1 + tanh to exactly 0
    assert rel_err(out, ref) <= 1e-6


def test_cross_entropy_matches_reference_and_fd():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    with ad.precision("float64"):
        loss = ad.cross_entropy(Tensor(logits), labels)
        # independent reference
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(p[np.arange(6), labels]))
        assert abs(float(loss.data) - expected) < 1e-12
    err = grad_check(lambda ts: ad.cross_entropy(ts[0], labels), [logits])
    assert err < 1e-6


class TestInvariants:
    def test_non_finite_raises(self):
        big = Tensor(np.array([1e38], dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            big * 1e38  # overflows float32

    def test_determinism_same_seed_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            out = ad.softmax(x @ w, axis=-1).sum()
            out.backward()
            return out.data.copy(), x.grad.copy()

        (o1, g1), (o2, g2) = run(), run()
        assert np.array_equal(o1, o2) and np.array_equal(g1, g2)

    def test_dtype_modes(self):
        assert ad.default_dtype() == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float32
        with ad.precision("float64"):
            assert Tensor(np.zeros(2)).dtype == np.float64

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = x * 2.0
        assert y._backward is None and not y.requires_grad
