"""Unit and gradient tests for the differentiable-array core."""

import math

import numpy as np
import pytest

from promptcal import autodiff as ad
from promptcal.errors import ContractError, ShapeError
from promptcal.optim import _CHUNK, Adam, GradientDescent


def finite_difference_check(build_loss, params, rng, h=1e-5, rel_tol=1e-4, abs_tol=1e-8,
                            max_components=None):
    """Compare analytic gradients of build_loss() against central differences.

    build_loss reconstructs the graph from the params' current data each call.
    When max_components is given, a random subset of each parameter's entries
    is probed instead of all of them.
    """
    ad.zero_grads(params)
    loss = build_loss()
    ad.backward(loss)
    for p in params:
        analytic = p.grad.copy()
        flat = p.data.reshape(-1)
        indices = np.arange(flat.size)
        if max_components is not None and flat.size > max_components:
            indices = rng.choice(flat.size, size=max_components, replace=False)
        for idx in indices:
            original = flat[idx]
            flat[idx] = original + h
            up = float(build_loss().data)
            flat[idx] = original - h
            down = float(build_loss().data)
            flat[idx] = original
            numeric = (up - down) / (2 * h)
            got = analytic.reshape(-1)[idx]
            if abs(numeric) < 1e-6:
                assert abs(got - numeric) <= abs_tol, (
                    f"component {idx}: analytic {got}, numeric {numeric}"
                )
            else:
                rel = abs(got - numeric) / abs(numeric)
                assert rel <= rel_tol, f"component {idx}: analytic {got}, numeric {numeric}, rel {rel}"
    ad.zero_grads(params)


# Oracles for the calibration objective. The soft encoder only ever yields one
# d-vector s, and the objective is the mean over (input i, prompt j) pairs of
# distance(b_i, (p_ij + s) / 2), with b_i and p_ij the frozen pooled
# embeddings of the bare and the prompted input. These restate that objective
# in plain numpy, independent of the autodiff losses the trainer uses.


def calibration_problem(lm, inputs, prompts):
    """Frozen pooled embeddings: bare (n x d) and prompted (n x m x d), prompt first."""
    from promptcal.calibration import join_prompted

    bare = np.stack([lm.encode(t).pooled.data for t in inputs])
    prompted = np.stack([
        [lm.encode(join_prompted(p, t)).pooled.data for p in prompts] for t in inputs
    ])
    return bare, prompted


def _softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def calibration_objective(bare, prompted, s, distance):
    """Loss and gradient in s of the calibration objective at soft vector s."""
    q = 0.5 * (prompted + s)
    target = np.broadcast_to(bare[:, None, :], q.shape)
    n_pairs = q.shape[0] * q.shape[1]
    if distance == "mse":
        diff = target - q
        return float((diff * diff).mean()), -diff.reshape(n_pairs, -1).sum(axis=0) / diff.size
    shifted = q - q.max(axis=-1, keepdims=True)
    log_sq = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    sp = _softmax_last(target)
    loss = -(sp * log_sq).sum(axis=-1).mean()
    grad = 0.5 * (np.exp(log_sq) - sp).reshape(n_pairs, -1).mean(axis=0)
    return float(loss), grad


def cross_entropy_floor(bare):
    """Mean entropy of softmax(b_i): no soft vector brings cross entropy below it."""
    sp = _softmax_last(bare)
    return float(-(sp * np.log(sp)).sum(axis=1).mean())


def optimal_soft_vector(bare, prompted, distance, start):
    """The soft vector that minimizes the calibration objective.

    MSE has the closed form s* = mean over (i, j) of (2 b_i - p_ij). Cross
    entropy is convex in s, so a damped Newton solve from `start` finds its
    minimum. The Hessian is singular along the all-ones direction (softmax is
    shift-invariant), so the step uses a pseudo-inverse.
    """
    if distance == "mse":
        return (2.0 * bare[:, None, :] - prompted).reshape(-1, bare.shape[1]).mean(axis=0)
    s = np.array(start, dtype=np.float64)
    for _ in range(50):
        loss, grad = calibration_objective(bare, prompted, s, distance)
        if np.linalg.norm(grad) <= 1e-13:
            break
        sq = _softmax_last(0.5 * (prompted + s)).reshape(-1, s.size)
        hessian = 0.25 * (np.diag(sq.mean(axis=0)) - sq.T @ sq / sq.shape[0])
        step = np.linalg.pinv(hessian, hermitian=True) @ grad
        decrement = float(grad @ step)
        t = 1.0
        while calibration_objective(bare, prompted, s - t * step, distance)[0] > (
            loss - 1e-4 * t * decrement
        ):
            t *= 0.5
            if t < 1e-8:  # no descent left at float resolution
                return s
        s = s - t * step
    return s


def gap_closure(start_loss, end_loss, optimal_loss):
    """Share of the gap between the start loss and the optimum that training closed."""
    return (start_loss - end_loss) / (start_loss - optimal_loss)


def scalar_reduce(v):
    """Deterministic scalar readout used to FD-check non-scalar ops."""
    if v.shape == ():
        return v
    flat_weight = ad.value(np.linspace(0.5, 1.5, v.size).reshape(v.shape))
    prod = ad.mul(v, flat_weight)
    if v.data.ndim == 2:
        return ad.sum_all(prod)
    return ad.sum_all(prod)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = ad.value(rng.normal(size=(3, 3)))
        eye = ad.value(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, a).data, a.data)

    def test_hand_arithmetic(self):
        a = ad.value([[1.0, 2.0], [3.0, 4.0]])
        b = ad.value([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        got = ad.matmul(ad.value(a), ad.value(b)).data
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.value(np.zeros((2, 3))), ad.value(np.zeros((2, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = ad.param(rng.normal(size=(3, 4)))
            b = ad.param(rng.normal(size=(4, 2)))
            finite_difference_check(lambda: scalar_reduce(ad.matmul(a, b)), [a, b], rng)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.softmax(ad.value(np.zeros(4)))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = ad.softmax(ad.value([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8) * 5
        got = ad.softmax(ad.value(v)).data
        # extended precision via Python floats and math.exp on shifted values
        shifted = [float(x) - max(v) for x in v]
        exps = [math.exp(x) for x in shifted]
        total = math.fsum(exps)
        expected = np.array([e / total for e in exps])
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.softmax(ad.value(np.zeros(0)))

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 12)) * rng.uniform(0.1, 50)
            out = ad.softmax(ad.value(v)).data
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out > 0)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = ad.param(rng.normal(size=6))
            finite_difference_check(lambda: scalar_reduce(ad.softmax(v)), [v], rng)


class TestMseDistance:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=5)
        assert float(ad.mse_distance(ad.value(p), ad.value(p.copy())).data) == 0.0

    def test_hand_arithmetic(self):
        got = ad.mse_distance(ad.value([0.0, 0.0]), ad.value([3.0, 4.0]))
        assert float(got.data) == pytest.approx(12.5, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        p, q = rng.normal(size=16), rng.normal(size=16)
        got = float(ad.mse_distance(ad.value(p), ad.value(q)).data)
        expected = sum((p[i] - q[i]) ** 2 for i in range(16)) / 16
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p, q = rng.normal(size=9), rng.normal(size=9)
            a = float(ad.mse_distance(ad.value(p), ad.value(q)).data)
            b = float(ad.mse_distance(ad.value(q), ad.value(p)).data)
            assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse_distance(ad.value(np.zeros(3)), ad.value(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = ad.param(rng.normal(size=7))
            q = ad.param(rng.normal(size=7))
            finite_difference_check(lambda: ad.mse_distance(p, q), [p, q], rng)


class TestCrossEntropyDistance:
    def test_uniform_closed_form(self):
        z = np.zeros(4)
        got = float(ad.cross_entropy_distance(ad.value(z), ad.value(z.copy())).data)
        assert got == pytest.approx(math.log(4), abs=1e-12)

    def test_equal_args_give_entropy(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=6)
        got = float(ad.cross_entropy_distance(ad.value(v), ad.value(v.copy())).data)
        s = np.exp(v - v.max())
        s /= s.sum()
        entropy = -float((s * np.log(s)).sum())
        assert got == pytest.approx(entropy, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        p, q = rng.normal(size=8), rng.normal(size=8)
        got = float(ad.cross_entropy_distance(ad.value(p), ad.value(q)).data)
        sp = [math.exp(x - max(p)) for x in p]
        sp = [x / math.fsum(sp) for x in sp]
        sq = [math.exp(x - max(q)) for x in q]
        total = math.fsum(sq)
        lsq = [(x - max(q)) - math.log(total) for x in q]
        expected = -math.fsum(a * b for a, b in zip(sp, lsq))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_at_least_entropy_of_p(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p, q = rng.normal(size=5), rng.normal(size=5)
            ce = float(ad.cross_entropy_distance(ad.value(p), ad.value(q)).data)
            sp = np.exp(p - p.max())
            sp /= sp.sum()
            entropy = -float((sp * np.log(sp)).sum())
            assert ce >= entropy - 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = ad.param(rng.normal(size=6))
            q = ad.param(rng.normal(size=6))
            finite_difference_check(lambda: ad.cross_entropy_distance(p, q), [p, q], rng)


class TestBackward:
    def test_square_gradient(self):
        x = ad.param(np.float64(3.0))
        ad.backward(ad.mul(x, x))
        assert float(x.grad) == pytest.approx(6.0, abs=1e-12)

    def test_constant_gives_zero_grad(self):
        x = ad.param(np.float64(2.0))
        c = ad.value(np.float64(5.0))
        loss = ad.mul(c, c)
        ad.backward(loss)
        assert float(x.grad) == 0.0

    def test_non_scalar_rejected(self):
        v = ad.param(np.zeros(3))
        with pytest.raises(ContractError):
            ad.backward(ad.softmax(v))

    def test_repeated_backward_accumulates(self):
        x = ad.param(np.float64(3.0))
        loss = ad.mul(x, x)
        ad.backward(loss)
        ad.backward(loss)
        assert float(x.grad) == pytest.approx(12.0, abs=1e-12)

    def test_shared_subexpression(self):
        # f(x) = (x*x) + (x*x): grad 4x, with the square node reused
        x = ad.param(np.float64(2.0))
        sq = ad.mul(x, x)
        ad.backward(ad.add(sq, sq))
        assert float(x.grad) == pytest.approx(8.0, abs=1e-12)


class TestAuxiliaryOps:
    def test_rows_gather_and_scatter(self):
        rng = np.random.default_rng(14)
        table = ad.param(rng.normal(size=(6, 3)))
        out = ad.rows(table, [1, 1, 4])
        np.testing.assert_array_equal(out.data[0], table.data[1])
        ad.backward(scalar_reduce(out))
        assert table.grad[0].sum() == 0.0
        assert table.grad[1].sum() != 0.0

    def test_mean_rows_matches_loop(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(5, 4))
        got = ad.mean_rows(ad.value(m)).data
        expected = np.array([sum(m[i][j] for i in range(5)) / 5 for j in range(4)])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_causal_rows_are_proper_distributions(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(5, 5))
        out = ad.causal_softmax_rows(ad.value(m)).data
        for i in range(5):
            assert abs(out[i, : i + 1].sum() - 1.0) <= 1e-12
            assert np.all(out[i, i + 1 :] == 0.0)

    @pytest.mark.parametrize("op_name", [
        "add", "sub", "mul", "neg", "scale", "transpose", "add_row_vector",
        "mean_rows", "sum_all", "dot", "tanh", "log_softmax", "softmax_rows",
        "causal_softmax_rows", "rows", "token_cross_entropy",
        "rowwise_mse", "rowwise_cross_entropy",
    ])
    def test_gradients(self, op_name):
        rng = np.random.default_rng(hash(op_name) % 2**32)
        for _ in range(6):
            if op_name in ("add", "sub", "mul"):
                a, b = ad.param(rng.normal(size=(3, 4))), ad.param(rng.normal(size=(3, 4)))
                build = lambda: scalar_reduce(getattr(ad, op_name)(a, b))
                params = [a, b]
            elif op_name == "neg":
                a = ad.param(rng.normal(size=5))
                build = lambda: scalar_reduce(ad.neg(a))
                params = [a]
            elif op_name == "scale":
                a = ad.param(rng.normal(size=(2, 3)))
                build = lambda: scalar_reduce(ad.scale(a, 0.37))
                params = [a]
            elif op_name == "transpose":
                a = ad.param(rng.normal(size=(3, 2)))
                build = lambda: scalar_reduce(ad.transpose(a))
                params = [a]
            elif op_name == "add_row_vector":
                m, v = ad.param(rng.normal(size=(4, 3))), ad.param(rng.normal(size=3))
                build = lambda: scalar_reduce(ad.add_row_vector(m, v))
                params = [m, v]
            elif op_name == "mean_rows":
                m = ad.param(rng.normal(size=(4, 3)))
                build = lambda: scalar_reduce(ad.mean_rows(m))
                params = [m]
            elif op_name == "sum_all":
                a = ad.param(rng.normal(size=(3, 3)))
                build = lambda: ad.sum_all(a)
                params = [a]
            elif op_name == "dot":
                u, v = ad.param(rng.normal(size=5)), ad.param(rng.normal(size=5))
                build = lambda: ad.dot(u, v)
                params = [u, v]
            elif op_name == "tanh":
                a = ad.param(rng.normal(size=(2, 4)))
                build = lambda: scalar_reduce(ad.tanh(a))
                params = [a]
            elif op_name == "log_softmax":
                v = ad.param(rng.normal(size=6))
                build = lambda: scalar_reduce(ad.log_softmax(v))
                params = [v]
            elif op_name == "softmax_rows":
                m = ad.param(rng.normal(size=(3, 5)))
                build = lambda: scalar_reduce(ad.softmax_rows(m))
                params = [m]
            elif op_name == "causal_softmax_rows":
                m = ad.param(rng.normal(size=(4, 4)))
                build = lambda: scalar_reduce(ad.causal_softmax_rows(m))
                params = [m]
            elif op_name == "rows":
                t = ad.param(rng.normal(size=(5, 3)))
                ids = [0, 2, 2, 4]
                build = lambda: scalar_reduce(ad.rows(t, ids))
                params = [t]
            elif op_name == "token_cross_entropy":
                logits = ad.param(rng.normal(size=(4, 6)))
                targets = rng.integers(0, 6, size=4)
                build = lambda: ad.token_cross_entropy(logits, targets)
                params = [logits]
            elif op_name == "rowwise_mse":
                p, q = ad.param(rng.normal(size=(4, 5))), ad.param(rng.normal(size=(4, 5)))
                build = lambda: ad.rowwise_mse(p, q)
                params = [p, q]
            else:  # rowwise_cross_entropy
                p, q = ad.param(rng.normal(size=(4, 5))), ad.param(rng.normal(size=(4, 5)))
                build = lambda: ad.rowwise_cross_entropy(p, q)
                params = [p, q]
            finite_difference_check(build, params, rng)

    def test_rowwise_ops_match_vector_ops(self):
        rng = np.random.default_rng(17)
        p = rng.normal(size=(6, 4))
        q = rng.normal(size=(6, 4))
        batched_mse = float(ad.rowwise_mse(ad.value(p), ad.value(q)).data)
        per_row = [float(ad.mse_distance(ad.value(p[i]), ad.value(q[i])).data) for i in range(6)]
        assert batched_mse == pytest.approx(sum(per_row) / 6, abs=1e-12)
        batched_ce = float(ad.rowwise_cross_entropy(ad.value(p), ad.value(q)).data)
        per_row = [
            float(ad.cross_entropy_distance(ad.value(p[i]), ad.value(q[i])).data) for i in range(6)
        ]
        assert batched_ce == pytest.approx(sum(per_row) / 6, abs=1e-12)


class TestDeterminism:
    def test_same_inputs_same_bits(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))

        def run():
            x = ad.matmul(ad.value(a), ad.value(b))
            x = ad.softmax_rows(x)
            return ad.mean_rows(x).data.tobytes()

        assert run() == run()


class OracleGradientDescent:
    """The per-parameter gradient-descent loop: the flat rule must match it bit for bit."""

    def __init__(self, params, learning_rate):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            p.data -= self.learning_rate * p.grad
            p.grad[...] = 0.0
        self.step_count += 1


class OracleAdam:
    """The per-parameter Adam loop (Kingma & Ba 2015): the flat rule must match it bit for bit."""

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            v *= self.beta2
            if g is not None:
                m += (1.0 - self.beta1) * g
                v += (1.0 - self.beta2) * g * g
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if g is not None:
                p.grad[...] = 0.0


# 0-d, small and odd shapes, one parameter that straddles a chunk boundary and
# one longer than a chunk, so the last chunk is partial.
FLAT_SHAPES = [(), (5,), (_CHUNK - 3,), (4, 7), (_CHUNK + 2,), (3, 1, 2)]


def twin_params(shapes, seed, grad_none=()):
    """Two independent, equal lists of leaves; indices in grad_none start with no gradient."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]

    def build():
        out = []
        for i, v in enumerate(values):
            p = ad.param(v.copy())
            if i in grad_none:
                p.grad = None
            out.append(p)
        return out

    return build(), build()


@pytest.mark.parametrize("rule, oracle, kwargs", [
    (Adam, OracleAdam, {"learning_rate": 2e-3}),
    (Adam, OracleAdam, {"learning_rate": 0.3, "beta1": 0.5, "beta2": 0.9, "eps": 1e-3}),
    (GradientDescent, OracleGradientDescent, {"learning_rate": 0.05}),
], ids=["adam-default-betas", "adam-other-betas", "gradient-descent"])
def test_flat_rule_equals_per_parameter_oracle(rule, oracle, kwargs):
    flat_params, oracle_params = twin_params(FLAT_SHAPES, seed=41)
    flat, ref = rule(flat_params, **kwargs), oracle(oracle_params, **kwargs)
    rng = np.random.default_rng(42)
    for step in range(50):
        for i, (a, b) in enumerate(zip(flat_params, oracle_params)):
            # Whole steps and single parameters with zero gradient, the rest random.
            if step % 7 == 3 or (step + i) % 5 == 0:
                continue
            g = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 2)
            a.grad[...] = g
            b.grad[...] = g
        flat.step()
        ref.step()
    assert flat.step_count == ref.step_count == 50
    for a, b in zip(flat_params, oracle_params):
        assert a.data.tobytes() == b.data.tobytes()
        assert a.grad.tobytes() == b.grad.tobytes()


def test_flat_adam_matches_oracle_on_parameters_without_gradient():
    # Without a gradient, the oracle still decays the moments and moves the parameter.
    flat_params, oracle_params = twin_params([(3,), (2, 2), ()], seed=5, grad_none={1, 2})
    flat, ref = Adam(flat_params, 0.1), OracleAdam(oracle_params, 0.1)
    rng = np.random.default_rng(6)
    for step in range(50):
        if step < 10:
            g = rng.normal(size=3)
            flat_params[0].grad[...] = g
            oracle_params[0].grad[...] = g
        flat.step()
        ref.step()
    for a, b in zip(flat_params, oracle_params):
        assert a.data.tobytes() == b.data.tobytes()


class TestOptimizers:
    def test_sgd_hand_arithmetic(self):
        theta = ad.param(np.float64(1.0))
        theta.grad[...] = 2.0
        opt = GradientDescent([theta], learning_rate=0.1)
        opt.step()
        assert float(theta.data) == pytest.approx(0.8, abs=1e-15)
        assert float(theta.grad) == 0.0
        assert opt.step_count == 1

    def test_zero_grad_is_fixed_point(self):
        theta = ad.param(np.float64(1.5))
        opt = GradientDescent([theta], learning_rate=0.1)
        opt.step()
        assert float(theta.data) == 1.5

    def test_sgd_quadratic_decay(self):
        # f(theta) = theta^2, grad 2*theta, lr 0.1: theta multiplies by 0.8 per step
        theta = ad.param(np.float64(1.0))
        opt = GradientDescent([theta], learning_rate=0.1)
        for _ in range(100):
            loss = ad.mul(theta, theta)
            ad.backward(loss)
            opt.step()
        expected = 0.8**100
        assert abs(float(theta.data)) < 1e-9
        assert float(theta.data) == pytest.approx(expected, rel=1e-9)

    def test_adam_converges_on_quadratic(self):
        theta = ad.param(np.float64(1.0))
        opt = Adam([theta], learning_rate=0.05)
        for _ in range(500):
            ad.backward(ad.mul(theta, theta))
            opt.step()
        assert abs(float(theta.data)) < 1e-3
        assert opt.step_count == 500

    def test_adam_moments_exist_only_for_adaptive_rule(self):
        sgd = GradientDescent([ad.param(np.float64(0.0))], 0.1)
        adam = Adam([ad.param(np.float64(0.0)), ad.param(np.zeros((2, 3)))], 0.1)
        assert not hasattr(sgd, "_m")
        # One flat moment per trainable float, across all parameters.
        assert adam._m.shape == adam._v.shape == (7,)

    def test_requires_grad_enforced(self):
        with pytest.raises(ContractError):
            GradientDescent([ad.value(np.float64(1.0))], 0.1)

    @pytest.mark.parametrize("rule", [GradientDescent, Adam])
    def test_parameter_listed_twice_rejected(self, rule):
        theta = ad.param(np.ones(3))
        with pytest.raises(ContractError, match="listed twice"):
            rule([theta, ad.param(np.ones(2)), theta], 0.1)

    @pytest.mark.parametrize("rule", [GradientDescent, Adam])
    def test_construction_keeps_values_and_gradients(self, rule):
        a, b = ad.param(np.arange(6.0).reshape(2, 3)), ad.param(np.float64(-2.5))
        a.grad[...] = 1.5
        a_data, b_data, a_grad = a.data.copy(), b.data.copy(), a.grad.copy()
        rule([a, b], 0.1)
        assert a.data.tobytes() == a_data.tobytes() and b.data.tobytes() == b_data.tobytes()
        assert a.grad.tobytes() == a_grad.tobytes() and float(b.grad) == 0.0
        assert a.data.shape == (2, 3) and b.data.shape == () == b.grad.shape

    @pytest.mark.parametrize("rule", [GradientDescent, Adam])
    def test_gradients_stay_the_optimizers_views(self, rule):
        w, b = ad.param(np.ones((3, 2))), ad.param(np.zeros(2))
        opt = rule([w, b], 0.1)
        views = [(p.data, p.grad) for p in (w, b)]
        for _ in range(3):
            x = ad.value(np.arange(6.0).reshape(2, 3))
            ad.backward(ad.sum_all(ad.add_row_vector(ad.matmul(x, w), b)))
            assert float(np.abs(b.grad).sum()) > 0.0
            opt.step()
            ad.backward(ad.sum_all(ad.mul(b, b)))
            ad.zero_grads([w, b])
            for p, (data, grad) in zip((w, b), views):
                assert p.data is data and p.grad is grad
        # The views are slices of the optimizer's flat buffers, in list order.
        assert np.shares_memory(w.data, opt._data) and np.shares_memory(b.grad, opt._grad)
        assert opt._data.tolist() == w.data.ravel().tolist() + b.data.tolist()


class TestGradientCorrectnessSweep:
    """Central finite differences over randomized instances of every op."""

    def test_fifty_random_instances_core_ops(self):
        rng = np.random.default_rng(99)
        for i in range(50):
            a = ad.param(rng.normal(size=(3, 3)))
            b = ad.param(rng.normal(size=(3, 3)))
            v = ad.param(rng.normal(size=5))
            w = ad.param(rng.normal(size=5))

            def build():
                m = ad.matmul(a, b)
                pooled = ad.mean_rows(ad.softmax_rows(m))
                d1 = ad.mse_distance(v, w)
                d2 = ad.cross_entropy_distance(v, w)
                return ad.add(ad.add(ad.sum_all(pooled), d1), d2)

            finite_difference_check(build, [a, b, v, w], rng)
