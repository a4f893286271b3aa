import numpy as np
import pytest

from psm._binio import FormatError
from psm.network import (
    NetworkConfig,
    OptimizerState,
    backward,
    commit_bn_stats,
    copy_params,
    ema_update,
    embed,
    forward_online,
    forward_target,
    init_params,
    iter_trainable,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
)
from psm.numerics import RngState, l2_normalize_rows


def _toy_cfg(bn=True, in_dim=8):
    return NetworkConfig(
        in_dim=in_dim, encoder=(8, 6), projector=(6, 5), predictor=(6, 5), bn=bn
    )


def _toy_params(bn=True, seed=0, in_dim=8):
    return init_params(_toy_cfg(bn=bn, in_dim=in_dim), RngState(seed))


class TestInitAndForward:
    def test_shapes(self):
        p = _toy_params()
        assert p.encoder[0].w.shape == (8, 8)
        assert p.encoder[1].w.shape == (6, 8)
        assert p.projector[0].w.shape == (6, 6)
        assert p.predictor[1].w.shape == (5, 6)
        assert p.encoder[0].gamma.shape == (8,)

    def test_init_is_seeded(self):
        a, b = _toy_params(seed=3), _toy_params(seed=3)
        np.testing.assert_array_equal(a.encoder[0].w, b.encoder[0].w)
        c = _toy_params(seed=4)
        assert not np.array_equal(a.encoder[0].w, c.encoder[0].w)

    def test_no_bn_layers_have_no_gamma(self):
        p = _toy_params(bn=False)
        assert p.encoder[0].gamma is None

    def test_outputs_are_normalized(self):
        p = _toy_params()
        x = RngState(1).normal((6, 8))
        z1, q1, cache = forward_online(p, x, train=True)
        np.testing.assert_allclose(np.linalg.norm(z1, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(q1, axis=1), 1.0, atol=1e-9)
        assert cache is not None and cache["u"].shape == (6, 5)

    def test_eval_mode_builds_no_cache(self):
        p = _toy_params()
        _, _, cache = forward_online(p, RngState(1).normal((4, 8)), train=False)
        assert cache is None

    def test_zero_network_flags_zero_rows(self):
        p = _toy_params(bn=False)
        for _, tensor in iter_trainable(p):
            tensor[:] = 0.0
        z1, q1, cache = forward_online(p, np.ones((3, 8)), train=True)
        np.testing.assert_array_equal(z1, 0.0)
        np.testing.assert_array_equal(q1, 0.0)
        assert cache["z1_zero"].all() and cache["q1_zero"].all()

    def test_identity_single_layer_normalizes_affine_map(self):
        cfg = NetworkConfig(
            in_dim=2, encoder=(2,), projector=(2,), predictor=(2,), bn=False
        )
        p = init_params(cfg, RngState(0))
        for _, tensor in iter_trainable(p):
            if tensor.ndim == 2:
                tensor[:] = np.eye(2)
            else:
                tensor[:] = 0.0
        z1, q1, _ = forward_online(p, np.array([[3.0, 4.0]]), train=True)
        np.testing.assert_allclose(z1, [[0.6, 0.8]], atol=1e-12)
        np.testing.assert_allclose(q1, [[0.6, 0.8]], atol=1e-12)

    def test_non_finite_input_reports_layer(self):
        p = _toy_params()
        x = np.ones((2, 8))
        x[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="encoder layer 0"):
                forward_online(p, x, train=True)

    def test_target_matches_online_eval_projection(self):
        p = _toy_params()
        twin = copy_params(p)
        x = RngState(2).normal((5, 8))
        z1, _, _ = forward_online(p, x, train=False)
        np.testing.assert_array_equal(forward_target(twin, x), z1)

    def test_embed_is_normalized_encoder_output(self):
        p = _toy_params()
        e = embed(p, RngState(3).normal((4, 8)))
        assert e.shape == (4, 6)
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-9)


def _out_of_place_head(cfg, layers, x):
    """Evaluation-mode head written out of place, one temporary per step."""
    h = x
    for li, layer in enumerate(layers):
        a = h @ layer.w.T + layer.b
        if layer.gamma is not None:
            std = np.sqrt(layer.run_var + cfg.bn_eps)
            a = layer.gamma * ((a - layer.run_mean) / std) + layer.beta
        h = np.maximum(a, 0.0) if li != len(layers) - 1 else a
    return h


def _trained_looking_params(bn, seed):
    """Toy params whose affine and running batch-norm terms are all nontrivial."""
    params = _toy_params(bn=bn, seed=seed)
    rng = RngState(seed + 100)
    for _, arr in iter_trainable(params):
        arr += 0.3 * rng.normal(arr.shape)
    if bn:
        for _ in range(3):
            x = rng.normal((7, 8))
            _, _, cache = forward_online(params, x, train=True)
            commit_bn_stats(params, cache)
    return params


def _eval_state(params):
    return [
        arr.copy()
        for head in ("encoder", "projector")
        for layer in params.head(head)
        for arr in (layer.w, layer.b, layer.gamma, layer.beta, layer.run_mean, layer.run_var)
        if arr is not None
    ]


class TestEvalForward:
    @pytest.mark.parametrize("bn", [True, False])
    def test_embed_and_target_match_out_of_place_bit_for_bit(self, bn):
        params = _trained_looking_params(bn, seed=21)
        cfg = params.config
        x = RngState(22).normal((9, 8))
        x_before = x.copy()
        state_before = _eval_state(params)

        h = _out_of_place_head(cfg, params.encoder, x)
        u = _out_of_place_head(cfg, params.projector, h)
        np.testing.assert_array_equal(embed(params, x), l2_normalize_rows(h))
        np.testing.assert_array_equal(forward_target(params, x), l2_normalize_rows(u))

        np.testing.assert_array_equal(x, x_before)
        for after, before in zip(_eval_state(params), state_before):
            np.testing.assert_array_equal(after, before)


class TestBackward:
    @pytest.mark.parametrize("bn", [False, True])
    def test_param_gradients_match_fd(self, bn):
        params = _toy_params(bn=bn, seed=5)
        x = RngState(6).normal((5, 8))
        c_q = RngState(7).normal((5, 5))

        def loss_at(p):
            _, q1, _ = forward_online(p, x, train=True)
            return float((c_q * q1).sum())

        _, q1, cache = forward_online(params, x, train=True)
        grads = backward(params, cache, grad_q1=c_q)
        self._check_fd(params, grads, loss_at)

    @pytest.mark.parametrize("bn", [False, True])
    def test_projection_gradients_match_fd(self, bn):
        params = _toy_params(bn=bn, seed=8)
        x = RngState(9).normal((5, 8))
        c_z = RngState(10).normal((5, 5))

        def loss_at(p):
            z1, _, _ = forward_online(p, x, train=True)
            return float((c_z * z1).sum())

        z1, _, cache = forward_online(params, x, train=True)
        grads = backward(params, cache, grad_z1=c_z)
        self._check_fd(params, grads, loss_at, skip_predictor=True)

    @staticmethod
    def _check_fd(params, grads, loss_at, skip_predictor=False, h=1e-6):
        fd = {}
        for key, tensor in iter_trainable(params):
            if skip_predictor and key.startswith("predictor"):
                np.testing.assert_array_equal(grads[key], 0.0)
                continue
            approx = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                orig = tensor[mi]
                tensor[mi] = orig + h
                up = loss_at(params)
                tensor[mi] = orig - h
                dn = loss_at(params)
                tensor[mi] = orig
                approx[mi] = (up - dn) / (2 * h)
            fd[key] = approx
        # Train-mode batch norm cancels the linear bias exactly, so some
        # tensors carry a true gradient of zero; measure every tensor's
        # error against the largest gradient entry in the whole network.
        scale = max(max(float(np.abs(grads[k]).max()) for k in fd), 1e-8)
        for key, approx in fd.items():
            err = float(np.abs(approx - grads[key]).max()) / scale
            assert err <= 1e-5, f"{key}: rel err {err:.3e}"

    def test_requires_some_gradient(self):
        params = _toy_params()
        _, _, cache = forward_online(params, np.ones((3, 8)), train=True)
        with pytest.raises(ValueError):
            backward(params, cache)

    def test_combined_q_and_z_paths_sum(self):
        params = _toy_params(seed=11)
        x = RngState(12).normal((4, 8))
        cq = RngState(13).normal((4, 5))
        cz = RngState(14).normal((4, 5))
        _, _, cache = forward_online(params, x, train=True)
        both = backward(params, cache, grad_q1=cq, grad_z1=cz)
        q_only = backward(params, cache, grad_q1=cq)
        z_only = backward(params, cache, grad_z1=cz)
        for key in both:
            np.testing.assert_allclose(
                both[key], q_only[key] + z_only[key], atol=1e-12
            )


class TestBnStats:
    def test_commit_updates_running_estimates(self):
        params = _toy_params(seed=15)
        x = RngState(16).normal((8, 8))
        _, _, cache = forward_online(params, x, train=True)
        layer = params.encoder[0]
        mu = cache["encoder"][0]["mu"]
        var = cache["encoder"][0]["var"] * (8 / 7)
        commit_bn_stats(params, cache)
        np.testing.assert_allclose(layer.run_mean, 0.1 * mu, atol=1e-12)
        np.testing.assert_allclose(layer.run_var, 0.9 + 0.1 * var, atol=1e-12)

    def test_forward_never_mutates_running_stats(self):
        params = _toy_params(seed=17)
        before = params.encoder[0].run_mean.copy()
        forward_online(params, RngState(18).normal((6, 8)), train=True)
        np.testing.assert_array_equal(params.encoder[0].run_mean, before)


class TestOptimizer:
    def test_sgd_scalar_oracle(self):
        cfg = NetworkConfig(in_dim=1, encoder=(1,), projector=(1,), predictor=(1,), bn=False)
        params = init_params(cfg, RngState(0))
        for _, tensor in iter_trainable(params):
            tensor[:] = 1.0
        opt = OptimizerState(momentum=0.9, weight_decay=0.001)
        grads = {key: np.full_like(t, 0.5) for key, t in iter_trainable(params)}
        sgd_step(params, grads, opt, lr=0.1)
        # buf = 0.5 + 0.001*1 = 0.501; w = 1 - 0.1*0.501
        w = params.encoder[0].w[0, 0]
        assert w == pytest.approx(1.0 - 0.1 * 0.501, abs=1e-15)
        grads2 = {key: np.full_like(t, 0.2) for key, t in iter_trainable(params)}
        sgd_step(params, grads2, opt, lr=0.1)
        buf2 = 0.9 * 0.501 + (0.2 + 0.001 * 0.9499)
        assert params.encoder[0].w[0, 0] == pytest.approx(0.9499 - 0.1 * buf2, abs=1e-12)
        assert opt.step_count == 2

    def test_missing_gradient_rejected(self):
        params = _toy_params()
        with pytest.raises(ValueError, match="missing gradient"):
            sgd_step(params, {}, OptimizerState(), lr=0.1)

    def test_shape_mismatch_rejected(self):
        params = _toy_params()
        grads = {key: np.zeros_like(t) for key, t in iter_trainable(params)}
        grads["encoder.0.w"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, grads, OptimizerState(), lr=0.1)


class TestSchedule:
    def test_endpoints(self):
        opt = OptimizerState()
        assert lr_at(opt, 0.0) == 0.0001
        assert lr_at(opt, 20.0) == pytest.approx(0.1, abs=1e-15)
        assert lr_at(opt, 100.0) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_continuity(self):
        opt = OptimizerState()
        gap = abs(lr_at(opt, 20.0) - lr_at(opt, 20.0 - 1e-12))
        assert gap <= 1e-12

    def test_warmup_is_linear(self):
        opt = OptimizerState()
        assert lr_at(opt, 10.0) == pytest.approx((0.0001 + 0.1) / 2, abs=1e-12)

    def test_cosine_midpoint(self):
        opt = OptimizerState()
        assert lr_at(opt, 60.0) == pytest.approx(0.05, abs=1e-12)

    def test_monotone_decay_after_warmup(self):
        opt = OptimizerState()
        values = [lr_at(opt, e) for e in np.linspace(20, 100, 33)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_floor_respected(self):
        opt = OptimizerState(floor_lr=0.01)
        assert lr_at(opt, 100.0) == pytest.approx(0.01, abs=1e-15)

    def test_no_warmup(self):
        opt = OptimizerState(warmup_epochs=0)
        assert lr_at(opt, 0.0) == pytest.approx(0.1, abs=1e-15)

    def test_out_of_range(self):
        opt = OptimizerState()
        with pytest.raises(ValueError):
            lr_at(opt, -0.5)
        with pytest.raises(ValueError):
            lr_at(opt, 101.0)


class TestEma:
    def test_exact_update(self):
        online = _toy_params(seed=20)
        target = _toy_params(seed=21)
        online.encoder[0].run_mean[:] = RngState(26).normal((8,))
        target.encoder[0].run_mean[:] = RngState(27).normal((8,))
        expect = {key: 0.99 * t for key, t in iter_trainable(target)}
        for key, o in iter_trainable(online):
            expect[key] += (1.0 - 0.99) * o
        run_mean_expect = 0.99 * target.encoder[0].run_mean
        run_mean_expect += (1.0 - 0.99) * online.encoder[0].run_mean
        ema_update(target, online, 0.99)
        for key, t in iter_trainable(target):
            np.testing.assert_array_equal(t, expect[key])
        np.testing.assert_array_equal(target.encoder[0].run_mean, run_mean_expect)

    def test_m_one_freezes_target(self):
        online = _toy_params(seed=22)
        target = _toy_params(seed=23)
        before = target.encoder[0].w.copy()
        ema_update(target, online, 1.0)
        np.testing.assert_array_equal(target.encoder[0].w, before)

    def test_m_zero_copies_online(self):
        online = _toy_params(seed=24)
        target = _toy_params(seed=25)
        ema_update(target, online, 0.0)
        np.testing.assert_array_equal(target.encoder[0].w, online.encoder[0].w)

    def test_momentum_range_checked(self):
        p = _toy_params()
        with pytest.raises(ValueError):
            ema_update(copy_params(p), p, 1.5)

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ema_update(_toy_params(bn=False), _toy_params(bn=True), 0.5)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        params = _toy_params(seed=30)
        target = _toy_params(seed=31)
        opt = OptimizerState(momentum=0.85, weight_decay=0.002, warmup_epochs=3,
                             total_epochs=17, base_lr=0.01, peak_lr=0.2, floor_lr=0.001)
        grads = {key: np.full_like(t, 0.1) for key, t in iter_trainable(params)}
        sgd_step(params, grads, opt, lr=0.05)
        path = tmp_path / "net.psmc"
        save_checkpoint(params, opt, target, path)
        p2, o2, t2 = load_checkpoint(path)
        for (k1, a), (k2, b) in zip(iter_trainable(params), iter_trainable(p2)):
            assert k1 == k2
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            params.encoder[0].run_mean, p2.encoder[0].run_mean
        )
        for (k1, a), (k2, b) in zip(iter_trainable(target), iter_trainable(t2)):
            np.testing.assert_array_equal(a, b)
        assert (o2.momentum, o2.weight_decay, o2.warmup_epochs, o2.total_epochs) == (
            0.85, 0.002, 3, 17,
        )
        assert (o2.base_lr, o2.peak_lr, o2.floor_lr, o2.step_count) == (
            0.01, 0.2, 0.001, 1,
        )
        for key in opt.buffers:
            np.testing.assert_array_equal(opt.buffers[key], o2.buffers[key])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.psmc"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = _toy_params(seed=32)
        path = tmp_path / "x.psmc"
        save_checkpoint(params, OptimizerState(), copy_params(params), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_checkpoint(path)
