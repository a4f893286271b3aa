import numpy as np
import pytest

from psm._binio import FormatError
from psm.network import (
    HEADS,
    NetworkConfig,
    _head_backward,
    _head_forward,
    OptimizerState,
    backward,
    commit_bn_stats,
    copy_params,
    ema_update,
    embed,
    forward_online,
    forward_projection,
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


def _out_of_place_train_head(cfg, layers, x):
    """Training-mode head in its out-of-place form; y is cached before the rectifier."""
    cache = []
    h = x
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        a = h @ layer.w.T + layer.b
        if layer.gamma is not None:
            mu = a.mean(axis=0, keepdims=True)
            var = a.var(axis=0, keepdims=True)
            std = np.sqrt(var + cfg.bn_eps)
            xhat = (a - mu) / std
            y = layer.gamma * xhat + layer.beta
        else:
            xhat = mu = var = std = None
            y = a
        cache.append({"x": h, "xhat": xhat, "mu": mu, "var": var, "std": std, "y": y})
        h = np.maximum(y, 0.0) if li != last else y
    return h, cache


def _out_of_place_head_backward(layers, cache, grad_out):
    """Backward of _out_of_place_train_head with sum/mean and fresh temporaries."""
    grads = {}
    g = grad_out
    last = len(layers) - 1
    for li in range(last, -1, -1):
        layer, c = layers[li], cache[li]
        if li != last:
            g = g * (c["y"] > 0.0)
        if layer.gamma is not None:
            xhat = c["xhat"]
            grads[f"{li}.beta"] = g.sum(axis=0)
            grads[f"{li}.gamma"] = (g * xhat).sum(axis=0)
            gx = g * layer.gamma
            ga = (gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0)) / c["std"]
        else:
            ga = g
        grads[f"{li}.w"] = ga.T @ c["x"]
        grads[f"{li}.b"] = ga.sum(axis=0)
        g = ga @ layer.w
    return g, grads


class TestTrainHead:
    """The in-place training head equals its out-of-place form bit for bit."""

    @pytest.mark.parametrize("bn", [True, False])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_forward_and_backward_match_out_of_place(self, bn, seed):
        params = _trained_looking_params(bn, seed=seed)
        cfg = params.config
        if bn:
            assert not np.all(params.encoder[0].gamma == 1.0)
            assert not np.all(params.projector[1].beta == 0.0)
        rng = RngState(seed + 1)
        h = rng.normal((9, 8))
        for head in ("encoder", "projector", "predictor"):
            layers = params.head(head)
            x_before = h.copy()
            out, cache = _head_forward(cfg, layers, h, head, True)
            ref_out, ref_cache = _out_of_place_train_head(cfg, layers, h)
            np.testing.assert_array_equal(h, x_before)
            np.testing.assert_array_equal(out, ref_out)
            for li, (c, r) in enumerate(zip(cache, ref_cache)):
                for key in ("x", "xhat", "mu", "var", "std"):
                    if r[key] is None:
                        assert c[key] is None
                    else:
                        np.testing.assert_array_equal(c[key], r[key])
                y_ref = r["y"] if li == len(layers) - 1 else np.maximum(r["y"], 0.0)
                np.testing.assert_array_equal(c["y"], y_ref)

            grad_out = rng.normal(out.shape)
            g_before = grad_out.copy()
            gin, grads = _head_backward(cfg, layers, cache, grad_out)
            ref_gin, ref_grads = _out_of_place_head_backward(layers, ref_cache, grad_out)
            np.testing.assert_array_equal(grad_out, g_before)
            np.testing.assert_array_equal(gin, ref_gin)
            assert grads.keys() == ref_grads.keys()
            for key, val in ref_grads.items():
                np.testing.assert_array_equal(grads[key], val, err_msg=f"{head}.{key}")

            no_in, grads_only = _head_backward(cfg, layers, cache, grad_out, input_grad=False)
            assert no_in is None
            for key, val in ref_grads.items():
                np.testing.assert_array_equal(grads_only[key], val)
            h = out

    def test_projection_pass_is_the_online_pass_without_predictor(self):
        params = _trained_looking_params(True, seed=33)
        x = RngState(34).normal((7, 8))
        z1, cache = forward_projection(params, x)
        z1_full, _, full = forward_online(params, x, train=True)
        np.testing.assert_array_equal(z1, z1_full)
        assert "predictor" not in cache and "q1" not in cache
        for key in ("u", "z1", "z1_zero"):
            np.testing.assert_array_equal(cache[key], full[key])
        grads = backward(params, cache, RngState(35).normal(z1.shape))
        trained = iter_trainable(params, ("encoder", "projector"))
        assert sorted(grads) == sorted(key for key, _ in trained)


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
        grads = backward(params, cache, c_q)
        self._check_fd(params, grads, loss_at)

    @pytest.mark.parametrize("bn", [False, True])
    def test_projection_gradients_match_fd(self, bn):
        params = _toy_params(bn=bn, seed=8)
        x = RngState(9).normal((5, 8))
        c_z = RngState(10).normal((5, 5))

        def loss_at(p):
            z1, _ = forward_projection(p, x)
            return float((c_z * z1).sum())

        _, cache = forward_projection(params, x)
        grads = backward(params, cache, c_z)
        self._check_fd(params, grads, loss_at, heads=("encoder", "projector"))

    @staticmethod
    def _check_fd(params, grads, loss_at, heads=HEADS, h=1e-6):
        fd = {}
        for key, tensor in iter_trainable(params, heads):
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


class TestViewStack:
    """A (V, B, in) training pass equals V separate (B, in) passes bit for bit."""

    @staticmethod
    def _pass(params, x, projection):
        """The normalized outputs and cache of a training pass of either kind."""
        if projection:
            z1, cache = forward_projection(params, x)
            return (z1,), cache
        z1, q1, cache = forward_online(params, x)
        return (z1, q1), cache

    @pytest.mark.parametrize("bn", [True, False])
    @pytest.mark.parametrize("n_views", [2, 3])
    def test_stack_equals_separate_passes(self, bn, n_views):
        cfg = NetworkConfig(
            in_dim=11, encoder=(37, 13), projector=(19, 7), predictor=(23, 7), bn=bn
        )
        init = init_params(cfg, RngState(41))
        rng = RngState(42)
        perturb = rng.split("perturb")
        for _, arr in iter_trainable(init):
            arr += 0.3 * perturb.normal(arr.shape)
        x = rng.split("x").normal((n_views, 13, 11))
        # both pass kinds: the gradient is w.r.t. q1 (online) or z1 (projection)
        for projection, stream in ((False, "q"), (True, "z")):
            params, sep = copy_params(init), copy_params(init)
            grad = rng.split(stream).normal((n_views, 13, 7))
            outs, cache = self._pass(params, x, projection)
            grads = backward(params, cache, grad)
            commit_bn_stats(params, cache)
            ref_grads = None
            for v in range(n_views):
                outs_v, cache_v = self._pass(sep, x[v], projection)
                for out, out_v in zip(outs, outs_v):
                    np.testing.assert_array_equal(out[v], out_v)
                for head in HEADS:
                    pairs = zip(cache.get(head, ()), cache_v.get(head, ()))
                    for li, (c, c_v) in enumerate(pairs):
                        for key in ("mu", "var"):
                            if c_v[key] is None:
                                assert c[key] is None
                            else:
                                np.testing.assert_array_equal(
                                    c[key][v], c_v[key], err_msg=f"{head}.{li}.{key}"
                                )
                part = backward(sep, cache_v, grad[v])
                if ref_grads is None:
                    ref_grads = part
                else:
                    for key in ref_grads:
                        ref_grads[key] += part[key]
                commit_bn_stats(sep, cache_v)
            assert grads.keys() == ref_grads.keys()
            assert any(key.startswith("predictor") for key in grads) != projection
            for key, val in ref_grads.items():
                np.testing.assert_array_equal(grads[key], val, err_msg=key)
            for head in HEADS:
                for layer, ref in zip(params.head(head), sep.head(head)):
                    np.testing.assert_array_equal(layer.run_mean, ref.run_mean)
                    np.testing.assert_array_equal(layer.run_var, ref.run_var)


class TestBnStats:
    def test_projection_cache_leaves_predictor_stats(self):
        params = _trained_looking_params(True, seed=36)
        pred_before = [(l.run_mean.copy(), l.run_var.copy()) for l in params.predictor]
        enc_before = params.encoder[0].run_mean.copy()
        _, cache = forward_projection(params, RngState(37).normal((6, 8)))
        commit_bn_stats(params, cache)
        assert not np.array_equal(params.encoder[0].run_mean, enc_before)
        for layer, (mean, var) in zip(params.predictor, pred_before):
            np.testing.assert_array_equal(layer.run_mean, mean)
            np.testing.assert_array_equal(layer.run_var, var)

    def test_commit_updates_running_estimates(self):
        params = _toy_params(seed=15)
        x = RngState(16).normal((8, 8))
        _, _, cache = forward_online(params, x, train=True)
        layer = params.encoder[0]
        mu = cache["encoder"][0]["mu"][0]
        var = cache["encoder"][0]["var"][0] * (8 / 7)
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

    def test_steps_only_the_covered_heads(self):
        params = _toy_params()
        before = copy_params(params)
        opt = OptimizerState()
        grads = {
            key: np.full_like(t, 0.5)
            for key, t in iter_trainable(params)
            if not key.startswith("predictor")
        }
        sgd_step(params, grads, opt, lr=0.1)
        assert sorted(opt.buffers) == sorted(grads)
        for (key, a), (_, b) in zip(iter_trainable(params), iter_trainable(before)):
            assert np.array_equal(a, b) == key.startswith("predictor"), key

    def test_partly_covered_head_rejected(self):
        params = _toy_params()
        grads = {"predictor.1.w": np.zeros_like(params.predictor[1].w)}
        with pytest.raises(ValueError, match=r"missing gradient for predictor\.0\.w"):
            sgd_step(params, grads, OptimizerState(), lr=0.1)

    def test_shape_mismatch_rejected(self):
        params = _toy_params()
        grads = {key: np.zeros_like(t) for key, t in iter_trainable(params)}
        grads["encoder.0.w"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, grads, OptimizerState(), lr=0.1)

    @pytest.mark.parametrize("fault", ["missing", "shape"])
    def test_rejected_dict_changes_nothing(self, fault):
        # the bad gradient is a covered head's last tensor, after every other
        # tensor of the head (and of the heads before it) has been checked
        cfg = NetworkConfig(in_dim=4, encoder=(3,), projector=(3,), predictor=(2,))
        params = init_params(cfg, RngState(0))
        opt = OptimizerState()
        sgd_step(params, {k: np.ones_like(t) for k, t in iter_trainable(params)}, opt, 0.1)
        del opt.buffers["predictor.0.w"]
        before = copy_params(params)
        buffers = {key: buf.copy() for key, buf in opt.buffers.items()}
        grads = {key: np.full_like(t, 0.5) for key, t in iter_trainable(params)}
        if fault == "missing":
            del grads["projector.0.beta"]
        else:
            grads["predictor.0.beta"] = np.zeros(5)
        with pytest.raises(ValueError, match=r"missing gradient|shape mismatch"):
            sgd_step(params, grads, opt, lr=0.1)
        for (key, a), (_, b) in zip(iter_trainable(params), iter_trainable(before)):
            np.testing.assert_array_equal(a, b, err_msg=key)
        assert opt.buffers.keys() == buffers.keys()
        for key, buf in buffers.items():
            np.testing.assert_array_equal(opt.buffers[key], buf, err_msg=key)
        assert opt.step_count == 1


class TestConstructionChecks:
    """OptimizerState and NetworkConfig refuse an impossible value when built."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"momentum": np.nan}, "SGD momentum nan"),
            ({"momentum": 1.0}, "SGD momentum 1.0"),
            ({"momentum": -0.1}, "SGD momentum -0.1"),
            ({"weight_decay": -0.001}, "weight decay -0.001"),
            ({"weight_decay": np.inf}, "weight decay inf"),
            ({"base_lr": np.nan}, "base_lr nan"),
            ({"base_lr": -1e-4}, "base_lr -0.0001"),
            ({"peak_lr": -5.0}, "peak_lr -5.0"),
            ({"peak_lr": np.inf}, "peak_lr inf"),
            ({"floor_lr": np.inf}, "floor_lr inf"),
            ({"floor_lr": -0.01}, "floor_lr -0.01"),
            ({"warmup_epochs": -1}, "warmup of -1 epochs is negative"),
            ({"warmup_epochs": 9, "total_epochs": 2}, "warmup of 9 epochs exceeds 2 total"),
            ({"warmup_epochs": 0, "total_epochs": -1}, "warmup of 0 epochs exceeds -1 total"),
        ],
    )
    def test_optimizer_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            OptimizerState(**fields)

    def test_optimizer_limits_are_accepted(self):
        OptimizerState(momentum=0.0, weight_decay=0.0, base_lr=0.0, peak_lr=0.0,
                       floor_lr=0.0, warmup_epochs=0, total_epochs=0)
        OptimizerState(momentum=0.999, warmup_epochs=5, total_epochs=5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"bn_eps": 0.0}, "batch-norm eps 0.0"),
            ({"bn_eps": -1.0}, "batch-norm eps -1.0"),
            ({"bn_eps": np.nan}, "batch-norm eps nan"),
            ({"bn_eps": np.inf}, "batch-norm eps inf"),
            ({"bn_momentum": -0.1}, "batch-norm .* momentum -0.1"),
            ({"bn_momentum": 1.5}, "batch-norm .* momentum 1.5"),
            ({"bn_momentum": np.nan}, "batch-norm .* momentum nan"),
            ({"in_dim": 0}, "positive widths"),
            ({"encoder": ()}, "positive widths"),
            ({"projector": ()}, "positive widths"),
            ({"predictor": ()}, "positive widths"),
            ({"encoder": (4, 0)}, "positive widths"),
            ({"projector": (0,)}, "positive widths"),
            ({"predictor": (3, -1)}, "positive widths"),
        ],
    )
    def test_network_config_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            NetworkConfig(**{"in_dim": 3, **fields})

    def test_network_config_limits_are_accepted(self):
        NetworkConfig(in_dim=1, encoder=(1,), projector=(1,), predictor=(1,), bn_momentum=0.0)
        NetworkConfig(in_dim=1, bn_eps=5e-324, bn_momentum=1.0)


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

    @pytest.mark.parametrize("bn", [True, False])
    @pytest.mark.parametrize(
        "encoder,projector,predictor",
        [((5,), (3,), (3,)), ((7, 3), (5, 3), (9, 3)), ((11, 7, 5), (13,), (13, 5, 13))],
    )
    def test_save_load_save_round_trip(self, tmp_path, bn, encoder, projector, predictor):
        cfg = NetworkConfig(
            in_dim=9, encoder=encoder, projector=projector, predictor=predictor, bn=bn
        )
        rng = RngState(33)
        params = init_params(cfg, rng.split("online"))
        target = init_params(cfg, rng.split("target"))
        for net in (params, target):  # every tensor distinct, running statistics too
            for head in HEADS:
                for layer in net.head(head):
                    for name, arr in vars(layer).items():
                        if arr is not None:
                            arr += rng.normal(arr.shape)
                            if name == "run_var":  # a variance below 0 does not load
                                np.abs(arr, out=arr)
        opt = OptimizerState(step_count=4)
        grads = {key: rng.normal(t.shape) for key, t in iter_trainable(params)}
        sgd_step(params, grads, opt, 0.1)
        first, second = tmp_path / "a.psmc", tmp_path / "b.psmc"
        save_checkpoint(params, opt, target, first)
        p2, o2, t2 = load_checkpoint(first)
        save_checkpoint(p2, o2, t2, second)
        assert first.read_bytes() == second.read_bytes()
        assert p2.config == cfg and t2.config == cfg
        for net, back in ((params, p2), (target, t2)):
            for head in HEADS:
                assert len(back.head(head)) == len(net.head(head))
                for layer, got in zip(net.head(head), back.head(head)):
                    for name, arr in vars(layer).items():
                        if arr is None:
                            assert getattr(got, name) is None
                        else:
                            np.testing.assert_array_equal(getattr(got, name), arr)
        assert o2.buffers.keys() == opt.buffers.keys()
        for key, buf in opt.buffers.items():
            np.testing.assert_array_equal(o2.buffers[key], buf)

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
