"""Hand-written MLP stack: encoder, projector, predictor, optimizer, EMA.

Every head is a chain of fully connected layers, each followed by batch
normalization (when enabled) and a rectifier on all but the head's last
layer. Forward and backward passes are written out explicitly so gradients
can be checked against finite differences without an autograd framework.

Mode contract: the online branch runs batch-norm in training mode (batch
statistics, cached for backward); the target branch and all probe
embeddings use running statistics. Forward and backward are pure; running
statistics change only when the trainer commits them via commit_bn_stats.

The predictor consumes the projector's raw output; the normalized z1/q1
returned by forward_online are what the losses and the bank consume, and
backward chains gradients through those normalizations using cached norms.

A training pass also takes a (V, B, in) stack of views and then equals V
(B, in) passes bit for bit: each view keeps its own batch statistics, and
backward and commit_bn_stats take the views in view order. Each layer runs
one batched product, a GEMM per view, because one (V*B, in) product of the
stacked rows can round differently in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import _binio
from .numerics import RngState, l2_normalize_rows

_CKPT_MAGIC = b"PSMC"
_CKPT_VERSION = 1

HEADS = ("encoder", "projector", "predictor")


@dataclass
class NetworkConfig:
    in_dim: int
    encoder: tuple[int, ...] = (128, 64)
    projector: tuple[int, ...] = (128, 64)
    predictor: tuple[int, ...] = (128, 64)
    bn: bool = True
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        eps, mom = self.bn_eps, self.bn_momentum
        if not (0.0 < eps < math.inf and 0.0 <= mom <= 1.0):
            raise ValueError(f"bad batch-norm eps {eps}, momentum {mom}")
        widths = (self.in_dim, *self.encoder, *self.projector, *self.predictor)
        if not (self.encoder and self.projector and self.predictor) or min(widths) < 1:
            raise ValueError("network heads need positive widths")

    def head_sizes(self, head: str) -> tuple[int, ...]:
        if head == "encoder":
            return (self.in_dim, *self.encoder)
        if head == "projector":
            return (self.encoder[-1], *self.projector)
        if head == "predictor":
            return (self.projector[-1], *self.predictor)
        raise ValueError(f"unknown head {head!r}")


@dataclass
class Layer:
    w: NDArray[np.float64]
    b: NDArray[np.float64]
    gamma: NDArray[np.float64] | None = None
    beta: NDArray[np.float64] | None = None
    run_mean: NDArray[np.float64] | None = None
    run_var: NDArray[np.float64] | None = None


@dataclass
class NetworkParams:
    config: NetworkConfig
    encoder: list[Layer]
    projector: list[Layer]
    predictor: list[Layer]

    def head(self, name: str) -> list[Layer]:
        return getattr(self, name)


# A layer's tensors in checkpoint order: w, b, gamma, beta train; the
# running statistics do not. A layer without batch norm holds only w and b.
LAYER_FIELDS = ("w", "b", "gamma", "beta", "run_mean", "run_var")


def _fields(cfg: NetworkConfig, trainable: bool = False) -> tuple[str, ...]:
    """The fields every layer of ``cfg`` holds, in checkpoint order."""
    if not cfg.bn:
        return LAYER_FIELDS[:2]
    return LAYER_FIELDS[:4] if trainable else LAYER_FIELDS


def _layer_shapes(cfg: NetworkConfig):
    """Yield (head, layer index, {field: shape}) for every layer, in order."""
    names = _fields(cfg)
    for head in HEADS:
        sizes = cfg.head_sizes(head)
        for li, (fan_in, width) in enumerate(zip(sizes, sizes[1:])):
            yield head, li, {n: (width, fan_in) if n == "w" else (width,) for n in names}


def _build(cfg: NetworkConfig, make) -> NetworkParams:
    """A network whose every tensor is ``make(head, layer index, field, shape)``."""
    heads: dict[str, list[Layer]] = {head: [] for head in HEADS}
    for head, li, shapes in _layer_shapes(cfg):
        layer = {name: make(head, li, name, shape) for name, shape in shapes.items()}
        heads[head].append(Layer(**layer))
    return NetworkParams(config=cfg, **heads)


def init_params(cfg: NetworkConfig, rng: RngState) -> NetworkParams:
    """He-normal weights, zero biases, identity batch-norm."""

    def init(head, li, name, shape):
        if name == "w":
            sub = rng.split("init", HEADS.index(head), li)
            return sub.normal(shape) * math.sqrt(2.0 / shape[1])
        return np.ones(shape) if name in ("gamma", "run_var") else np.zeros(shape)

    return _build(cfg, init)


def copy_params(params: NetworkParams) -> NetworkParams:
    return _build(
        params.config, lambda head, li, name, _: getattr(params.head(head)[li], name).copy()
    )


def iter_trainable(params: NetworkParams, heads=HEADS):
    """Yield (key, array) for every trainable tensor of ``heads``, declaration order."""
    names = _fields(params.config, trainable=True)
    for head in heads:
        for li, layer in enumerate(params.head(head)):
            for name in names:
                yield f"{head}.{li}.{name}", getattr(layer, name)


# an overflow is reported by _check_finite, not by a NumPy warning first
@np.errstate(over="ignore", invalid="ignore")
def _head_forward(cfg, layers, x, head, train):
    """Run one head on (B, in) or (V, B, in); returns (output, cache or None).

    Training-mode batch norm takes each view's mean as ``add.reduce / n``
    and the variance from the same deviation it then scales into ``xhat``,
    in the operation order of ``mean`` and ``var`` (keepdims), so the values
    match theirs bit for bit. The cached ``y`` is the layer's output after
    the rectifier, whose sign pattern is the one backward needs.
    """
    if not train:
        return _head_forward_eval(cfg, layers, x, head), None
    cache = []
    h = x
    n = x.shape[-2]
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        y = h @ layer.w.T
        y += layer.b
        if layer.gamma is not None:
            mu = np.add.reduce(y, -2, keepdims=True) / n
            xhat = y
            xhat -= mu
            var = np.add.reduce(xhat * xhat, -2, keepdims=True) / n
            std = np.sqrt(var + cfg.bn_eps)
            xhat /= std
            y = xhat * layer.gamma
            y += layer.beta
        else:
            xhat = mu = var = std = None
        if li != last:
            np.maximum(y, 0.0, out=y)
        _check_finite(y, head, li)
        cache.append({"x": h, "xhat": xhat, "mu": mu, "var": var, "std": std, "y": y})
        h = y
    return h, cache


def _head_forward_eval(cfg, layers, x, head):
    """Evaluation-mode head with running-stat batch norm, one buffer per layer.

    Each step runs in place on the layer's product, in the same operation
    order as the training path, so the result is bit-identical to the
    out-of-place form while the peak holds one activation matrix per layer.
    """
    h = x
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        a = h @ layer.w.T
        a += layer.b
        if layer.gamma is not None:
            a -= layer.run_mean
            a /= np.sqrt(layer.run_var + cfg.bn_eps)
            a *= layer.gamma
            a += layer.beta
        if li != last:
            np.maximum(a, 0.0, out=a)
        _check_finite(a, head, li)
        h = a
    return h


def _check_finite(out, head, li):
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite activations in {head} layer {li}")


def _head_backward(cfg, layers, cache, grad_out, input_grad=True):
    """Reverse one head; returns (grad wrt head input or None, {key: grad}).

    Reductions are ``add.reduce`` (``/ n`` for means), as inside ``sum`` and
    ``mean``, and every temporary after the first is reused in place, in
    the operation order of the out-of-place formulas. ``input_grad=False``
    skips the first layer's input-gradient product. Each parameter gradient
    of a (V, B, .) pass is a (V, ...) stack of its views' gradients.
    """
    grads = {}
    g = grad_out
    n = grad_out.shape[-2]
    last = len(layers) - 1
    for li in range(last, -1, -1):
        layer, c = layers[li], cache[li]
        if li != last:
            g *= c["y"] > 0.0  # g is this function's own product here
        if layer.gamma is not None:
            xhat = c["xhat"]
            grads[f"{li}.beta"] = np.add.reduce(g, -2)
            tmp = g * xhat
            grads[f"{li}.gamma"] = np.add.reduce(tmp, -2)
            # batch-stat backward for xhat = (a - mean(a)) / sqrt(var(a) + eps):
            # ga = (gx - mean(gx) - xhat * mean(gx * xhat)) / std, gx = g * gamma
            ga = g * layer.gamma
            np.multiply(ga, xhat, out=tmp)
            m_gx_xhat = np.add.reduce(tmp, -2, keepdims=True) / n
            ga -= np.add.reduce(ga, -2, keepdims=True) / n
            np.multiply(xhat, m_gx_xhat, out=tmp)
            ga -= tmp
            ga /= c["std"]
        else:
            ga = g
        grads[f"{li}.w"] = ga.swapaxes(-1, -2) @ c["x"]
        grads[f"{li}.b"] = np.add.reduce(ga, -2)
        g = ga @ layer.w if li or input_grad else None
    return g, grads


def forward_projection(params: NetworkParams, x: np.ndarray, train: bool = True):
    """Online pass that stops at the projector: x -> encoder -> projector -> z1.

    Returns (z1, cache) with z1 row-normalized; zero rows stay zero and are
    flagged in cache["z1_zero"]. This is forward_online without the
    predictor, for losses that read only z1: its cache holds no predictor
    entries, so backward takes the gradient w.r.t. z1 and, like
    commit_bn_stats, reaches the encoder and projector alone. With
    train=False batch norm uses running statistics and the cache's head
    entries are None. A (V, B, in) stack of views gives (V, B, d) z1 and a
    cache with the same view axis.
    """
    x = np.asarray(x, dtype=np.float64)
    cfg = params.config
    h, enc_cache = _head_forward(cfg, params.encoder, x, "encoder", train)
    u, proj_cache = _head_forward(cfg, params.projector, h, "projector", train)
    z1, z1_zero = _normalize(u)
    cache = {
        "x": x,
        "encoder": enc_cache,
        "projector": proj_cache,
        "u": u,
        "z1": z1,
        "z1_zero": z1_zero,
    }
    return z1, cache


def forward_online(params: NetworkParams, x: np.ndarray, train: bool = True):
    """Online pass: x -> encoder -> projector -> z1, predictor -> q1.

    Returns (z1, q1, cache) with z1 and q1 row-normalized. Rows whose
    pre-normalization output is exactly zero stay zero; their flags live in
    cache["z1_zero"] / cache["q1_zero"]. With train=False no cache is built
    and batch norm uses running statistics.
    """
    z1, cache = forward_projection(params, x, train)
    v, pred_cache = _head_forward(
        params.config, params.predictor, cache["u"], "predictor", train
    )
    q1, q1_zero = _normalize(v)
    if not train:
        return z1, q1, None
    cache.update(predictor=pred_cache, v=v, q1=q1, q1_zero=q1_zero)
    return z1, q1, cache


def forward_target(params: NetworkParams, x: np.ndarray) -> NDArray[np.float64]:
    """Target pass: encoder + projector with running-stat batch norm.

    The result is normalized and carries no cache; nothing computed here
    ever receives gradient.
    """
    return forward_projection(params, x, train=False)[0]


def embed(params: NetworkParams, x: np.ndarray) -> NDArray[np.float64]:
    """Normalized encoder features in evaluation mode (probe input)."""
    x = np.asarray(x, dtype=np.float64)
    h, _ = _head_forward(params.config, params.encoder, x, "encoder", False)
    return l2_normalize_rows(h)


def _normalize(a):
    """l2_normalize_rows, with flags, of every row of a (..., d) array."""
    unit, zero = l2_normalize_rows(a.reshape(-1, a.shape[-1]), return_flags=True)
    return unit.reshape(a.shape), zero.reshape(a.shape[:-1])


def _norm_backward(grad_unit, raw, unit, zero_mask):
    """Chain a gradient w.r.t. a unit row back to the raw row."""
    norms = np.sqrt(np.einsum("...j,...j->...", raw, raw))
    norms = np.where(zero_mask, 1.0, norms)
    radial = np.einsum("...j,...j->...", unit, grad_unit)
    out = (grad_unit - radial[..., None] * unit) / norms[..., None]
    out[zero_mask] = 0.0
    return out


def backward(
    params: NetworkParams, cache: dict, grad: np.ndarray
) -> dict[str, NDArray[np.float64]]:
    """Backpropagate a loss gradient into the heads the cache's pass ran.

    ``grad`` is with respect to the last normalized output of that pass, and
    shaped like it: q1 for a forward_online cache, z1 for a forward_projection
    cache. Gradients come back for those heads' trainable tensors only.
    """
    grads: dict[str, NDArray[np.float64]] = {}

    def head_backward(head, grad_out, input_grad=True):
        g, head_grads = _head_backward(
            params.config, params.head(head), cache[head], grad_out, input_grad
        )
        grads.update((f"{head}.{key}", val) for key, val in head_grads.items())
        return g

    g = np.asarray(grad, dtype=np.float64)
    if "predictor" in cache:
        g = _norm_backward(g, cache["v"], cache["q1"], cache["q1_zero"])
        g = head_backward("predictor", g)
    else:
        g = _norm_backward(g, cache["u"], cache["z1"], cache["z1_zero"])
    head_backward("encoder", head_backward("projector", g), input_grad=False)
    if cache["x"].ndim == 3:  # sum each parameter's per-view gradients in view order
        grads = {key: np.add.reduce(val, 0) for key, val in grads.items()}
    return grads


def commit_bn_stats(params: NetworkParams, cache: dict) -> None:
    """Fold the cached batch statistics into the running estimates.

    Running variance uses the unbiased batch variance, matching the usual
    train/eval convention. Called once per optimizer step by the trainer;
    forward passes themselves never touch running state. Only the heads
    the cache holds are folded: a forward_projection cache leaves the
    predictor's running statistics as they are. Views fold in view order.
    """
    if not params.config.bn:
        return
    m = params.config.bn_momentum
    for head in HEADS:
        for layer, c in zip(params.head(head), cache.get(head, ())):
            bsz = c["x"].shape[-2]
            var = c["var"] * (bsz / (bsz - 1)) if bsz > 1 else c["var"]
            width = var.shape[-1]
            for mu_v, var_v in zip(c["mu"].reshape(-1, width), var.reshape(-1, width)):
                layer.run_mean *= 1.0 - m
                layer.run_mean += m * mu_v
                layer.run_var *= 1.0 - m
                layer.run_var += m * var_v


@dataclass
class OptimizerState:
    """SGD-with-momentum buffers plus the warmup/cosine schedule."""

    momentum: float = 0.9
    weight_decay: float = 0.001
    warmup_epochs: int = 20
    total_epochs: int = 100
    base_lr: float = 0.0001
    peak_lr: float = 0.1
    floor_lr: float = 0.0
    step_count: int = 0
    buffers: dict[str, NDArray[np.float64]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"SGD momentum {self.momentum} outside [0, 1)")
        rates = {"weight decay": self.weight_decay, "base_lr": self.base_lr,
                 "peak_lr": self.peak_lr, "floor_lr": self.floor_lr}
        for name, value in rates.items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} {value} is not finite and nonnegative")
        warmup, total = self.warmup_epochs, self.total_epochs
        if warmup < 0:
            raise ValueError(f"warmup of {warmup} epochs is negative")
        if warmup > total:
            raise ValueError(f"warmup of {warmup} epochs exceeds {total} total epochs")


def lr_at(opt: OptimizerState, epoch: float) -> float:
    """Learning rate at a fractional epoch: linear warmup, then cosine.

    Warmup runs base_lr -> peak_lr over warmup_epochs; the cosine branch
    decays peak_lr -> floor_lr over the remaining epochs. The two branches
    agree at the boundary.
    """
    if epoch < 0 or epoch > opt.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {opt.total_epochs}]")
    if opt.warmup_epochs > 0 and epoch < opt.warmup_epochs:
        frac = epoch / opt.warmup_epochs
        return opt.base_lr + (opt.peak_lr - opt.base_lr) * frac
    span = opt.total_epochs - opt.warmup_epochs
    progress = (epoch - opt.warmup_epochs) / span if span > 0 else 0.0
    return opt.floor_lr + 0.5 * (opt.peak_lr - opt.floor_lr) * (
        1.0 + math.cos(math.pi * progress)
    )


def sgd_step(
    params: NetworkParams,
    grads: dict[str, np.ndarray],
    opt: OptimizerState,
    lr: float,
) -> NetworkParams:
    """In-place momentum SGD: buf <- mom*buf + (grad + wd*param); param -= lr*buf.

    Only the heads ``grads`` covers step, each with all of its tensors; a
    head backward did not reach keeps its tensors and gets no buffer. Every
    gradient is checked before the first write, so a bad dict changes nothing.
    """
    heads = [head for head in HEADS if any(key.startswith(f"{head}.") for key in grads)]
    if not heads:
        raise ValueError("missing gradients: no head is covered")
    for key, tensor in iter_trainable(params, heads):
        if key not in grads:
            raise ValueError(f"missing gradient for {key}")
        if grads[key].shape != tensor.shape:
            raise ValueError(f"gradient shape mismatch for {key}")
    for key, tensor in iter_trainable(params, heads):
        g = grads[key]
        buf = opt.buffers.get(key)
        if buf is None:
            buf = np.zeros_like(tensor)
            opt.buffers[key] = buf
        buf *= opt.momentum
        buf += g + opt.weight_decay * tensor
        tensor -= lr * buf
    opt.step_count += 1
    return params


def ema_update(
    target: NetworkParams, online: NetworkParams, m: float
) -> NetworkParams:
    """target <- m*target + (1-m)*online for every tensor, stats included."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    if target.config != online.config:
        raise ValueError("target/online architecture mismatch")
    names, rest = _fields(target.config), 1.0 - m
    for head in HEADS:
        for tl, ol in zip(target.head(head), online.head(head)):
            for name in names:
                tv = getattr(tl, name)
                tv *= m
                tv += rest * getattr(ol, name)
    return target


def save_checkpoint(
    params: NetworkParams,
    opt: OptimizerState,
    target: NetworkParams,
    path: str | Path,
) -> None:
    """Write the header, optimizer scalars, online tensors, buffers, target.

    Tensors go layer by layer in LAYER_FIELDS order; the momentum buffers
    follow the trainable tensors' order, a missing buffer written as zeros.
    """
    cfg = params.config
    with open(path, "wb") as fh:
        _binio.write_magic(fh, _CKPT_MAGIC, _CKPT_VERSION)
        _binio.write_u64(fh, cfg.in_dim)
        _binio.write_u8(fh, 1 if cfg.bn else 0)
        _binio.write_f64_array(fh, np.array([cfg.bn_eps, cfg.bn_momentum]))
        for head in HEADS:
            widths = getattr(cfg, head)
            _binio.write_u64(fh, len(widths))
            for w in widths:
                _binio.write_u64(fh, w)
        rates = [opt.momentum, opt.weight_decay, opt.base_lr, opt.peak_lr, opt.floor_lr]
        _binio.write_f64_array(fh, np.array(rates))
        for count in (opt.warmup_epochs, opt.total_epochs, opt.step_count):
            _binio.write_u64(fh, count)
        _write_tensors(fh, params)
        for key, tensor in iter_trainable(params):
            buf = opt.buffers.get(key)
            _binio.write_f64_array(
                fh, buf if buf is not None else np.zeros_like(tensor)
            )
        _write_tensors(fh, target)


def _write_tensors(fh, params: NetworkParams) -> None:
    for head, li, shapes in _layer_shapes(params.config):
        layer = params.head(head)[li]
        for name in shapes:
            _binio.write_f64_array(fh, getattr(layer, name))


def _check_checkpoint_size(cfg: NetworkConfig, left: int) -> None:
    """Raise unless the header's widths account for exactly ``left`` bytes.

    Runs before any tensor is allocated, so an absurd width in a corrupt
    header cannot turn into a huge allocation.
    """
    trainable = _fields(cfg, trainable=True)
    # optimizer scalars (5 f64, 3 u64); every tensor online and in the
    # target, and a momentum buffer for each trainable one
    values = 8 + sum(
        math.prod(shape) * (3 if name in trainable else 2)
        for _, _, shapes in _layer_shapes(cfg)
        for name, shape in shapes.items()
    )
    if 8 * values != left:
        raise _binio.FormatError(
            f"checkpoint widths imply {8 * values} bytes after the header, file holds {left}"
        )


def load_checkpoint(
    path: str | Path,
) -> tuple[NetworkParams, OptimizerState, NetworkParams]:
    with open(path, "rb") as fh:
        version = _binio.read_magic(fh, _CKPT_MAGIC)
        if version != _CKPT_VERSION:
            raise _binio.FormatError(f"unsupported checkpoint version {version}")
        in_dim = _binio.read_u64(fh)
        bn = _binio.read_flag(fh)
        bn_eps, bn_momentum = _binio.read_f64_array(fh, (2,))
        widths = {}
        for head in HEADS:
            n = _binio.read_u64(fh)
            if 8 * n > _binio.bytes_left(fh):
                raise _binio.FormatError(f"truncated file: {head} claims {n} layers")
            widths[head] = tuple(_binio.read_u64(fh) for _ in range(n))
        try:  # both dataclasses check their own fields when built
            cfg = NetworkConfig(
                in_dim=in_dim,
                bn=bn,
                bn_eps=float(bn_eps),
                bn_momentum=float(bn_momentum),
                **widths,
            )
            _check_checkpoint_size(cfg, _binio.bytes_left(fh))
            mom, wd, base, peak, floor = _binio.read_f64_array(fh, (5,))
            opt = OptimizerState(
                momentum=float(mom),
                weight_decay=float(wd),
                base_lr=float(base),
                peak_lr=float(peak),
                floor_lr=float(floor),
                warmup_epochs=_binio.read_u64(fh),
                total_epochs=_binio.read_u64(fh),
                step_count=_binio.read_u64(fh),
            )
        except ValueError as exc:
            raise _binio.FormatError(str(exc)) from exc

        def read(head, li, name, shape, section="online"):
            arr = _binio.read_f64_array(fh, shape)
            where = f"{section} {head}.{li}.{name}"
            if not np.isfinite(arr).all():
                raise _binio.FormatError(f"non-finite value in {where}")
            if name == "run_var" and (arr < 0).any():
                raise _binio.FormatError(f"negative running variance in {where}")
            return arr

        params = _build(cfg, read)
        for key, tensor in iter_trainable(params):
            opt.buffers[key] = read(*key.split("."), tensor.shape, section="buffer")
        target = _build(cfg, partial(read, section="target"))
    return params, opt, target
