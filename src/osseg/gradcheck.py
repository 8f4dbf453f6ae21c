"""Finite-difference verification of every backward rule and loss gradient.

Runs at 8x8 / 3-class scale: first each tensor op's gradient of a random
scalar projection, then the gradient of the three training losses, and of
their weighted sum over shared forward traces as a train step builds it,
with respect to every parameter tensor of a small model. Central
differences throughout; errors are norm-relative.
"""

from collections import OrderedDict

import numpy as np

from . import autograd as ag
from . import mixer
from .autograd import Tensor, cross_entropy_pixelwise
from .rng import derive_rng
from .segmodel import (
    AttentionPairing,
    ModelConfig,
    build_class_bias,
    forward,
    forward_cross,
    init_params,
)
from .styletransfer import FdaConfig, fda_stylize
from .synthdata import DomainSample, DomainTag
from .trainer import TrainConfig, pseudo_label

GATE = 1e-3

CHECK_MODEL = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2,
                          backbone_channels=(2, 4, 8))


def _fd_gradient(fn, arr, step):
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def _rel_error(a, b, atol=1e-7):
    na = np.linalg.norm(a.reshape(-1))
    nb = np.linalg.norm(b.reshape(-1))
    if max(na, nb) < atol:
        # Both sides are zero to below finite-difference noise; a flat
        # direction (e.g. a uniform logit shift) is a correct match.
        return 0.0
    return float(np.linalg.norm((a - b).reshape(-1)) / max(na, nb))


def _check_op(build, shapes, rng, step=1e-6):
    """Max rel error between analytic and FD gradients over all inputs."""
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = rng.standard_normal(out.shape)
    proj = ag.reshape(ag.mul(out, Tensor(w)), (1, out.size))
    proj = ag.matmul(proj, Tensor(np.ones((out.size, 1))))
    ag.backward(proj)
    worst = 0.0
    for arr, t in zip(arrays, tensors):
        def scalar():
            return float((build(*[Tensor(a) for a in arrays]).data * w).sum())
        fd = _fd_gradient(scalar, arr, step)
        analytic = t.grad if t.grad is not None else np.zeros_like(arr)
        worst = max(worst, _rel_error(analytic, fd))
    return worst


def _op_checks(rng):
    label = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    label[0, 0] = ag.IGNORE_LABEL
    checks = OrderedDict([
        ("ops.add", lambda: _check_op(ag.add, [(3, 4), (4,)], rng)),
        ("ops.mul", lambda: _check_op(ag.mul, [(3, 4), (3, 4)], rng)),
        ("ops.scale", lambda: _check_op(lambda a: ag.scale(a, 1.7), [(5,)], rng)),
        ("ops.matmul", lambda: _check_op(ag.matmul, [(3, 4), (4, 2)], rng)),
        ("ops.transpose", lambda: _check_op(ag.transpose, [(3, 5)], rng)),
        ("ops.reshape", lambda: _check_op(lambda a: ag.reshape(a, (2, 6)), [(3, 4)], rng)),
        ("ops.concat", lambda: _check_op(lambda a, b: ag.concat([a, b], 0), [(2, 3), (1, 3)], rng)),
        ("ops.slice", lambda: _check_op(lambda a: ag.slice_lastdim(a, 1, 3), [(2, 5)], rng)),
        ("ops.relu", lambda: _check_op(ag.relu, [(4, 4)], rng)),
        ("ops.softmax", lambda: _check_op(ag.softmax_lastdim, [(4, 5)], rng)),
        ("ops.layernorm", lambda: _check_op(ag.layernorm_lastdim, [(3, 6), (6,), (6,)], rng)),
        ("ops.conv2d", lambda: _check_op(
            lambda x, w: ag.conv2d(x, w, stride=1, pad=1), [(2, 5, 5), (3, 2, 3, 3)], rng)),
        # Odd input, and even input (the backbone's floor case).
        ("ops.conv2d_strided", lambda: max(_check_op(
            lambda x, w: ag.conv2d(x, w, stride=2, pad=1), [(2, h, h), (3, 2, 3, 3)], rng)
            for h in (7, 8))),
        ("ops.upsample2x", lambda: _check_op(ag.bilinear_upsample2x, [(2, 3, 4)], rng)),
        ("ops.cross_entropy", lambda: _check_op(
            lambda x: cross_entropy_pixelwise(x, label), [(3, 4, 4)], rng)),
    ])
    return OrderedDict((name, fn()) for name, fn in checks.items())


def _loss_setup(seed):
    """A miniature train-step state: stylized, mixed and bias inputs."""
    rng = derive_rng(seed, "gradcheck")
    student = init_params(CHECK_MODEL, seed=seed).trainable(True)
    teacher = student.copy()
    src_i = rng.random((8, 8, 3))
    src_j = rng.random((8, 8, 3))
    reference = rng.random((8, 8, 3))
    y_i = rng.integers(0, 3, (8, 8)).astype(np.uint8)
    pt_img = fda_stylize(src_i, reference, FdaConfig(beta=0.25))
    sampled = mixer.sample_classes(y_i, rng)
    mask = mixer.build_mask(y_i, sampled)
    pair = mixer.MixPair(
        donor=DomainSample(pt_img, y_i, DomainTag.PSEUDO_TARGET),
        acceptor=DomainSample(
            src_j, rng.integers(0, 3, (8, 8)).astype(np.uint8),
            DomainTag.SOURCE, pseudo_label=pseudo_label(teacher, src_j),
        ),
    )
    mixed = mixer.mix(pair, mask)
    bias = build_class_bias(3, sampled.classes)

    def cross(main, cond):
        return forward_cross(student, main, cond, bias, AttentionPairing.OURS_PT_TO_INTERMEDIATE)

    def l_step():
        # As in train_step: l_pt and the conditioning branch share the
        # pseudo-target trace, l_idr and the main branch the mixed trace.
        pt = forward(student, pt_img)
        mix = forward(student, mixed.image)
        l_cd = cross_entropy_pixelwise(cross(mix, pt).logits, mixed.label)
        return ag.add(
            ag.add(cross_entropy_pixelwise(pt.logits, y_i),
                   cross_entropy_pixelwise(mix.logits, mixed.label)),
            ag.scale(l_cd, TrainConfig.lambda_cd),
        )

    losses = OrderedDict([
        ("l_pt", lambda: cross_entropy_pixelwise(forward(student, pt_img).logits, y_i)),
        ("l_idr", lambda: cross_entropy_pixelwise(forward(student, mixed.image).logits, mixed.label)),
        ("l_cd", lambda: cross_entropy_pixelwise(
            cross(forward(student, mixed.image), forward(student, pt_img)).logits, mixed.label)),
        ("l_step", l_step),
    ])
    return student, losses


def _check_loss(student, loss_fn, step=1e-5):
    """Max rel error over every parameter tensor for one loss."""
    student.zero_grad()
    ag.backward(loss_fn())
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in student.tensors.items()}
    worst = 0.0
    for name, t in student.tensors.items():
        fd = _fd_gradient(lambda: loss_fn().item(), t.data, step)
        worst = max(worst, _rel_error(analytic[name], fd))
    return worst


def run_gradcheck(seed=0):
    """All finite-difference groups; returns OrderedDict name -> max rel error."""
    rng = derive_rng(seed, "gradcheck-ops")
    results = _op_checks(rng)
    student, losses = _loss_setup(seed)
    for name, loss_fn in losses.items():
        results[name] = _check_loss(student, loss_fn)
    return results
