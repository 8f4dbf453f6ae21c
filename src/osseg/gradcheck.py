"""Finite-difference verification of every backward rule and of the step loss.

Runs at 8x8 / 3-class scale: first each tensor op's gradient of a random
scalar projection, then the gradient of `trainer.step_loss`, the loss a
train step backpropagates, with respect to every parameter tensor of a
small model. Central differences throughout; errors are norm-relative.
"""

from collections import OrderedDict

import numpy as np

from . import autograd as ag
from .autograd import Tensor, cross_entropy_pixelwise
from .rng import derive_rng
from .segmodel import ModelConfig, init_params
from .styletransfer import fda_stylize
from .synthdata import DomainSample, DomainTag
from .trainer import AttentionPairing, TrainConfig, step_loss

GATE = 1e-3

CHECK_MODEL = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2,
                          backbone_channels=(2, 4, 8))


def fd_gradient(fn, arr, step):
    """Central-difference gradient of the scalar `fn()` w.r.t. every entry of
    `arr`, which `fn` reads and which is perturbed in place and restored."""
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


def rel_error(a, b, atol=1e-7):
    """Norm-relative error between two gradients."""
    na = np.linalg.norm(a.reshape(-1))
    nb = np.linalg.norm(b.reshape(-1))
    if max(na, nb) < atol:
        # Both sides are zero to below finite-difference noise; a flat
        # direction (e.g. a uniform logit shift) is a correct match.
        return 0.0
    return float(np.linalg.norm((a - b).reshape(-1)) / max(na, nb))


def check_op(build, shapes, rng, step=1e-6):
    """Max rel error between analytic and FD gradients over all inputs."""
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = rng.standard_normal(out.shape)
    n = out.size
    ag.backward(ag.matmul(ag.reshape(out, (1, n)), Tensor(w.reshape(n, 1))))
    worst = 0.0
    for arr, t in zip(arrays, tensors):
        def scalar():
            return float((build(*[Tensor(a) for a in arrays]).data * w).sum())
        fd = fd_gradient(scalar, arr, step)
        analytic = t.grad if t.grad is not None else np.zeros_like(arr)
        worst = max(worst, rel_error(analytic, fd))
    return worst


def _op_checks(rng):
    label = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    label[0, 0] = ag.IGNORE_LABEL
    # Three query blocks of 2 rows over two key blocks of 3 rows: blocks 0
    # and 2 share key block 1 and take block 1's query rows; a class bias
    # masks one key of block 0 and the whole second row of block 1, and
    # shifts block 2's logits.
    attn_bias = np.zeros((3, 2, 3))
    attn_bias[0, :, 1] = ag.MASKED_SENTINEL
    attn_bias[1, 1] = ag.MASKED_SENTINEL
    attn_bias[2] = rng.standard_normal((2, 3))
    checks = OrderedDict([
        ("ops.add", lambda: check_op(ag.add, [(3, 4), (4,)], rng)),
        ("ops.scale", lambda: check_op(lambda a: ag.scale(a, 1.7), [(5,)], rng)),
        ("ops.matmul", lambda: check_op(ag.matmul, [(3, 4), (4, 2)], rng)),
        ("ops.transpose", lambda: check_op(ag.transpose, [(3, 5)], rng)),
        ("ops.reshape", lambda: check_op(lambda a: ag.reshape(a, (2, 6)), [(3, 4)], rng)),
        ("ops.relu", lambda: check_op(ag.relu, [(4, 4)], rng)),
        ("ops.softmax", lambda: check_op(ag.softmax_lastdim, [(4, 5)], rng)),
        ("ops.attention", lambda: max(check_op(
            lambda *ts: ag.block_attention(*ts, [1, 0, 1], 3, attn_bias, 0.5, heads,
                                           [2, 3, 0, 1, 2, 3]),
            [(6, 4), (6, 5), (4, 4), (5, 4), (5, 4), (4, 3)], rng) for heads in (1, 2))),
        ("ops.layernorm", lambda: check_op(ag.layernorm_lastdim, [(3, 6)] * 2 + [(6,)] * 2, rng)),
        ("ops.ffn", lambda: check_op(ag.ffn, [(3, 4), (4, 6), (6,), (6, 4), (4,)], rng)),
        ("ops.conv2d", lambda: check_op(
            lambda x, w, b: ag.conv2d(x, w, b, stride=1, pad=1),
            [(2, 5, 5), (3, 2, 3, 3), (3, 1, 1)], rng)),
        # Odd input, and even input (the backbone's floor case).
        ("ops.conv2d_strided", lambda: max(check_op(
            lambda x, w, b: ag.conv2d(x, w, b, stride=2, pad=1),
            [(2, h, h), (3, 2, 3, 3), (3, 1, 1)], rng) for h in (7, 8))),
        ("ops.upsample2x", lambda: check_op(ag.bilinear_upsample2x, [(2, 3, 4)], rng)),
        ("ops.block_logits", lambda: check_op(
            lambda t, p: ag.block_logits(t, p, slice(2, 5)), [(6, 3), (3, 2, 3)], rng)),
        ("ops.cross_entropy", lambda: check_op(
            lambda x: cross_entropy_pixelwise(x, label), [(3, 4, 4)], rng)),
        ("ops.concat_rows", lambda: check_op(
            lambda *ps: ag.concat_rows(ps), [(2, 3), (1, 3), (3, 2, 2)], rng)),
    ])
    return OrderedDict((name, fn()) for name, fn in checks.items())


def _step_losses(seed):
    """`step_loss` on 8x8 source, pseudo-target and acceptor samples.

    `step.ours` runs OURS_PT_TO_INTERMEDIATE with IDR on a batch of two
    distinct samples, so image keys shared by a mixed block and its cross
    block are differentiated; `step.variant_st` runs VARIANT_ST without
    IDR on the first sample alone. Together they cover l_pt,
    l_idr, l_src and l_cd with both slot assignments. With lambda_cd = 1
    the cross pass weighs as much as the other terms, and a fresh step
    stream per evaluation draws the same crops and classes every time.
    """
    rng = derive_rng(seed, "gradcheck")
    student = init_params(CHECK_MODEL, seed=seed).trainable(True)
    teacher = student.copy()

    def samples():
        src = DomainSample(rng.random((8, 8, 3)), rng.integers(0, 3, (8, 8)).astype(np.uint8))
        pt = DomainSample(fda_stylize(src.image, rng.random((8, 8, 3)), beta=0.25),
                          src.label, DomainTag.PSEUDO_TARGET)
        acceptor = DomainSample(rng.random((8, 8, 3)),
                                rng.integers(0, 3, (8, 8)).astype(np.uint8))
        return src, pt, acceptor

    first, second = samples(), samples()

    def loss_fn(batch, **kw):
        cfg = TrainConfig(batch=len(batch), crop=8, lambda_cd=1.0, **kw)
        srcs, pts, acceptors = zip(*batch)
        return lambda: step_loss(student, teacher, srcs, pts, acceptors,
                                 derive_rng(seed, "gradcheck-step"), cfg)[0]

    losses = OrderedDict([
        ("step.ours", loss_fn([first, second],
                              pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)),
        ("step.variant_st", loss_fn([first], pairing=AttentionPairing.VARIANT_ST,
                                    use_idr=False)),
    ])
    return student, losses


def _check_loss(student, loss_fn, step=1e-5):
    """Max rel error over every parameter tensor for one loss.

    The finite differences run with the student's tracking off, so their
    evaluations build no backward graph.
    """
    student.zero_grad()
    ag.backward(loss_fn())
    analytic = {name: t.grad.copy() for name, t in student.tensors.items()}
    worst = 0.0
    student.trainable(False)
    try:
        for name, t in student.tensors.items():
            fd = fd_gradient(lambda: loss_fn().item(), t.data, step)
            worst = max(worst, rel_error(analytic[name], fd))
    finally:
        student.trainable(True)
    return worst


def run_gradcheck(seed=0):
    """All finite-difference groups; returns OrderedDict name -> max rel error."""
    rng = derive_rng(seed, "gradcheck-ops")
    results = _op_checks(rng)
    student, losses = _step_losses(seed)
    for name, loss_fn in losses.items():
        results[name] = _check_loss(student, loss_fn)
    return results
