"""The composed op chains that `autodiff.layer_norm`, `linear` and `attention`
fuse, kept as bitwise references for them.

Each function builds the graph the encoder and reader built before the fused
ops existed, one op per node, so its forward values and every gradient that
`backward` accumulates are the ones the fused node must reproduce exactly.
`FUSED` maps each fused op's name to its reference, for monkeypatching.
"""

import math

import numpy as np

from retforge import autodiff as ad


def layer_norm(x, gain, bias, eps):
    mean = ad.reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = ad.reduce_mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.power(var + ad.Tensor(np.array(eps)), -0.5)
    return ad.mul(centered, inv) * gain + bias


def linear(x, w, b):
    return ad.matmul(x, w) + b


def attention(q, k, v, heads, mask=None, bias=None):
    """Head split, scaled scores, softmax and head merge as separate nodes,
    for (..., T, d) projections with any number of leading axes."""
    *lead, t, d = q.shape
    dh = d // heads
    n = len(lead)

    def split(x):  # (..., T, d) -> (..., H, T, d / H)
        order = tuple(range(n)) + (n + 1, n, n + 2)
        return ad.transpose(ad.reshape(x, (*lead, x.shape[-2], heads, x.shape[-1] // heads)), order)

    qh, kh, vh = split(q), split(k), split(v)
    keys_t = ad.transpose(kh, tuple(range(n + 1)) + (n + 2, n + 1))
    scores = ad.scale(ad.matmul(qh, keys_t), 1.0 / math.sqrt(dh))
    if bias is not None:
        scores = scores + bias
    mixed = ad.matmul(ad.softmax(scores, mask=mask), vh)
    merged = ad.transpose(mixed, tuple(range(n)) + (n + 1, n, n + 2))
    return ad.reshape(merged, (*lead, t, v.shape[-1]))


def biased_attention(query, keys, values, bias):
    """The two-dimensional one-head chain `ad.biased_attention` replaced."""
    bias = bias if isinstance(bias, ad.Tensor) else ad.Tensor(bias)
    d = query.shape[1]
    logits = ad.add(ad.scale(ad.matmul(query, ad.transpose(keys, (1, 0))), 1.0 / math.sqrt(d)), bias)
    return ad.matmul(ad.softmax(logits), values)


FUSED = {"layer_norm": layer_norm, "linear": linear, "attention": attention}


def use_composed(monkeypatch):
    """Route every fused op through its composed reference."""
    for name, reference in FUSED.items():
        monkeypatch.setattr(ad, name, reference)
