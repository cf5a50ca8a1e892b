"""MLP model perturbation: masked forward/backward passes that decrypt exactly.

The model owner multiplies each weight matrix by a structured positive mask
(plus an additive mask on the last layer) before publishing it. Because ReLU
is positively homogeneous, the hidden masks telescope through the forward
pass, and a data owner's gradient computed on the masked model carries the
true gradient in recoverable form. Alongside the masked gradient, the data
owner reports two correction statistics built from the last-hidden-layer
activation sum alpha: per-output Jacobian terms (sigma) and the alpha
self-term (beta). The owner of the masks removes the additive contamination
exactly:

    R^(l) o (G - sum_i gamma_i sigma_i + |gamma o r_a|^2 beta) = grad F(W^(l))

The model is its weights, and an encrypted gradient is its list of blocks,
one per weight layer, laid out by `block_shapes`. All arithmetic here is in
float64; fixed-point quantization happens once, after the flatten step and
before secret sharing.

Only ReLU hidden activations with a linear output layer and mean squared
loss (with the 1/2 factor) are supported; the masking identity depends on
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Q, FixedPointCodec


@dataclass
class MlpModel:
    """Feed-forward network, which is its weights: weights[i] maps activations
    i -> i+1 (no biases), so its shape is (n_{i+1}, n_i)."""

    weights: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need at least two weight layers (L >= 2)")
        shapes = [np.shape(w) for w in self.weights]
        if any(len(s) != 2 for s in shapes) or any(
            a[0] != b[1] for a, b in zip(shapes, shapes[1:])
        ):
            raise ValueError(f"weight shapes {shapes} do not chain")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def random_model(layer_sizes, rng: np.random.Generator) -> MlpModel:
    """He-style random init: 0.5/sqrt(fan_in) normal entries."""
    weights = [
        rng.normal(0.0, 0.5 / np.sqrt(layer_sizes[i]), (layer_sizes[i + 1], layer_sizes[i]))
        for i in range(len(layer_sizes) - 1)
    ]
    return MlpModel(weights)


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batch prediction: ReLU hidden layers, linear output."""
    return _forward_trace(model.weights, X)[0][-1]


def mse(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> float:
    d = forward(model, X) - Y
    return float(np.mean(np.sum(d * d, axis=1)))


def _forward_trace(weights: list[np.ndarray], X: np.ndarray):
    """Activations list (inputs first) and pre-activation sign masks."""
    acts = [X]
    relu_mask = []
    last = len(weights) - 1
    for i, w in enumerate(weights):
        z = acts[-1] @ w.T
        if i == last:
            acts.append(z)
        else:
            relu_mask.append(z > 0)
            acts.append(np.maximum(z, 0.0))
    return acts, relu_mask


def _backprop(weights: list[np.ndarray], relu_mask, d: np.ndarray, top: int) -> list[np.ndarray]:
    """d-matrices of layers 0..top, backpropagated from the seed d at layer top."""
    ds = [d]
    for i in range(top, 0, -1):
        ds.append((ds[-1] @ weights[i]) * relu_mask[i - 1])
    return ds[::-1]


def plain_gradient(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> list[np.ndarray]:
    """Exact gradient of the mean of (1/2)||yhat - y||^2 over the dataset."""
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    L = model.num_layers
    acts, relu_mask = _forward_trace(model.weights, X)
    ds = _backprop(model.weights, relu_mask, acts[-1] - Y, L - 1)
    return [ds[i].T @ acts[i] / X.shape[0] for i in range(L)]


@dataclass
class MaskSet:
    """The model owner's private masking material.

    r_hidden[i] masks hidden layer i+1 (positive entries); gamma and r_out
    drive the additive mask on the output layer. r_out is published to the
    data owners; everything else stays private.
    """

    r_hidden: list[np.ndarray]
    r_out: np.ndarray
    gamma: np.ndarray

    def R(self, i: int) -> np.ndarray:
        """Multiplicative mask for weights[i]: rows[i] / cols[i] with rows =
        (r_hidden..., 1) and cols = (1, r_hidden...). The unmasked ends are
        np.ones(1), so the first and last masks broadcast over the weight."""
        one = np.ones(1)
        rows = [*self.r_hidden, one]
        cols = [one, *self.r_hidden]
        return np.outer(rows[i], 1.0 / cols[i])


def sample_masks(
    layer_sizes, rng: np.random.Generator, additive_sigma: float = 1.0
) -> MaskSet:
    """Positive multiplicative masks in [0.5, 2.0]; normal additive masks.

    additive_sigma scales gamma and r_out; smaller values keep the masked
    gradient close to the plain gradient in magnitude, which keeps the
    norm-validation circuit small.
    """
    L = len(layer_sizes) - 1
    r_hidden = [rng.uniform(0.5, 2.0, layer_sizes[i + 1]) for i in range(L - 1)]
    r_out = rng.normal(0.0, additive_sigma, layer_sizes[L])
    gamma = rng.normal(0.0, additive_sigma, layer_sizes[L])
    return MaskSet(r_hidden=r_hidden, r_out=r_out, gamma=gamma)


def apply_masks(model: MlpModel, masks: MaskSet) -> MlpModel:
    """The masked model: each weight times its mask R(i), and on the last
    layer the additive mask, whose row j is gamma_j * r_out_j."""
    enc = [masks.R(i) * w for i, w in enumerate(model.weights)]
    enc[-1] = enc[-1] + np.outer(masks.gamma * masks.r_out, np.ones(1))
    return MlpModel(enc)


def block_shapes(layer_sizes) -> list[tuple[int, int, int]]:
    """The encrypted gradient's layout, stated once: one block per weight layer.

    Layer l's block has shape (p + 2, n_{l+1}, n_l): index 0 is the masked
    gradient G, 1..p are sigma_1..sigma_p (sigma_i already scaled by
    r_out[i - 1]), and p + 1 is beta. The wire order is the blocks in layer
    order, each in C (row-major) order.
    """
    sizes = tuple(layer_sizes)
    return [(sizes[-1] + 2, sizes[l + 1], sizes[l]) for l in range(len(sizes) - 1)]


def encrypted_gradient(
    enc_model: MlpModel, r_out: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> list[np.ndarray]:
    """A data owner's report: the blocks (G, sigma, beta) of the backward pass
    on the masked model, one per weight layer, laid out by block_shapes.

    alpha is the per-sample sum of last-hidden activations; sigma_i combines
    alpha-weighted output Jacobians with residual-weighted alpha Jacobians,
    and beta is the alpha self-term. All three are sample averages.
    """
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    sizes = enc_model.layer_sizes
    L = enc_model.num_layers
    p = sizes[-1]
    if X.shape[1] != sizes[0] or Y.shape[1] != p:
        raise ValueError("dataset dimensions do not match the model")
    M = X.shape[0]
    W = enc_model.weights
    acts, relu_mask = _forward_trace(W, X)
    alpha = np.sum(acts[L - 1], axis=1)  # (M,)
    resid = acts[L] - Y  # masked residual, (M, p)

    # standard backprop for the masked gradient
    ds = _backprop(W, relu_mask, resid, L - 1)

    # backprop seeds: per-output unit vectors (output Jacobians) and the
    # all-ones seed at the last hidden layer (alpha Jacobian)
    J: list[list[np.ndarray]] = []  # J[i_out][i]: d-matrix of output i_out at layer i
    for i_out in range(p):
        d = np.zeros((M, p))
        d[:, i_out] = 1.0
        J.append(_backprop(W, relu_mask, d, L - 1))
    # alpha backprop d-matrices; A[L-1] is zero
    A = _backprop(W, relu_mask, relu_mask[L - 2].astype(float), L - 2) + [np.zeros((M, p))]

    blocks = []
    for i in range(L):
        base = acts[i]
        sigma = []
        for i_out in range(p):
            s = (J[i_out][i] * alpha[:, None]).T @ base
            s += (A[i] * resid[:, [i_out]]).T @ base
            sigma.append(r_out[i_out] * s / M)
        beta = (A[i] * alpha[:, None]).T @ base / M
        blocks.append(np.stack([ds[i].T @ base / M, *sigma, beta]))
    return blocks


def decrypt_aggregate(blocks: list[np.ndarray], masks: MaskSet) -> list[np.ndarray]:
    """Recover the plaintext gradient from the blocks of an averaged
    encrypted gradient."""
    c2 = float(np.sum((masks.gamma * masks.r_out) ** 2))
    out = []
    for i, (G, *sigma, beta) in enumerate(blocks):
        corr = G.copy()
        for i_out, s in enumerate(sigma):
            corr -= masks.gamma[i_out] * s
        corr += c2 * beta
        out.append(masks.R(i) * corr)
    return out


# ---------------------------------------------------------------------------
# Flattening and quantization
# ---------------------------------------------------------------------------

def flatten(blocks: list[np.ndarray]) -> np.ndarray:
    """The wire vector: the blocks ravelled and concatenated."""
    return np.concatenate([block.ravel() for block in blocks])


def unflatten(vec: np.ndarray, layer_sizes) -> list[np.ndarray]:
    """The blocks of a wire vector, shaped by block_shapes(layer_sizes)."""
    shapes = block_shapes(layer_sizes)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if len(vec) != ends[-1]:
        raise ValueError("flattened vector length does not match layer sizes")
    parts = np.split(np.asarray(vec, dtype=float), ends[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def flat_length(layer_sizes) -> int:
    return sum(math.prod(shape) for shape in block_shapes(layer_sizes))


def quantize_vector(vec: np.ndarray, codec: FixedPointCodec) -> list[int]:
    """`codec.quantize` of each value: the scaling is exact and `np.rint`
    rounds half to even, as `round` does. The first bad value raises."""
    in_range = np.abs(vec) < codec.bound  # false for NaN
    if not in_range.all():
        codec.quantize(float(vec[np.argmin(in_range)]))
    return [int(v) % Q for v in np.rint(vec * 2.0**codec.scale_bits).tolist()]


def dequantize_vector(values: list[int], codec: FixedPointCodec) -> np.ndarray:
    return np.array([codec.dequantize(v) for v in values], dtype=float)


def serialize_published_model(enc_model: MlpModel, r_out: np.ndarray) -> bytes:
    """Canonical bytes of the published (masked model, r_out) pair:
    row-major little-endian float64, weights then r_out."""
    parts = [w.astype("<f8").tobytes(order="C") for w in enc_model.weights]
    parts.append(np.asarray(r_out, dtype="<f8").tobytes())
    return b"".join(parts)
