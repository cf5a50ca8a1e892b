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

All arithmetic here is in float64; fixed-point quantization happens once,
at the flatten step before secret sharing.

Only ReLU hidden activations with a linear output layer and mean squared
loss (with the 1/2 factor) are supported; the masking identity depends on
both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .field import FixedPointCodec


@dataclass
class MlpModel:
    """Feed-forward network; weights[i] maps activations i -> i+1 (no biases)."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least two weight layers (L >= 2)")
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("weight count does not match layer sizes")
        for i, w in enumerate(self.weights):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect:
                raise ValueError(f"layer {i + 1} shape {w.shape} != {expect}")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return sum(w.size for w in self.weights)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_sizes, [w.copy() for w in self.weights])


def random_model(layer_sizes, rng: np.random.Generator, scale: float = 0.5) -> MlpModel:
    """He-style random init: scale/sqrt(fan_in) normal entries."""
    weights = [
        rng.normal(0.0, scale / np.sqrt(layer_sizes[i]), (layer_sizes[i + 1], layer_sizes[i]))
        for i in range(len(layer_sizes) - 1)
    ]
    return MlpModel(tuple(layer_sizes), weights)


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batch prediction: ReLU hidden layers, linear output."""
    a = X
    last = model.num_layers - 1
    for i, w in enumerate(model.weights):
        z = a @ w.T
        a = z if i == last else np.maximum(z, 0.0)
    return a


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


def plain_gradient(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> list[np.ndarray]:
    """Exact gradient of the mean of (1/2)||yhat - y||^2 over the dataset."""
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    L = model.num_layers
    acts, relu_mask = _forward_trace(model.weights, X)
    M = X.shape[0]
    grads: list[np.ndarray] = [np.empty(0)] * L
    d = acts[-1] - Y
    for i in range(L - 1, -1, -1):
        grads[i] = d.T @ acts[i] / M
        if i > 0:
            d = (d @ model.weights[i]) * relu_mask[i - 1]
    return grads


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

    def R(self, i: int, layer_sizes) -> np.ndarray:
        """Multiplicative mask matrix for weights[i] (shape n_{i+1} x n_i)."""
        L = len(layer_sizes) - 1
        if i == 0:
            col = np.ones(layer_sizes[0])
            return np.outer(self.r_hidden[0], col)
        if i < L - 1:
            return np.outer(self.r_hidden[i], 1.0 / self.r_hidden[i - 1])
        return np.outer(np.ones(layer_sizes[L]), 1.0 / self.r_hidden[L - 2])

    def R_additive(self, layer_sizes) -> np.ndarray:
        """Additive mask on the last layer: row i is gamma_i * r_out_i."""
        return np.outer(self.gamma * self.r_out, np.ones(layer_sizes[-2]))


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


def encrypt_model(
    model: MlpModel, rng: np.random.Generator, additive_sigma: float = 1.0
) -> tuple[MlpModel, np.ndarray, MaskSet]:
    """Mask the model; returns (masked model, public r_out, private masks)."""
    masks = sample_masks(model.layer_sizes, rng, additive_sigma)
    return apply_masks(model, masks), masks.r_out.copy(), masks


def apply_masks(model: MlpModel, masks: MaskSet) -> MlpModel:
    L = model.num_layers
    enc = []
    for i, w in enumerate(model.weights):
        wm = masks.R(i, model.layer_sizes) * w
        if i == L - 1:
            wm = wm + masks.R_additive(model.layer_sizes)
        enc.append(wm)
    return MlpModel(model.layer_sizes, enc)


@dataclass
class EncryptedGradient:
    """A data owner's report: masked gradient plus correction statistics.

    sigma[l][i] has the shape of weight layer l, one matrix per output
    index i, already scaled by r_out[i]. Flattened order per layer:
    G, then sigma_1..sigma_p, then beta, row-major within each matrix.
    """

    layer_sizes: tuple[int, ...]
    G: list[np.ndarray]
    sigma: list[list[np.ndarray]]
    beta: list[np.ndarray]

    @property
    def flat_length(self) -> int:
        return flat_length(self.layer_sizes)


def encrypted_gradient(
    enc_model: MlpModel, r_out: np.ndarray, X: np.ndarray, Y: np.ndarray
) -> EncryptedGradient:
    """Backward pass on the masked model producing (G, sigma, beta).

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
    G: list[np.ndarray] = [np.empty(0)] * L
    d = resid
    for i in range(L - 1, -1, -1):
        G[i] = d.T @ acts[i] / M
        if i > 0:
            d = (d @ W[i]) * relu_mask[i - 1]

    # backprop seeds: per-output unit vectors (output Jacobians) and the
    # all-ones seed at the last hidden layer (alpha Jacobian)
    J: list[list[np.ndarray]] = [[None] * p for _ in range(L)]  # d-matrices per layer
    for i_out in range(p):
        d = np.zeros((M, p))
        d[:, i_out] = 1.0
        for i in range(L - 1, -1, -1):
            J[i][i_out] = d
            if i > 0:
                d = (d @ W[i]) * relu_mask[i - 1]
    A: list[np.ndarray] = [None] * L  # alpha backprop d-matrices; A[L-1] is zero
    a = relu_mask[L - 2].astype(float)
    for i in range(L - 2, -1, -1):
        A[i] = a
        if i > 0:
            a = (a @ W[i]) * relu_mask[i - 1]
    A[L - 1] = np.zeros((M, p))

    sigma: list[list[np.ndarray]] = []
    beta: list[np.ndarray] = []
    for i in range(L):
        base = acts[i]
        beta.append((A[i] * alpha[:, None]).T @ base / M)
        layer_sigma = []
        for i_out in range(p):
            s = (J[i][i_out] * alpha[:, None]).T @ base
            s += (A[i] * resid[:, [i_out]]).T @ base
            layer_sigma.append(r_out[i_out] * s / M)
        sigma.append(layer_sigma)
    return EncryptedGradient(layer_sizes=sizes, G=G, sigma=sigma, beta=beta)


def decrypt_aggregate(agg: EncryptedGradient, masks: MaskSet) -> list[np.ndarray]:
    """Recover the plaintext gradient from an averaged encrypted gradient."""
    sizes = agg.layer_sizes
    c2 = float(np.sum((masks.gamma * masks.r_out) ** 2))
    out = []
    for i in range(len(sizes) - 1):
        corr = agg.G[i].copy()
        for i_out, s in enumerate(agg.sigma[i]):
            corr -= masks.gamma[i_out] * s
        corr += c2 * agg.beta[i]
        out.append(masks.R(i, sizes) * corr)
    return out


def average_encrypted(grads: list[EncryptedGradient]) -> EncryptedGradient:
    """Plain average of encrypted gradients (the real-arithmetic path)."""
    if not grads:
        raise ValueError("nothing to average")
    sizes = grads[0].layer_sizes
    n = len(grads)
    L = len(sizes) - 1
    p = sizes[-1]
    G = [sum(g.G[i] for g in grads) / n for i in range(L)]
    beta = [sum(g.beta[i] for g in grads) / n for i in range(L)]
    sigma = [
        [sum(g.sigma[i][j] for g in grads) / n for j in range(p)] for i in range(L)
    ]
    return EncryptedGradient(layer_sizes=sizes, G=G, sigma=sigma, beta=beta)


# ---------------------------------------------------------------------------
# Flattening and quantization
# ---------------------------------------------------------------------------

def flatten(eg: EncryptedGradient) -> np.ndarray:
    """Fixed wire order: per layer, G | sigma_1..sigma_p | beta, row-major."""
    parts = []
    for i in range(len(eg.G)):
        parts.append(eg.G[i].ravel())
        for s in eg.sigma[i]:
            parts.append(s.ravel())
        parts.append(eg.beta[i].ravel())
    return np.concatenate(parts)


def unflatten(vec: np.ndarray, layer_sizes) -> EncryptedGradient:
    sizes = tuple(layer_sizes)
    L = len(sizes) - 1
    p = sizes[-1]
    G, sigma, beta = [], [], []
    off = 0

    def take(rows, cols):
        nonlocal off
        n = rows * cols
        block = np.asarray(vec[off : off + n], dtype=float).reshape(rows, cols)
        off += n
        return block

    for i in range(L):
        rows, cols = sizes[i + 1], sizes[i]
        G.append(take(rows, cols))
        sigma.append([take(rows, cols) for _ in range(p)])
        beta.append(take(rows, cols))
    if off != len(vec):
        raise ValueError("flattened vector length does not match layer sizes")
    return EncryptedGradient(layer_sizes=sizes, G=G, sigma=sigma, beta=beta)


def flat_length(layer_sizes) -> int:
    """Length of the flat vector: G, p sigma matrices and beta per layer."""
    sizes = tuple(layer_sizes)
    return (sizes[-1] + 2) * sum(sizes[i + 1] * sizes[i] for i in range(len(sizes) - 1))


def gradient_slices(layer_sizes) -> list[tuple[int, int]]:
    """(start, length) of each layer's masked-gradient block in the flat order."""
    sizes = tuple(layer_sizes)
    p = sizes[-1]
    out = []
    off = 0
    for i in range(len(sizes) - 1):
        n = sizes[i + 1] * sizes[i]
        out.append((off, n))
        off += (p + 2) * n
    return out


def quantize_vector(vec: np.ndarray, codec: FixedPointCodec) -> list[int]:
    return [codec.quantize(float(x)) for x in vec]


def dequantize_vector(values: list[int], codec: FixedPointCodec) -> np.ndarray:
    return np.array([codec.dequantize(v) for v in values], dtype=float)


# ---------------------------------------------------------------------------
# File formats (row-major float64 with explicit layer-size header)
# ---------------------------------------------------------------------------

def model_to_json(model: MlpModel) -> str:
    doc = {
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.ravel().tolist() for w in model.weights],
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> MlpModel:
    doc = json.loads(text)
    sizes = tuple(int(n) for n in doc["layer_sizes"])
    weights = []
    for i, flat in enumerate(doc["weights"]):
        rows, cols = sizes[i + 1], sizes[i]
        weights.append(np.array(flat, dtype=float).reshape(rows, cols))
    return MlpModel(sizes, weights)


def dataset_to_json(X: np.ndarray, Y: np.ndarray) -> str:
    doc = {
        "dims": [int(X.shape[1]), int(Y.shape[1])],
        "inputs": X.ravel().tolist(),
        "labels": Y.ravel().tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def dataset_from_json(text: str) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(text)
    d, p = doc["dims"]
    X = np.array(doc["inputs"], dtype=float).reshape(-1, d)
    Y = np.array(doc["labels"], dtype=float).reshape(-1, p)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("inputs and labels disagree on sample count")
    return X, Y


def serialize_published_model(enc_model: MlpModel, r_out: np.ndarray) -> bytes:
    """Canonical bytes of the published (masked model, r_out) pair:
    row-major little-endian float64, weights then r_out."""
    parts = [w.astype("<f8").tobytes(order="C") for w in enc_model.weights]
    parts.append(np.asarray(r_out, dtype="<f8").tobytes())
    return b"".join(parts)
