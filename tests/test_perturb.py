import numpy as np
import pytest

from gradmarket import perturb
from gradmarket.field import FixedPointCodec
from gradmarket.perturb import (
    MaskSet,
    MlpModel,
    apply_masks,
    decrypt_aggregate,
    encrypted_gradient,
    flatten,
    flat_length,
    forward,
    plain_gradient,
    random_model,
    sample_masks,
    unflatten,
)


def _identity_masks(layer_sizes):
    L = len(layer_sizes) - 1
    return MaskSet(
        r_hidden=[np.ones(layer_sizes[i + 1]) for i in range(L - 1)],
        r_out=np.zeros(layer_sizes[-1]),
        gamma=np.zeros(layer_sizes[-1]),
    )


def _rand_data(rng, n, model):
    X = rng.normal(0, 1, (n, model.layer_sizes[0]))
    Y = rng.normal(0, 1, (n, model.layer_sizes[-1]))
    return X, Y


def test_model_needs_two_layers():
    with pytest.raises(ValueError):
        MlpModel([np.zeros((2, 3))])


@pytest.mark.parametrize("shapes", [
    [(8, 4), (2, 7)],        # layer 2 takes 7 inputs, layer 1 gives 8
    [(8, 4), (5, 8), (2, 8)],
    [(8, 4), (8,)],          # a weight that is not a matrix
    [(8, 4, 1), (2, 8)],
])
def test_model_refuses_weights_whose_shapes_do_not_chain(shapes):
    with pytest.raises(ValueError, match="do not chain"):
        MlpModel([np.zeros(s) for s in shapes])


@pytest.mark.parametrize("sizes", [(4, 8, 2), (3, 6, 5, 3), (1, 1, 1)])
def test_the_layer_sizes_are_read_from_the_weights(sizes):
    model = random_model(sizes, np.random.default_rng(0))
    assert model.layer_sizes == sizes
    assert [w.shape for w in model.weights] == [
        (sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)
    ]


def test_identity_masks_leave_model_unchanged():
    rng = np.random.default_rng(0)
    model = random_model((4, 8, 2), rng)
    enc = apply_masks(model, _identity_masks(model.layer_sizes))
    for a, b in zip(enc.weights, model.weights):
        assert np.allclose(a, b)


def test_two_layer_scalar_hand_case():
    # 1-1-1 network with r_1 = 2: first layer doubles, second halves plus
    # the additive term gamma_1 * r_out_1
    model = MlpModel([np.array([[3.0]]), np.array([[5.0]])])
    masks = MaskSet(r_hidden=[np.array([2.0])], r_out=np.array([0.7]), gamma=np.array([1.3]))
    enc = apply_masks(model, masks)
    assert np.isclose(enc.weights[0][0, 0], 6.0)
    assert np.isclose(enc.weights[1][0, 0], 2.5 + 1.3 * 0.7)


def test_masked_forward_matches_plain_when_gamma_zero():
    # positive multiplicative masks telescope through ReLU
    rng = np.random.default_rng(1)
    model = random_model((3, 6, 4, 2), rng)
    masks = perturb.sample_masks(model.layer_sizes, rng)
    masks.gamma[:] = 0.0
    enc = apply_masks(model, masks)
    X = rng.normal(0, 1, (10, 3))
    assert np.allclose(forward(enc, X), forward(model, X), atol=1e-10)


@pytest.mark.parametrize("sizes", [(4, 8, 2), (3, 6, 5, 3)])
def test_masked_output_is_true_output_plus_alpha_times_gamma_r_out(sizes):
    # ReLU's positive rescaling symmetry: the hidden masks telescope, and the
    # additive mask adds alpha(x) * gamma o r_out, with alpha the per-sample
    # sum of the masked model's last hidden activations
    rng = np.random.default_rng(3)
    model = random_model(sizes, rng)
    masks = sample_masks(sizes, rng)
    enc = apply_masks(model, masks)
    X = rng.normal(0, 1, (12, sizes[0]))
    alpha = perturb._forward_trace(enc.weights, X)[0][-2].sum(axis=1)
    expected = forward(model, X) + np.outer(alpha, masks.gamma * masks.r_out)
    assert np.allclose(forward(enc, X), expected)


def test_relu_pattern_invariant_under_masking():
    # positive multiplicative masks preserve every hidden layer's sign mask
    rng = np.random.default_rng(2)
    model = random_model((4, 7, 5, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc = apply_masks(model, masks)
    X = rng.normal(0, 1, (20, 4))
    _, plain_masks = perturb._forward_trace(model.weights, X)
    _, masked_masks = perturb._forward_trace(enc.weights, X)
    for a, b in zip(plain_masks, masked_masks):
        assert np.array_equal(a, b)


def test_plain_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = random_model((3, 5, 2), rng)  # 25 parameters
    X, Y = _rand_data(rng, 6, model)
    grads = plain_gradient(model, X, Y)
    eps = 1e-6
    for li, w in enumerate(model.weights):
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                w[r, c] += eps
                up = perturb.mse(model, X, Y) / 2
                w[r, c] -= 2 * eps
                down = perturb.mse(model, X, Y) / 2
                w[r, c] += eps
                fd = (up - down) / (2 * eps)
                assert abs(fd - grads[li][r, c]) <= 1e-5 * max(1.0, abs(fd))


def test_plain_gradient_zero_residual():
    rng = np.random.default_rng(4)
    model = random_model((3, 4, 2), rng)
    X = rng.normal(0, 1, (5, 3))
    Y = forward(model, X)
    grads = plain_gradient(model, X, Y)
    for g in grads:
        assert np.allclose(g, 0.0)


def test_plain_gradient_linearity_over_datasets():
    rng = np.random.default_rng(5)
    model = random_model((3, 4, 1), rng)
    X1, Y1 = _rand_data(rng, 4, model)
    X2, Y2 = _rand_data(rng, 4, model)
    g1 = plain_gradient(model, X1, Y1)
    g2 = plain_gradient(model, X2, Y2)
    gcat = plain_gradient(model, np.vstack([X1, X2]), np.vstack([Y1, Y2]))
    for a, b, c in zip(g1, g2, gcat):
        assert np.allclose((a + b) / 2, c)


def test_encrypted_gradient_identity_masks_equals_plain():
    rng = np.random.default_rng(6)
    model = random_model((4, 8, 2), rng)
    masks = _identity_masks(model.layer_sizes)
    enc = apply_masks(model, masks)
    X, Y = _rand_data(rng, 8, model)
    eg = encrypted_gradient(enc, masks.r_out, X, Y)
    pg = plain_gradient(model, X, Y)
    for block, b in zip(eg, pg):
        assert np.allclose(block[0], b)
    assert decrypt_aggregate(eg, masks)[0] == pytest.approx(pg[0], abs=1e-12)


def test_duplicated_samples_leave_averages_unchanged():
    rng = np.random.default_rng(7)
    model = random_model((3, 5, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 4, model)
    eg1 = encrypted_gradient(enc, r_out, X, Y)
    eg2 = encrypted_gradient(enc, r_out, np.vstack([X, X]), np.vstack([Y, Y]))
    for a, b in zip(flatten(eg1), flatten(eg2)):
        assert a == pytest.approx(b, abs=1e-12)


def test_zero_residual_zero_gamma_terms():
    # with gamma = 0 the masked prediction is the plain one; choosing y = yhat
    # kills the whole loss-driven gradient, and beta on the last layer is
    # always zero because alpha has no layer-L dependence
    rng = np.random.default_rng(8)
    model = random_model((3, 5, 2), rng)
    masks = perturb.sample_masks(model.layer_sizes, rng)
    masks.gamma[:] = 0.0
    enc = apply_masks(model, masks)
    X = rng.normal(0, 1, (6, 3))
    Y = forward(enc, X)
    eg = encrypted_gradient(enc, masks.r_out, X, Y)
    for block in eg:
        assert np.allclose(block[0], 0.0, atol=1e-12)
    assert np.allclose(eg[-1][-1], 0.0)
    assert not np.allclose(eg[0][-1], 0.0)


def test_decryption_identity_single_owner():
    rng = np.random.default_rng(9)
    model = random_model((4, 8, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 8, model)
    eg = encrypted_gradient(enc, r_out, X, Y)
    dec = decrypt_aggregate(eg, masks)
    pg = plain_gradient(model, X, Y)
    err = max(float(np.max(np.abs(a - b))) for a, b in zip(dec, pg))
    assert err <= 1e-6


def test_decryption_identity_pooled_owners():
    rng = np.random.default_rng(10)
    model = random_model((4, 8, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    shards = [_rand_data(rng, 8, model) for _ in range(4)]
    egs = [encrypted_gradient(enc, r_out, X, Y) for X, Y in shards]
    mean = np.mean([flatten(g) for g in egs], axis=0)
    dec = decrypt_aggregate(unflatten(mean, model.layer_sizes), masks)
    Xp = np.vstack([X for X, _ in shards])
    Yp = np.vstack([Y for _, Y in shards])
    pg = plain_gradient(model, Xp, Yp)
    err = max(float(np.max(np.abs(a - b))) for a, b in zip(dec, pg))
    assert err <= 1e-6


def test_decryption_identity_three_layers():
    rng = np.random.default_rng(11)
    model = random_model((3, 6, 5, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 10, model)
    dec = decrypt_aggregate(encrypted_gradient(enc, r_out, X, Y), masks)
    pg = plain_gradient(model, X, Y)
    err = max(float(np.max(np.abs(a - b))) for a, b in zip(dec, pg))
    assert err <= 1e-6


def test_flatten_roundtrip_and_length():
    rng = np.random.default_rng(12)
    model = random_model((4, 8, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 5, model)
    eg = encrypted_gradient(enc, r_out, X, Y)
    flat = flatten(eg)
    assert len(flat) == (2 + 2) * (4 * 8 + 8 * 2) == flat_length(model.layer_sizes)
    eg2 = unflatten(flat, model.layer_sizes)
    assert np.array_equal(flatten(eg2), flat)
    for a, b in zip(eg, eg2):
        assert np.array_equal(a[0], b[0])
    with pytest.raises(ValueError):
        unflatten(flat[:-1], model.layer_sizes)


def test_gradient_slices_cover_g_blocks():
    sizes = (4, 8, 2)
    slices = [(0, 32), (4 * 32, 16)]
    rng = np.random.default_rng(13)
    model = random_model(sizes, rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 5, model)
    eg = encrypted_gradient(enc, r_out, X, Y)
    flat = flatten(eg)
    for (start, length), block in zip(slices, eg):
        assert np.array_equal(flat[start : start + length], block[0].ravel())


@pytest.mark.parametrize("sizes", [(4, 8, 2), (3, 5, 4, 3)])
def test_wire_order_of_every_block(sizes):
    # per layer: G, sigma_1..sigma_p, beta, each n_{l+1} x n_l and row-major
    p = sizes[-1]
    m = (p + 2) * sum(sizes[l + 1] * sizes[l] for l in range(len(sizes) - 1))
    assert flat_length(sizes) == m
    vec = np.arange(m, dtype=float)
    eg = unflatten(vec, sizes)
    assert [b.shape for b in eg] == perturb.block_shapes(sizes)
    off = 0
    for l, (G, *sigma, beta) in enumerate(eg):
        shape = (sizes[l + 1], sizes[l])
        n = shape[0] * shape[1]
        assert len(sigma) == p
        for matrix in (G, *sigma, beta):
            assert np.array_equal(matrix, np.arange(off, off + n).reshape(shape))
            off += n
    assert off == m
    assert np.array_equal(flatten(eg), vec)


def test_quantized_pipeline_roundtrip_error():
    rng = np.random.default_rng(14)
    model = random_model((4, 8, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    X, Y = _rand_data(rng, 8, model)
    eg = encrypted_gradient(enc, r_out, X, Y)
    flat = flatten(eg)
    codec = FixedPointCodec(16)
    back = perturb.dequantize_vector(perturb.quantize_vector(flat, codec), codec)
    assert np.max(np.abs(back - flat)) <= 2**-17 + 1e-15


def test_published_model_serialization_is_stable():
    rng = np.random.default_rng(17)
    model = random_model((3, 4, 2), rng)
    masks = sample_masks(model.layer_sizes, rng)
    enc, r_out = apply_masks(model, masks), masks.r_out
    blob1 = perturb.serialize_published_model(enc, r_out)
    blob2 = perturb.serialize_published_model(enc, r_out)
    assert blob1 == blob2
    assert len(blob1) == 8 * (3 * 4 + 4 * 2 + 2)


@pytest.mark.parametrize("scale_bits", [0, 6, 12, 60, 120])
def test_quantize_vector_matches_per_element_quantize(scale_bits):
    codec = FixedPointCodec(scale_bits)
    bound = codec.bound
    # ties round half to even on both sides, at this scale and at scale 0
    ties = [0.5, -0.5, 1.5, -2.5]
    values = ties + [t / 2**scale_bits for t in ties] + [-0.0, 0.0, bound / 2, -bound / 2]
    rng = np.random.default_rng(scale_bits)
    values += list(rng.normal(0.0, 1.0, 64)) + list(rng.uniform(-bound, bound, 64))
    vec = np.array(values)
    assert perturb.quantize_vector(vec, codec) == [codec.quantize(float(x)) for x in vec]
    # the first value out of range raises the codec's own error
    for bad in (float("nan"), float("inf"), float("-inf"), bound, -bound):
        with pytest.raises(OverflowError) as expected:
            codec.quantize(bad)
        with pytest.raises(OverflowError) as raised:
            perturb.quantize_vector(np.array([0.25, bad, float("nan"), -bound]), codec)
        assert str(raised.value) == str(expected.value)
