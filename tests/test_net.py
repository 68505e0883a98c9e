import itertools

import numpy as np
import pytest

from nswave import net
from nswave.errors import ShapeError, StateError, TrainingError


def conv1d_loop(x, weight, bias, stride, offset, padding):
    """Direct triple-loop reference for the 1D convolution."""
    batch, n, cin = x.shape
    w, _, cout = weight.shape
    n_out = n // stride
    out = np.zeros((batch, n_out, cout))
    for b in range(batch):
        for i in range(n_out):
            for co in range(cout):
                acc = 0.0 if bias is None else bias[co]
                for j in range(w):
                    for c in range(cin):
                        k = i * stride + offset + j
                        if padding == "periodic":
                            acc += weight[j, c, co] * x[b, k % n, c]
                        elif 0 <= k < n:
                            acc += weight[j, c, co] * x[b, k, c]
                out[b, i, co] = acc
    return out


def conv2d_loop(x, weight, bias, stride, offset, padding):
    batch, n1, n2, cin = x.shape
    w = weight.shape[0]
    cout = weight.shape[3]
    out = np.zeros((batch, n1 // stride, n2 // stride, cout))
    for b in range(batch):
        for i1 in range(n1 // stride):
            for i2 in range(n2 // stride):
                for co in range(cout):
                    acc = 0.0 if bias is None else bias[co]
                    for j1 in range(w):
                        for j2 in range(w):
                            k1 = i1 * stride + offset + j1
                            k2 = i2 * stride + offset + j2
                            for c in range(cin):
                                if padding == "periodic":
                                    acc += weight[j1, j2, c, co] \
                                        * x[b, k1 % n1, k2 % n2, c]
                                elif 0 <= k1 < n1 and 0 <= k2 < n2:
                                    acc += weight[j1, j2, c, co] * x[b, k1, k2, c]
                    out[b, i1, i2, co] = acc
    return out


def test_conv1d_constant_input_window3():
    conv = net.Conv(1, 1, 1, 3, rng=np.random.default_rng(0))
    conv.weight[...] = 1.0
    conv.bias[...] = 0.0
    y, _ = conv.forward(np.ones((1, 8, 1)))
    assert np.allclose(y, 3.0, atol=1e-15)


def test_relu_clamps_negative_preactivation():
    conv = net.Conv(1, 1, 1, 2, activation="relu",
                    rng=np.random.default_rng(0))
    conv.weight[...] = -1.0
    conv.bias[...] = 0.0
    y, _ = conv.forward(np.ones((1, 8, 1)))
    assert np.all(y == 0.0)


@pytest.mark.parametrize("padding,offset", [("periodic", 0), ("zero", -1)])
def test_conv1d_matches_loop_oracle(padding, offset):
    rng = np.random.default_rng(7)
    conv = net.Conv(1, 2, 3, 4, stride=2, padding=padding,
                      base_offset=offset, rng=rng)
    x = rng.standard_normal((2, 8, 2))
    y, _ = conv.forward(x)
    ref = conv1d_loop(x, conv.weight, conv.bias, 2, offset, padding)
    assert np.max(np.abs(y - ref)) < 1e-13


@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_conv2d_matches_loop_oracle(padding):
    rng = np.random.default_rng(8)
    conv = net.Conv(2, 2, 2, 3, stride=2, padding=padding, base_offset=-1,
                      rng=rng)
    x = rng.standard_normal((2, 6, 6, 2))
    y, _ = conv.forward(x)
    ref = conv2d_loop(x, conv.weight, conv.bias, 2, -1, padding)
    assert np.max(np.abs(y - ref)) < 1e-13


def test_conv2d_identity_1x1_kernel():
    conv = net.Conv(2, 2, 2, 1, rng=np.random.default_rng(0))
    conv.weight[0, 0] = np.eye(2)
    conv.bias[...] = 0.0
    x = np.random.default_rng(1).standard_normal((1, 4, 4, 2))
    y, _ = conv.forward(x)
    assert np.max(np.abs(y - x)) < 1e-15


def test_periodic_conv_commutes_with_cyclic_shift_exactly():
    rng = np.random.default_rng(9)
    conv = net.Conv(1, 2, 2, 5, stride=1, rng=rng)
    x = rng.standard_normal((1, 16, 2))
    y_ref, _ = conv.forward(x)
    for shift in (1, 3, 7):
        y_shift, _ = conv.forward(np.roll(x, shift, axis=1))
        assert np.array_equal(y_shift, np.roll(y_ref, shift, axis=1))


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(10)
    conv = net.Conv(2, 3, 4, 3, stride=1, activation="relu", rng=rng)
    x = rng.standard_normal((2, 8, 8, 3))
    y1, _ = conv.forward(x)
    y2, _ = conv.forward(x)
    assert np.array_equal(y1, y2)


def _fd_input_grad(loss, x, eps=1e-5):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss()
        flat[i] = orig - eps
        lm = loss()
        flat[i] = orig
        gf[i] = (lp - lm) / (2 * eps)
    return g


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_gradients_random_seeds(seed):
    rng = np.random.default_rng(seed)
    conv = net.Conv(1, 2, 3, 4, stride=2, activation="relu",
                      padding="periodic" if seed % 2 else "zero", rng=rng)
    x = rng.standard_normal((2, 8, 2))
    tgt = rng.standard_normal((2, 4, 3))

    def loss():
        y, _ = conv.forward(x)
        return 0.5 * float(np.sum((y - tgt) ** 2))

    y, cache = conv.forward(x)
    conv.zero_grads()
    gx = conv.backward(y - tgt, cache)
    errs = net.finite_difference_check(loss, conv.params("c"), conv.grads("c"))
    assert max(errs.values()) < 1e-6
    gfd = _fd_input_grad(loss, x)
    assert np.linalg.norm(gx - gfd) / np.linalg.norm(gfd) < 1e-6


def test_conv2d_and_pool_gradients():
    rng = np.random.default_rng(42)
    conv = net.Conv(2, 2, 2, 3, stride=1, activation="relu",
                      padding="zero", base_offset=-1, rng=rng)
    pool = net.AvgPool(2)
    x = rng.standard_normal((1, 6, 6, 2))
    tgt = rng.standard_normal((1, 3, 3, 2))

    def loss():
        y, _ = conv.forward(x)
        z, _ = pool.forward(y)
        return 0.5 * float(np.sum((z - tgt) ** 2))

    y, c1 = conv.forward(x)
    z, c2 = pool.forward(y)
    conv.zero_grads()
    gy = pool.backward(z - tgt, c2)
    gx = conv.backward(gy, c1)
    errs = net.finite_difference_check(loss, conv.params("c"), conv.grads("c"))
    assert max(errs.values()) < 1e-6
    gfd = _fd_input_grad(loss, x)
    assert np.linalg.norm(gx - gfd) / np.linalg.norm(gfd) < 1e-6


@pytest.mark.parametrize("padding", ["periodic", "zero"])
def test_conv2d_strided_gradients_with_negative_offset(padding):
    rng = np.random.default_rng(43)
    conv = net.Conv(2, 2, 3, 4, stride=2, activation="relu",
                      padding=padding, base_offset=-2, rng=rng)
    x = rng.standard_normal((2, 8, 8, 2))
    tgt = rng.standard_normal((2, 4, 4, 3))

    def loss():
        y, _ = conv.forward(x)
        return 0.5 * float(np.sum((y - tgt) ** 2))

    y, cache = conv.forward(x)
    conv.zero_grads()
    gx = conv.backward(y - tgt, cache)
    errs = net.finite_difference_check(loss, conv.params("c"), conv.grads("c"))
    assert max(errs.values()) < 1e-6
    gfd = _fd_input_grad(loss, x)
    assert np.linalg.norm(gx - gfd) / np.linalg.norm(gfd) < 1e-6


def tap_order_input_grad(gy, weight, grid, stride, offset, padding):
    """Input gradient of a linear, unbiased conv with one output channel:
    per tap, in tap order, one np.add.at of its terms into its cells."""
    width, cin = weight.shape[0], weight.shape[-2]
    out = tuple(n // stride for n in grid)
    gx = np.zeros(gy.shape[:1] + grid + (cin,))
    for js in itertools.product(range(width), repeat=len(grid)):
        cells = np.meshgrid(*(stride * np.arange(m) + offset + j
                              for m, j in zip(out, js)), indexing="ij")
        keep = np.ones(out, dtype=bool)
        if padding == "zero":
            for k, n in zip(cells, grid):
                keep &= (k >= 0) & (k < n)
        index = tuple((k % n)[keep] for k, n in zip(cells, grid))
        terms = gy * weight[js][:, 0]  # (B, out.., Cin)
        np.add.at(gx, (slice(None),) + index, terms[:, keep])
    return gx


# (grid length, window, stride, base offset): the desk eta and inverse-
# transform convs (base -(p-1) at p = 3), the forward transform (stride 2),
# and windows wider than a 4-cell grid
SCATTER_GEOMETRIES = [(8, 6, 1, -2), (8, 3, 1, -2), (8, 6, 2, 0),
                      (8, 6, 2, -2), (4, 6, 1, -2), (4, 6, 2, -2)]


@pytest.mark.parametrize("n,width,stride,offset", SCATTER_GEOMETRIES)
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("dim", [1, 2])
def test_conv_input_gradient_equals_tap_order_scatter(dim, padding, n, width,
                                                      stride, offset):
    # one output channel makes every tap's gradient a single product, so
    # the layer and the reference differ only in how they scatter it; the
    # bytes also tell -0.0 from 0.0, which np.array_equal does not
    rng = np.random.default_rng(21)
    conv = net.Conv(dim, 2, 1, width, stride=stride, padding=padding,
                    bias=False, base_offset=offset, rng=rng)
    grid = (n,) * dim
    for batch in (1, 3):
        y, cache = conv.forward(rng.standard_normal((batch,) + grid + (2,)))
        gy = rng.standard_normal(y.shape)
        gy[gy > 1.0] = -0.0
        gx = conv.backward(gy, cache)
        ref = tap_order_input_grad(gy, conv.weight, grid, stride, offset,
                                   padding)
        assert gx.shape == ref.shape and gx.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n,width,stride,offset", SCATTER_GEOMETRIES)
@pytest.mark.parametrize("padding", ["periodic", "zero"])
@pytest.mark.parametrize("dim", [1, 2])
def test_conv_backward_is_the_adjoint(dim, padding, n, width, stride,
                                      offset):
    rng = np.random.default_rng(22)
    conv = net.Conv(dim, 2, 3, width, stride=stride, padding=padding,
                    bias=False, base_offset=offset, rng=rng)
    x = rng.standard_normal((2,) + (n,) * dim + (2,))
    y, cache = conv.forward(x)
    gy = rng.standard_normal(y.shape)
    lhs, rhs = np.vdot(y, gy), np.vdot(x, conv.backward(gy, cache))
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(y) * np.linalg.norm(gy)


def test_relu_gradient_passes_through_at_positive_preactivations():
    rng = np.random.default_rng(11)
    relu = net.Conv(1, 2, 2, 3, activation="relu", rng=rng)
    lin = net.Conv(1, 2, 2, 3, activation="linear", rng=rng)
    lin.weight[...] = relu.weight
    lin.bias[...] = relu.bias = np.full(2, 10.0)  # keeps z strictly positive
    x = rng.standard_normal((1, 8, 2)) * 0.1
    y_r, c_r = relu.forward(x)
    y_l, c_l = lin.forward(x)
    assert np.array_equal(y_r, y_l)
    g = rng.standard_normal(y_r.shape)
    relu.zero_grads()
    lin.zero_grads()
    gx_r = relu.backward(g, c_r)
    gx_l = lin.backward(g, c_l)
    assert np.array_equal(gx_r, gx_l)
    assert np.array_equal(relu.gw, lin.gw)


def test_backward_without_cache_raises():
    conv = net.Conv(1, 1, 1, 2, rng=np.random.default_rng(0))
    with pytest.raises(StateError):
        conv.backward(np.zeros((1, 4, 1)), None)


def test_shape_validation():
    conv = net.Conv(1, 2, 3, 4, stride=2, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 8, 3)))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 7, 2)))
    with pytest.raises(ShapeError):
        net.AvgPool(1).forward(np.zeros((1, 5, 1)))


def test_nadam_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0, -2.0])}
    state = net.NadamState(learning_rate=0.1)
    net.nadam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_nadam_single_step_hand_evaluated():
    params = {"t": np.array([1.0])}
    state = net.NadamState(learning_rate=0.1)
    net.nadam_step(params, {"t": np.array([1.0])}, state)
    # hand evaluation of the update at t=1, g=1
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = (1 - b1) * 1.0
    v = (1 - b2) * 1.0
    m_hat = m / (1 - b1)
    m_bar = b1 * m_hat + (1 - b1) * 1.0 / (1 - b1)
    expect = 1.0 - 0.1 * m_bar / (np.sqrt(v / (1 - b2)) + eps)
    assert params["t"][0] == pytest.approx(expect, abs=1e-15)


def test_nadam_converges_on_quadratic():
    params = {"t": np.array([1.0])}
    state = net.NadamState(learning_rate=0.1)
    for _ in range(200):
        net.nadam_step(params, {"t": params["t"].copy()}, state)
    assert abs(params["t"][0]) < 1e-2


def test_nadam_rejects_non_finite_gradient():
    params = {"t": np.array([1.0])}
    state = net.NadamState(learning_rate=0.1)
    with pytest.raises(TrainingError, match=r"in t$"):
        net.nadam_step(params, {"t": np.array([np.nan])}, state)



def test_nadam_equals_a_per_tensor_update_bitwise():
    shapes = {"w0": (3, 4, 2), "b0": (5,), "w1": (2, 2, 2, 3), "b1": (1,)}
    rng = np.random.default_rng(23)
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    state = net.NadamState(learning_rate=0.01)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 6):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        net.nadam_step(params, grads, state)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, p in ref.items():
            g = grads[k]
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * g * g
            m_bar = b1 * (m[k] / c1) + (1.0 - b1) * g / c1
            p -= lr * m_bar / (np.sqrt(v[k] / c2) + eps)
    for k in shapes:
        assert np.array_equal(params[k], ref[k])
