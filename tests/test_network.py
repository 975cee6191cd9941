import math

import numpy as np
import pytest

from tgrbf.network import TgrbfNet, random_net, sigmoid


def _rbf_net(centers, widths, rbf_w):
    """A network whose RBF branch has the given nodes (one hidden unit)."""
    k = np.shape(centers)[1] + 1
    return TgrbfNet(centers=centers, widths=widths, rbf_w=rbf_w,
                    W_z=np.zeros((1, k)), b_z=np.zeros(1), W_r=np.zeros((1, k)),
                    b_r=np.zeros(1), W_h=np.zeros((1, k)), b_h=np.zeros(1),
                    gate_w=np.zeros(k), gate_b=0.0, out_w=np.zeros(1), out_b=0.0,
                    h_init=np.zeros(1))


def _kernel(x, center, width):
    """The kernel value phi of a one-node network's forward trace."""
    return float(_rbf_net([center], [width], [1.0]).forward(x)[1].phi[0])


def test_rbf_kernel_unit_distance():
    assert _kernel([1.0, 0.0], [0.0, 0.0], 1.0) == pytest.approx(math.exp(-0.5))


def test_rbf_kernel_distance_sqrt2():
    assert _kernel([1.0, 1.0], [0.0, 0.0], 1.0) == pytest.approx(math.exp(-1.0))


def test_rbf_kernel_at_center_is_one():
    assert _kernel([0.3, -0.7], [0.3, -0.7], 0.5) == pytest.approx(1.0)


def test_rbf_kernel_rejects_bad_width_and_shape():
    # the constructor's width check, then forward's input shape check
    with pytest.raises(ValueError, match="^all kernel widths must be positive$"):
        _kernel([0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="^all kernel widths must be positive$"):
        _kernel([0.0], [0.0], -1.0)
    with pytest.raises(ValueError, match="^input must have shape"):
        _kernel([0.0, 1.0], [0.0], 1.0)


def test_rbf_forward_weighted_sum():
    # d2 = 1 and 4 -> exp(-0.5) + 2 exp(-2)
    trace = _rbf_net([[0.0], [3.0]], [1.0, 1.0], [1.0, 2.0]).forward([1.0])[1]
    assert trace.y_rbf == pytest.approx(math.exp(-0.5) + 2.0 * math.exp(-2.0))
    assert trace.y_rbf == pytest.approx(0.877201, abs=1e-6)
    assert trace.phi.shape == (2,)
    assert trace.diff.tolist() == [[1.0], [-2.0]]   # x - centers


def test_rbf_forward_validation():
    with pytest.raises(ValueError, match="^input must have shape"):
        _rbf_net([[0.0, 0.0]], [1.0], [1.0]).forward([1.0])
    with pytest.raises(ValueError, match="^all kernel widths must be positive$"):
        _rbf_net([[0.0]], [0.0], [1.0])
    # a width written after construction is caught by forward's own check
    net = _rbf_net([[0.0]], [1.0], [1.0])
    net.widths = [0.0]
    with pytest.raises(ValueError, match="^all kernel widths must be positive$"):
        net.forward([1.0])


def _lgru_net(n_in, W_z, b_z, W_r, b_r, W_h, b_h, out_w, out_b):
    """A network whose LGRU branch has the given weights (one RBF node)."""
    p = len(b_z)
    return TgrbfNet(centers=np.zeros((1, n_in)), widths=np.ones(1),
                    rbf_w=np.zeros(1), W_z=W_z, b_z=b_z, W_r=W_r, b_r=b_r,
                    W_h=W_h, b_h=b_h, gate_w=np.zeros(n_in + p), gate_b=0.0,
                    out_w=out_w, out_b=out_b, h_init=np.zeros(p))


def test_lgru_hand_example():
    ones = np.ones((1, 4))
    zero = np.zeros(1)
    net = _lgru_net(3, ones, zero, ones, zero, ones, zero, np.array([1.0]), 0.25)
    _, tr = net.forward(np.array([0.2, 0.0, 0.0]), h_prev=np.array([0.5]))
    assert tr.zr[0] == pytest.approx(0.7)   # z
    assert tr.zr[1] == pytest.approx(0.7)   # r
    assert tr.n[0] == pytest.approx(0.55)
    assert tr.h_next[0] == pytest.approx(0.535)
    assert tr.y_gru == pytest.approx(0.535 + 0.25)   # readout adds out_b


def test_lgru_clamp_saturation():
    ones = np.ones((1, 2))
    net = _lgru_net(1, ones, np.array([5.0]),      # pre_z = 5.3 -> z = 1
                    ones, np.array([-5.0]),        # pre_r = -4.7 -> r = 0
                    ones, np.zeros(1), np.array([1.0]), 0.0)
    _, tr = net.forward(np.array([0.0]), h_prev=np.array([0.3]))
    assert tr.zr[0] == 1.0   # z
    assert tr.zr[1] == 0.0   # r
    # z = 1 means the previous state is fully replaced by the candidate
    assert tr.h_next[0] == pytest.approx(tr.n[0])


def test_gate_value_zero_weights():
    net = random_net(2, 3, 1, np.random.default_rng(0))
    net.gate_w, net.gate_b = np.zeros(3), 0.5
    _, tr = net.forward(np.zeros(2), h_prev=np.zeros(1))
    g = tr.g
    assert g == pytest.approx(1.0 / (1.0 + math.exp(-0.5)))
    assert g == pytest.approx(0.622459, abs=1e-6)


def test_sigmoid_range():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert 0.0 < sigmoid(-30.0) < sigmoid(30.0) < 1.0


def _small_net(seed=0, n_in=3, m=4, p=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    return random_net(n_in, m, p, rng)


def test_forward_is_convex_combination():
    net = _small_net()
    y, tr = net.forward([0.1, -0.2, 0.3])
    assert y == pytest.approx(tr.g * tr.y_rbf + (1.0 - tr.g) * tr.y_gru)
    assert 0.0 < tr.g < 1.0


def test_gate_frozen_forces_pure_rbf():
    net = _small_net()
    net.gate_frozen = True
    y, tr = net.forward([0.1, -0.2, 0.3])
    assert tr.g == 1.0
    assert y == pytest.approx(tr.y_rbf)


def test_count_parameters_formula():
    rng = np.random.Generator(np.random.PCG64(0))
    net = random_net(3, 6, 6, rng)
    assert net.theta.size == 227
    assert net.to_vector().shape == (227,)
    net_small = random_net(1, 1, 1, rng)
    assert net_small.theta.size == 17
    assert net_small.to_vector().shape == (17,)


def test_zero_rbf_nodes_rejected():
    net = _small_net()
    with pytest.raises(ValueError):
        TgrbfNet(centers=np.empty((0, 3)), widths=np.empty(0),
                 rbf_w=np.empty(0), W_z=net.W_z, b_z=net.b_z, W_r=net.W_r,
                 b_r=net.b_r, W_h=net.W_h, b_h=net.b_h, gate_w=net.gate_w,
                 gate_b=net.gate_b, out_w=net.out_w, out_b=net.out_b,
                 h_init=net.h_init)


def test_vector_round_trip():
    net = _small_net()
    vec = net.to_vector()
    other = _small_net(seed=1)
    other.theta = vec
    assert np.array_equal(other.to_vector(), vec)
    assert other.gate_b == net.gate_b
    assert other.out_b == net.out_b


def test_online_mask_excludes_widths_and_lgru_biases():
    net = _small_net()
    mask = net.online_mask()
    assert mask.shape == (net.theta.size,)
    # offline-only block: m widths plus the three LGRU bias vectors
    assert int((~mask).sum()) == net.m + 3 * net.p
    layout = {n: (o, s) for n, o, s in net.layout()}
    for name in ("widths", "b_z", "b_r", "b_h"):
        off, size = layout[name]
        assert not mask[off:off + size].any()
    for name in ("rbf_w", "centers", "W_z", "W_r", "W_h",
                 "gate_w", "gate_b", "out_w", "out_b"):
        off, size = layout[name]
        assert mask[off:off + size].all()


def test_layout_covers_vector():
    net = _small_net()
    layout = net.layout()
    assert layout[0][1] == 0
    assert sum(size for _, _, size in layout) == net.theta.size


def test_segments_are_views_of_the_parameter_vector():
    """theta is the only storage: segment assignments, assignments to
    theta and prefix writes all show through, and copy() shares none of it."""
    rng = np.random.Generator(np.random.PCG64(7))
    for gate_frozen in (False, True):
        net = _small_net(seed=int(rng.integers(100)), m=4, p=5)
        net.gate_frozen = gate_frozen
        layout = net.layout()
        for name, off, size in layout:
            value = 0.5 + rng.uniform(size=getattr(net, name).shape)
            setattr(net, name, value)
            assert np.array_equal(net.to_vector()[off:off + size],
                                  np.ravel(value)), name
        vec = net.to_vector() * rng.uniform(0.5, 1.5, size=net.theta.size)
        net.theta = vec
        for name, off, size in layout:
            assert np.array_equal(np.ravel(getattr(net, name)),
                                  vec[off:off + size]), name
        net.theta[:net.n_online] = rng.normal(size=net.n_online)
        for name, off, size in layout:
            assert np.array_equal(np.ravel(getattr(net, name)),
                                  net.theta[off:off + size]), name
        other = net.copy()
        assert np.array_equal(other.to_vector(), net.theta)
        for name in ["theta", "h", "h_init"] + [n for n, _, _ in layout]:
            assert not np.shares_memory(getattr(other, name), net.theta), name
            assert not np.shares_memory(getattr(other, name),
                                        getattr(net, name)), name
        before = net.to_vector()
        for name, value in (("rbf_w", np.zeros(net.m + 1)),
                            ("centers", np.zeros((net.n_in, net.m))),
                            ("gate_b", [0.5]), ("out_b", np.zeros(1)),
                            ("theta", np.zeros(net.theta.size - 1)),
                            ("theta", np.zeros(net.theta.size + 1))):
            with pytest.raises(ValueError, match=name):
                setattr(net, name, value)
        assert np.array_equal(net.theta, before)
        # single-sample forward still gives Python floats
        y, tr = net.forward(rng.uniform(-1.0, 1.0, size=net.n_in))
        assert all(type(v) is float for v in (y, tr.y_rbf, tr.y_gru, tr.g))


def test_checkpoint_round_trip(tmp_path):
    net = _small_net()
    net.gate_frozen = True
    path = tmp_path / "net.json"
    net.save(path)
    loaded = TgrbfNet.load(path)
    assert np.array_equal(loaded.to_vector(), net.to_vector())
    assert loaded.gate_frozen is True
    assert np.array_equal(loaded.h_init, net.h_init)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        TgrbfNet.load(path)


def test_advance_commits_state_and_reset_restores():
    net = _small_net()
    _, tr = net.advance([0.1, 0.2, 0.3])
    assert np.array_equal(net.h, tr.h_next)
    net.reset()
    assert np.array_equal(net.h, net.h_init)


def test_forward_is_pure():
    net = _small_net()
    before = net.h.copy()
    net.forward([0.1, 0.2, 0.3])
    assert np.array_equal(net.h, before)


def test_forward_input_validation():
    net = _small_net()
    with pytest.raises(ValueError):
        net.forward([0.1, 0.2])
    with pytest.raises(ValueError):
        net.forward([0.1, 0.2, math.nan])
