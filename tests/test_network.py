import math

import numpy as np
import pytest

from pavesim.adapter import encode_and_normalize, split
from pavesim.errors import DataError, TrainingDivergedError
from pavesim.network import (
    AdamState,
    NetworkConfig,
    NetworkParams,
    TrainConfig,
    adam_step,
    forward_batch,
    init_network,
    loss_gradients,
    train,
)
from pavesim.synthetic import generate_paving_dataset
from pavesim.tables import NUMERIC, RecordTable

from params_helpers import params_equal


def affine_net():
    # Hidden unit computes relu(2x + 1); the mean head copies it and the
    # log-variance head stays at zero, so mu = 2x + 1 wherever 2x + 1 > 0.
    return NetworkParams(
        weights=[np.array([[2.0]]), np.array([[1.0, 0.0]])],
        biases=[np.array([1.0]), np.array([0.0, 0.0])],
    )


def zero_net():
    return NetworkParams(
        weights=[np.zeros((1, 1)), np.zeros((1, 2))],
        biases=[np.zeros(1), np.zeros(2)],
    )


def line_table(n=500, seed=8, noise=0.1):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, n)
    ys = 2.0 * xs + rng.normal(0, noise, n)
    return RecordTable(("Y", "X"), (NUMERIC, NUMERIC),
                       tuple((float(a), float(b)) for a, b in zip(ys, xs)))


# -------------------------------------------------------------- configs


def test_layer_dims_chain_through_hidden_widths():
    cfg = NetworkConfig(input_dim=9, hidden_widths=(6, 6, 6))
    assert cfg.layer_dims == [(9, 6), (6, 6), (6, 6), (6, 2)]
    assert NetworkConfig(input_dim=3, hidden_widths=()).layer_dims == [(3, 2)]


def test_config_validation():
    with pytest.raises(DataError):
        NetworkConfig(input_dim=0)
    with pytest.raises(DataError):
        NetworkConfig(input_dim=1, hidden_widths=(8, 0))
    with pytest.raises(DataError):
        TrainConfig(epochs=0)
    with pytest.raises(DataError):
        TrainConfig(batch_size=0)
    for lr in (0.0, float("inf"), float("nan")):
        with pytest.raises(DataError,
                           match="learning_rate must be a finite number > 0"):
            TrainConfig(learning_rate=lr)


def test_params_validate_catches_inconsistencies():
    good = affine_net()
    good.validate()
    lonely = NetworkParams(good.weights, good.biases[:1])
    with pytest.raises(DataError, match="pair up"):
        lonely.validate()
    skewed = NetworkParams(
        [np.zeros((1, 3)), np.zeros((1, 2))], [np.zeros(3), np.zeros(2)])
    with pytest.raises(DataError, match="layer 1 expects"):
        skewed.validate()
    wide = NetworkParams([np.zeros((1, 3))], [np.zeros(3)])
    with pytest.raises(DataError, match="output units"):
        wide.validate()
    broken = affine_net()
    broken.weights[0][0, 0] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        broken.validate()


def test_params_copy_is_independent():
    original = affine_net()
    clone = NetworkParams(original.weights, original.biases)
    clone.weights[0][0, 0] = 99.0
    assert original.weights[0][0, 0] == 2.0
    assert params_equal(original, affine_net())
    assert not params_equal(original, clone)


def test_params_are_views_over_one_vector():
    net = init_network(NetworkConfig(input_dim=3, hidden_widths=(4,), seed=0))
    assert net.vector.dtype == np.float64 and net.vector.flags.c_contiguous
    assert net.vector.tolist() == [
        x for a in (*net.weights, *net.biases) for x in a.ravel().tolist()]
    net.weights[1][2, 1] = 5.0
    net.biases[0][3] = -7.0
    assert net.vector[12 + 2 * 2 + 1] == 5.0
    assert net.vector[12 + 8 + 3] == -7.0
    _, grads = loss_gradients(net, np.ones((2, 3)), np.zeros(2))
    assert grads.vector.shape == net.vector.shape
    assert grads.shapes() == net.shapes()


def test_params_copy_their_constructor_arrays():
    weights = [np.array([[2.0]]), np.array([[1.0, 0.0]])]
    biases = [np.array([1.0]), np.array([0.0, 0.0])]
    net = NetworkParams(weights, biases)
    weights[0][0, 0] = 99.0
    biases[1][:] = 3.0
    weights.append(np.zeros((2, 2)))
    assert params_equal(net, affine_net())
    assert net.num_layers == 2


# -------------------------------------------------------------- forward


def test_forward_affine_region():
    net = affine_net()
    mu, s = forward_batch(net, np.array([[3.0]]))
    assert (mu.tolist(), s.tolist()) == ([7.0], [0.0])
    # below the kink the hidden unit is clamped and both heads read zero
    mu, s = forward_batch(net, np.array([[-2.0]]))
    assert (mu.tolist(), s.tolist()) == ([0.0], [0.0])


def test_forward_zero_params_zero_output():
    mu, s = forward_batch(zero_net(), np.array([[123.0]]))
    assert (mu.tolist(), s.tolist()) == ([0.0], [0.0])


def test_forward_dead_input_exposes_output_bias():
    net = NetworkParams(
        weights=[np.array([[1.0]]), np.array([[1.0, 1.0]])],
        biases=[np.array([-5.0]), np.array([3.0, -1.0])],
    )
    mu, s = forward_batch(net, np.array([[0.0]]))
    assert (mu.tolist(), s.tolist()) == ([3.0], [-1.0])


def test_forward_batch_heads_are_columns():
    mu, s = forward_batch(affine_net(), np.array([[0.0], [1.0], [4.0]]))
    assert mu.tolist() == [1.0, 3.0, 9.0]
    assert s.tolist() == [0.0, 0.0, 0.0]


def test_forward_input_validation():
    net = affine_net()
    with pytest.raises(DataError, match="shape"):
        forward_batch(net, np.array([[1.0, 2.0]]))
    with pytest.raises(DataError, match="shape"):
        forward_batch(net, np.array([1.0, 2.0]))


# ----------------------------------------------------------------- loss


def constant_net(mu, s):
    """A one-layer net with zero weights and biases (mu, s): every row's
    heads are exactly (mu, s)."""
    return NetworkParams([np.zeros((1, 2))], [np.array([mu, s])])


def batch_loss(mu, s, y):
    """``loss_gradients``' mean loss when every row predicts (mu, s)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    loss, _ = loss_gradients(constant_net(mu, s), np.zeros((y.size, 1)), y)
    return loss


def test_nll_hand_values():
    assert batch_loss(1.0, 0.0, 1.0) == 0.0
    assert batch_loss(0.0, 0.0, 1.0) == 0.5
    # s = ln 4 makes the quadratic term (1/8)(y-mu)^2, so for a unit
    # residual: 1/8 + ln(2)
    assert batch_loss(0.0, math.log(4.0), 1.0) == pytest.approx(
        0.125 + math.log(2.0), rel=1e-15)
    # residuals 0 and 1 average to 0.25
    assert batch_loss(0.0, 0.0, [0.0, 1.0]) == 0.25


def test_nll_lower_bound_at_optimal_log_variance():
    # For fixed residual r, min over s of 0.5*exp(-s)*r^2 + 0.5*s sits at
    # s = ln(r^2) with value 0.5*(1 + ln(r^2)).
    for r in (0.3, 1.0, 2.5, 7.0):
        bound = 0.5 * (1.0 + math.log(r * r))
        s_opt = math.log(r * r)
        for offset in (-2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0):
            assert batch_loss(0.0, s_opt + offset, r) >= bound - 1e-12
        assert batch_loss(0.0, s_opt, r) == pytest.approx(bound, rel=1e-15)


# ------------------------------------------------------------ gradients


def test_head_gradients_reach_output_bias():
    # mu = s = 0; a unit residual drives only the mean head
    # (dL/dmu = -1, dL/ds = 0.5*(1 - 1) = 0)
    _, grads = loss_gradients(zero_net(), np.array([[0.0]]), np.array([1.0]))
    assert grads.biases[1].tolist() == [-1.0, 0.0]
    # exact fit leaves only the log-variance pull toward smaller s
    _, grads = loss_gradients(zero_net(), np.array([[0.0]]), np.array([0.0]))
    assert grads.biases[1].tolist() == [0.0, 0.5]


def test_backprop_through_affine_net_by_hand():
    # x = 3 gives hidden activation 7 and a perfect mean, so the only
    # signal is dL/ds = 0.5. Output weight grads are h * dL/dout and the
    # hidden layer receives 0.5 * w_s = 0, killing the earlier grads.
    loss, grads = loss_gradients(affine_net(), np.array([[3.0]]), np.array([7.0]))
    assert loss == 0.0
    assert grads.biases[1].tolist() == [0.0, 0.5]
    assert grads.weights[1].tolist() == [[0.0, 3.5]]
    assert grads.weights[0].tolist() == [[0.0]]
    assert grads.biases[0].tolist() == [0.0]


def test_gradients_are_means_over_the_batch():
    net = affine_net()
    X = np.array([[3.0]])
    y = np.array([5.0])
    _, single = loss_gradients(net, X, y)
    _, doubled = loss_gradients(net, np.vstack([X, X]), np.concatenate([y, y]))
    assert params_equal(single, doubled)


def test_loss_gradients_validates_batch():
    net = affine_net()
    with pytest.raises(DataError, match="shape"):
        loss_gradients(net, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DataError):
        loss_gradients(net, np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DataError):
        loss_gradients(net, np.zeros((2, 1)), np.zeros(3))


def _hidden_preactivations(params, X):
    # independent forward pass (not the library's) for kink detection
    a = X
    pre = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
    return pre


def finite_difference_check(params, X, y, h=1e-5):
    """Max relative error between analytic and central-difference grads.

    Coordinates of layer i are skipped when any hidden pre-activation at
    layer >= i lies within 1e-6 of the ReLU kink, where the one-sided
    derivative makes the comparison meaningless. Returns (err, checked).
    """
    pre = _hidden_preactivations(params, X)
    kinks = [bool((np.abs(z) < 1e-6).any()) for z in pre]
    n_hidden = len(kinks)
    _, analytic = loss_gradients(params, X, y)

    worst = 0.0
    checked = 0
    for layer in range(params.num_layers):
        if any(kinks[layer:n_hidden]):
            continue
        for stack, grad_stack in ((params.weights, analytic.weights),
                                  (params.biases, analytic.biases)):
            values = stack[layer].ravel()
            grads = grad_stack[layer].ravel()
            for j in range(values.size):
                kept = values[j]
                values[j] = kept + h
                up, _ = loss_gradients(params, X, y)
                values[j] = kept - h
                down, _ = loss_gradients(params, X, y)
                values[j] = kept
                fd = (up - down) / (2.0 * h)
                scale = max(abs(grads[j]), abs(fd), 1e-8)
                worst = max(worst, abs(grads[j] - fd) / scale)
                checked += 1
    return worst, checked


@pytest.mark.parametrize("k", [0, 1, 2])
def test_analytic_gradients_match_finite_differences(k):
    rng = np.random.default_rng(1000 + k)
    net = init_network(NetworkConfig(input_dim=9, hidden_widths=(8, 8),
                                     seed=1500 + k))
    X = rng.normal(size=(16, 9))
    y = rng.normal(size=16)
    err, checked = finite_difference_check(net, X, y)
    assert checked >= 18    # at least the output layer is always checked
    assert err < 1e-4


def test_loss_gradients_loss_matches_nll_of_forward():
    rng = np.random.default_rng(1003)
    net = init_network(NetworkConfig(input_dim=9, hidden_widths=(8, 8), seed=1503))
    X = rng.normal(size=(16, 9))
    y = rng.normal(size=16)
    loss, _ = loss_gradients(net, X, y)
    mu, s = forward_batch(net, X)
    nll = np.mean(0.5 * np.exp(-s) * (y - mu) ** 2 + 0.5 * s)
    assert loss == pytest.approx(nll, rel=1e-15)


# ----------------------------------------------------------------- adam


def test_adam_first_step_keeps_epsilon_inside_sqrt():
    params = NetworkParams([np.zeros((1, 2))], [np.zeros(2)])
    grads = NetworkParams([np.array([[1.0, 0.0]])], [np.zeros(2)])
    cfg = TrainConfig()
    new, state = adam_step(params, grads, AdamState.zeros_like(params), cfg)
    # m_hat = v_hat = 1 exactly after one unit-gradient step, so the
    # update is -lr / sqrt(1 + eps)
    expected = -cfg.learning_rate / math.sqrt(1.0 + cfg.adam_epsilon)
    assert new.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert new.weights[0][0, 0] == pytest.approx(-9.99999995e-4, rel=1e-10)
    assert state.t == 1


def test_adam_zero_gradient_is_a_no_op_update():
    params = NetworkParams([np.full((1, 2), 7.0)], [np.full(2, -3.0)])
    zeros = NetworkParams([np.zeros((1, 2))], [np.zeros(2)])
    before = NetworkParams(params.weights, params.biases)
    new, state = adam_step(params, zeros, AdamState.zeros_like(params),
                           TrainConfig())
    assert params_equal(new, before)
    assert state.t == 1


def test_adam_momentum_decays_once_gradient_stops():
    params = NetworkParams([np.zeros((1, 2))], [np.zeros(2)])
    pulse = NetworkParams([np.array([[1.0, 0.0]])], [np.zeros(2)])
    rest = NetworkParams([np.zeros((1, 2))], [np.zeros(2)])
    cfg = TrainConfig()
    after1, state = adam_step(params, pulse, AdamState.zeros_like(params), cfg)
    # the second step updates after1 in place, so read d1 first
    d1 = float(after1.weights[0][0, 0])
    after2, state = adam_step(after1, rest, state, cfg)
    d2 = after2.weights[0][0, 0] - d1
    # recurrence by hand: m2 = 0.9*0.1, v2 = 0.999*0.001, with t=2 bias
    # corrections 1-0.81 and 1-0.999^2
    expected = -cfg.learning_rate * (0.09 / 0.19) / math.sqrt(
        0.000999 / 0.001999 + cfg.adam_epsilon)
    assert d2 == pytest.approx(expected, rel=1e-9)
    assert abs(d2) < abs(d1)
    assert d2 < 0    # still moving the same way


def test_adam_step_updates_params_and_state_in_place():
    params = NetworkParams([np.zeros((1, 2))], [np.zeros(2)])
    grads = NetworkParams([np.array([[1.0, -2.0]])], [np.array([0.5, 0.0])])
    state = AdamState.zeros_like(params)
    vector, m, v = params.vector, state.m, state.v
    new, new_state = adam_step(params, grads, state, TrainConfig())
    assert new is params and new_state is state
    assert new.vector is vector and state.m is m and state.v is v
    assert state.t == 1
    # from zero moments one step stores (1 - b1) * g and (1 - b2) * g**2,
    # and each parameter moves against its gradient (a zero one stays)
    assert np.array_equal(m, (1.0 - 0.9) * grads.vector)
    assert np.array_equal(v, (1.0 - 0.999) * grads.vector**2)
    assert np.array_equal(np.sign(vector), -np.sign(grads.vector))
    assert params.weights[0][0, 0] == vector[0] < 0.0
    adam_step(params, grads, state, TrainConfig())
    assert state.t == 2


def test_adam_states_compare_by_identity():
    # array fields make a field-wise == ambiguous; identity never raises
    a = AdamState.zeros_like(affine_net())
    b = AdamState.zeros_like(affine_net())
    assert a == a
    assert a != b


# ----------------------------------------------------------------- init


def test_init_shapes_biases_and_determinism():
    cfg = NetworkConfig(input_dim=9, hidden_widths=(8, 8), seed=0)
    net = init_network(cfg)
    assert net.shapes() == [(9, 8), (8, 8), (8, 2)]
    assert all(not b.any() for b in net.biases)
    net.validate()
    assert params_equal(net, init_network(cfg))
    other = init_network(NetworkConfig(input_dim=9, hidden_widths=(8, 8), seed=1))
    assert not params_equal(net, other)


def test_init_weight_variance_tracks_fan_in():
    # fan_in 50 -> target variance 2/50; 100k draws keep the empirical
    # value within a few percent
    net = init_network(NetworkConfig(input_dim=50, hidden_widths=(2000,), seed=21))
    var = float(net.weights[0].var())
    assert abs(var - 0.04) / 0.04 < 0.05


# ---------------------------------------------------------------- train


def test_train_is_deterministic_in_both_seeds():
    ds = encode_and_normalize(line_table(n=200), "Y")
    net_cfg = NetworkConfig(input_dim=1, hidden_widths=(8,), seed=3)
    cfg = TrainConfig(epochs=5, shuffle_seed=4)
    params_a, report_a = train(ds, net_cfg, cfg)
    params_b, report_b = train(ds, net_cfg, cfg)
    assert params_equal(params_a, params_b)
    assert report_a.epoch_losses == report_b.epoch_losses
    params_c, _ = train(
        ds, NetworkConfig(input_dim=1, hidden_widths=(8,), seed=30), cfg)
    assert not params_equal(params_a, params_c)


def test_train_loss_decreases_on_learnable_signal():
    ds = encode_and_normalize(line_table(), "Y")
    _, report = train(
        ds,
        NetworkConfig(input_dim=1, hidden_widths=(8, 8), seed=3),
        TrainConfig(epochs=40, shuffle_seed=4),
    )
    assert len(report.epoch_losses) == 40
    assert report.final_loss < report.epoch_losses[0]
    assert np.mean(report.epoch_losses[-10:]) < np.mean(report.epoch_losses[:10])


def test_train_single_full_batch_epoch_equals_manual_step():
    ds = encode_and_normalize(line_table(), "Y")
    net_cfg = NetworkConfig(input_dim=1, hidden_widths=(4,), seed=9)
    cfg = TrainConfig(epochs=1, batch_size=500, shuffle_seed=2)
    got, report = train(ds, net_cfg, cfg)

    start = init_network(net_cfg)
    order = np.random.default_rng(2).permutation(ds.n)
    loss, grads = loss_gradients(start, ds.X[order], ds.y[order])
    want, _ = adam_step(start, grads, AdamState.zeros_like(start), cfg)
    assert params_equal(got, want)
    assert report.epoch_losses == [loss]


def test_train_matches_a_per_tensor_adam_loop():
    # Textbook Adam over per-layer lists, sharing only the initializer,
    # the gradients and the shuffle stream with the flat trainer. 70 rows
    # in batches of 32 leave a last batch of 6.
    ds = encode_and_normalize(generate_paving_dataset(70, 5), "Productivity")
    net_cfg = NetworkConfig(input_dim=9, hidden_widths=(6, 6), seed=11)
    cfg = TrainConfig(epochs=3, batch_size=32, shuffle_seed=12)
    got, report = train(ds, net_cfg, cfg)

    start = init_network(net_cfg)
    n_layers = start.num_layers
    theta = [w.copy() for w in start.weights] + [b.copy() for b in start.biases]
    m = [np.zeros_like(x) for x in theta]
    v = [np.zeros_like(x) for x in theta]
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    rng = np.random.default_rng(cfg.shuffle_seed)
    t = 0
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(ds.n)
        total = 0.0
        for first in range(0, ds.n, cfg.batch_size):
            idx = order[first:first + cfg.batch_size]
            current = NetworkParams(theta[:n_layers], theta[n_layers:])
            loss, grads = loss_gradients(current, ds.X[idx], ds.y[idx])
            total += loss * len(idx)
            t += 1
            for j, g in enumerate(grads.weights + grads.biases):
                m[j] = b1 * m[j] + (1.0 - b1) * g
                v[j] = b2 * v[j] + (1.0 - b2) * g**2
                m_hat = m[j] / (1.0 - b1**t)
                v_hat = v[j] / (1.0 - b2**t)
                theta[j] = theta[j] - cfg.learning_rate * m_hat / np.sqrt(
                    v_hat + cfg.adam_epsilon)
        losses.append(total / ds.n)

    assert ds.n % cfg.batch_size == 6 and t == 9
    flat = got.weights + got.biases
    assert [a.shape for a in flat] == [a.shape for a in theta]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(flat, theta))
    assert report.epoch_losses == losses


def test_train_divergence_reports_position():
    ds = encode_and_normalize(line_table(), "Y")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as info:
            train(ds, NetworkConfig(input_dim=1, hidden_widths=(8,), seed=3),
                  TrainConfig(epochs=5, learning_rate=1e12, shuffle_seed=4))
    err = info.value
    assert err.epoch == 0
    assert err.batch == 1
    assert not math.isfinite(err.loss)
    assert "epoch 0" in str(err)


def test_train_rejects_mismatched_dataset():
    ds = encode_and_normalize(line_table(n=50), "Y")
    with pytest.raises(DataError, match="expects 2 inputs"):
        train(ds, NetworkConfig(input_dim=2, hidden_widths=(4,), seed=0))


def test_predicted_sigma_recovers_constant_noise():
    # y = 3a - 2b + 5 + N(0, 2); a well-fit model should predict a near
    # constant physical sigma close to 2
    rng = np.random.default_rng(31)
    n = 4000
    a = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n)
    y = 3.0 * a - 2.0 * b + 5.0 + rng.normal(0, 2.0, n)
    table = RecordTable(("Y", "A", "B"), (NUMERIC,) * 3,
                        tuple((float(p), float(q), float(r))
                              for p, q, r in zip(y, a, b)))
    ds = encode_and_normalize(table, "Y")
    train_ds, test_ds = split(ds, 0.8, 77)
    params, _ = train(
        train_ds,
        NetworkConfig(input_dim=2, hidden_widths=(8, 8), seed=5),
        TrainConfig(epochs=100, shuffle_seed=6),
    )
    _, s = forward_batch(params, test_ds.X)
    sigma = np.sqrt(np.exp(s)) * ds.norm_stats.target.std
    mean_sigma = float(sigma.mean())
    assert max(mean_sigma / 2.0, 2.0 / mean_sigma) < 1.5


def test_train_rejects_empty_dataset():
    ds = encode_and_normalize(line_table(n=50), "Y")
    empty = type(ds)(X=ds.X[:0], y=ds.y[:0], norm_stats=ds.norm_stats)
    with pytest.raises(DataError, match="empty"):
        train(empty, NetworkConfig(input_dim=1, hidden_widths=(4,), seed=0))
