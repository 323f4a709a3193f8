"""Loss components: focal identities, confusion-driven attention, FD hand cases."""

import math

import numpy as np
import pytest

from mcvv import loss as L
from mcvv import tensor as T
from mcvv.tensor import Tensor

EPS = 1e-3  # default AdCorreState.epsilon


def t64(x, requires_grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=requires_grad)


# -- p_mci / focal ------------------------------------------------------------------


def test_p_mci_cases():
    p = t64([0.9, 0.3, 0.5, 0.5])
    labels = [1, 0, 1, 0]
    out = L.p_mci(p, labels)
    np.testing.assert_allclose(out.data, [0.9, 0.7, 0.5, 0.5], rtol=1e-12)


def test_p_mci_rejects_invalid_probability():
    with pytest.raises(ValueError):
        L.p_mci(t64([1.2]), [1])
    with pytest.raises(ValueError):
        L.p_mci(t64([-0.1]), [0])


def test_p_mci_clamps_saturated():
    out = L.p_mci(t64([1.0, 0.0]), [1, 1])
    assert out.data[0] == 1.0 - L.PROB_CLAMP
    assert out.data[1] == L.PROB_CLAMP


def test_focal_perfect_confidence_vanishes():
    loss = L.focal_loss(t64([1.0 - 1e-12]), [1], L.FocalParams(alpha=0.25, gamma=2.0))
    assert loss.item() < 1e-20


def test_focal_gamma_zero_is_half_cross_entropy():
    rng = np.random.default_rng(0)
    params = L.FocalParams(alpha=0.5, gamma=0.0)
    for _ in range(1000):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        focal = L.focal_loss(t64([p]), [y], params).item()
        ce = -math.log(p if y == 1 else 1.0 - p)
        assert abs(focal - 0.5 * ce) < 1e-12


def test_focal_hand_substitution():
    loss = L.focal_loss(t64([0.9]), [1], L.FocalParams(alpha=0.25, gamma=2.0))
    expected = 0.25 * 0.1 ** 2 * -math.log(0.9)
    assert loss.item() == pytest.approx(expected, rel=1e-10)
    assert loss.item() == pytest.approx(2.634e-4, rel=1e-3)


def test_focal_is_batch_mean():
    params = L.FocalParams(alpha=0.25, gamma=2.0)
    single = [L.focal_loss(t64([p]), [y], params).item()
              for p, y in [(0.9, 1), (0.2, 0), (0.6, 1)]]
    batch = L.focal_loss(t64([0.9, 0.2, 0.6]), [1, 0, 1], params).item()
    assert batch == pytest.approx(np.mean(single), rel=1e-12)


# -- beta / confusion / attention / harmony ---------------------------------------------


def test_beta_matrix():
    np.testing.assert_array_equal(L.beta_matrix(1), [[0.0]])
    np.testing.assert_array_equal(L.beta_matrix(2), [[0.0, 1.0], [1.0, 0.0]])
    for n in (1, 3, 7):
        assert np.trace(L.beta_matrix(n)) == 0.0


def test_fresh_state_omega():
    state = L.AdCorreState()
    np.testing.assert_allclose(state.omega(), [1 + EPS, 1 + EPS])


def test_all_correct_omega():
    state = L.AdCorreState()
    L.update_confusion(state, predicted=[1, 1, 1], true=[1, 1, 1])
    assert state.omega()[1] == pytest.approx(EPS)
    assert state.omega()[0] == pytest.approx(1 + EPS)  # class 0 unseen


def test_partial_recall_omega():
    state = L.AdCorreState()
    L.update_confusion(state, predicted=[0] * 8 + [1] * 2, true=[0] * 10)
    assert state.omega()[0] == pytest.approx(0.2 + EPS)


def test_update_confusion_validates():
    state = L.AdCorreState()
    with pytest.raises(ValueError):
        L.update_confusion(state, [0, 1], [0])
    with pytest.raises(ValueError):
        L.update_confusion(state, [2], [0])


def test_attention_map_example():
    state = L.AdCorreState()
    L.update_confusion(state, predicted=[1] * 4, true=[1] * 4)   # MCI recall 1
    omega = state.omega()
    np.testing.assert_allclose(omega, [1 + EPS, EPS])
    out = L.attention_map(state, [1, 0])                         # labels [MCI, NC]
    np.testing.assert_allclose(out, [[2 * EPS, 1 + 2 * EPS],
                                     [1 + 2 * EPS, 2 + 2 * EPS]])


def test_attention_map_symmetric():
    state = L.AdCorreState()
    L.update_confusion(state, predicted=[0, 1, 1], true=[0, 0, 1])
    out = L.attention_map(state, [0, 1, 1, 0, 1])
    np.testing.assert_array_equal(out, out.T)


def test_harmony_matrix():
    out = L.harmony_matrix([1, 0, 1])
    np.testing.assert_array_equal(out, [[1, -1, 1], [-1, 1, -1], [1, -1, 1]])
    assert (np.diagonal(L.harmony_matrix([0, 1, 1, 0])) == 1).all()


# -- correlation matrix -----------------------------------------------------------------------


def test_correlation_identical_and_negated():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8)
    emb = t64(np.stack([v, v, -v + v.mean() * 2]))
    corm = L.correlation_matrix(emb)
    assert corm.data[0, 1] == pytest.approx(1.0, abs=1e-12)
    # third row is -(v - mean) + mean: perfectly anticorrelated with v
    assert corm.data[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_numpy_oracle():
    rng = np.random.default_rng(2)
    emb = rng.standard_normal((4, 8))
    corm = L.correlation_matrix(t64(emb))
    np.testing.assert_allclose(corm.data, np.corrcoef(emb), atol=1e-10)


def test_correlation_symmetric_unit_diag_bounded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(rng.integers(2, 7)), int(rng.integers(3, 12))
        corm = L.correlation_matrix(t64(rng.standard_normal((n, d)))).data
        np.testing.assert_allclose(corm, corm.T, atol=1e-12)
        np.testing.assert_array_equal(np.diagonal(corm), np.ones(n))
        assert (np.abs(corm) <= 1.0 + 1e-12).all()


def test_correlation_affine_invariance():
    rng = np.random.default_rng(4)
    emb = rng.standard_normal((5, 9))
    base = L.correlation_matrix(t64(emb)).data
    shifted = emb.copy()
    shifted[2] += 17.0
    scaled = shifted.copy()
    scaled[4] *= 3.5
    np.testing.assert_allclose(L.correlation_matrix(t64(shifted)).data, base, atol=1e-10)
    np.testing.assert_allclose(L.correlation_matrix(t64(scaled)).data, base, atol=1e-10)


def test_correlation_zero_variance_guard():
    rng = np.random.default_rng(5)
    emb = rng.standard_normal((3, 6))
    emb[1] = 4.2   # constant embedding
    corm = L.correlation_matrix(t64(emb)).data
    np.testing.assert_array_equal(corm[1], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(corm[:, 1], [0.0, 1.0, 0.0])


# -- fd_loss ----------------------------------------------------------------------------------------


def test_fd_same_label_identical_pair_is_zero():
    v = np.random.default_rng(6).standard_normal(8)
    state = L.AdCorreState()
    fd = L.fd_loss(t64(np.stack([v, v])), [1, 1], state)
    assert fd.item() == pytest.approx(0.0, abs=1e-15)


def test_fd_opposite_label_identical_pair_hand_value():
    v = np.random.default_rng(7).standard_normal(8)
    state = L.AdCorreState()
    fd = L.fd_loss(t64(np.stack([v, v])), [1, 0], state)
    assert abs(fd.item() - 2.0 * (1.0 + EPS)) < 1e-10


def test_fd_nonnegative():
    rng = np.random.default_rng(8)
    state = L.AdCorreState()
    L.update_confusion(state, rng.integers(0, 2, 20), rng.integers(0, 2, 20))
    for _ in range(25):
        n, d = int(rng.integers(2, 8)), int(rng.integers(3, 10))
        emb = t64(rng.standard_normal((n, d)))
        labels = rng.integers(0, 2, n)
        assert L.fd_loss(emb, labels, state).item() >= 0.0


def test_fd_single_sample_is_zero():
    state = L.AdCorreState()
    fd = L.fd_loss(t64(np.random.default_rng(9).standard_normal((1, 8))), [1], state)
    assert fd.item() == 0.0


def _orthonormal_centered_pair(d, rng):
    u = rng.standard_normal(d)
    u -= u.mean()
    u /= np.linalg.norm(u)
    r = rng.standard_normal(d)
    r -= r.mean()
    r -= (r @ u) * u
    r /= np.linalg.norm(r)
    return u, r


def test_fd_monotone_as_correlations_approach_targets():
    rng = np.random.default_rng(10)
    u, r = _orthonormal_centered_pair(16, rng)
    state = L.AdCorreState()
    values = []
    for theta in np.linspace(math.pi / 2, 0.05, 12):
        within = math.cos(theta) * u + math.sin(theta) * r       # corr(u, .) = cos
        cross = -math.cos(theta) * u + math.sin(theta) * r       # corr(u, .) = -cos
        batch = t64(np.stack([u, within, cross, cross]))
        values.append(L.fd_loss(batch, [0, 0, 1, 1], state).item())
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_fd_gradient_only_through_correlations():
    rng = np.random.default_rng(12)
    emb = t64(rng.standard_normal((4, 8)), requires_grad=True)
    state = L.AdCorreState()
    fd = L.fd_loss(emb, [0, 1, 0, 1], state)
    T.backward(fd)
    assert emb.grad is not None and np.abs(emb.grad).max() > 0


# -- hp_loss ----------------------------------------------------------------------------------------


def _batch(rng, n=4):
    logits = t64(rng.standard_normal((n, 2)), requires_grad=True)
    emb = t64(rng.standard_normal((n, 8)), requires_grad=True)
    labels = rng.integers(0, 2, n)
    return logits, emb, labels


def test_hp_lambda_zero_equals_focal():
    rng = np.random.default_rng(13)
    logits, emb, labels = _batch(rng)
    state = L.AdCorreState()
    params = L.HPLossParams(fd_weight=0.0)
    hp = L.hp_loss(logits, labels, emb, state, params)
    p1 = T.softmax(logits, axis=-1)[:, 1]
    focal = L.focal_loss(p1, labels, params.focal)
    assert hp.item() == focal.item()


def test_hp_fd_zero_case_equals_focal():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(8)
    emb = t64(np.stack([v, v]))
    logits = t64(rng.standard_normal((2, 2)))
    state = L.AdCorreState()
    params = L.HPLossParams(fd_weight=0.5)
    hp = L.hp_loss(logits, [1, 1], emb, state, params)
    p1 = T.softmax(logits, axis=-1)[:, 1]
    focal = L.focal_loss(p1, [1, 1], params.focal)
    assert hp.item() == pytest.approx(focal.item(), abs=1e-15)


def test_hp_default_weight_is_half():
    assert L.HPLossParams().fd_weight == 0.5


def test_hp_loss_only_reads_the_state():
    # train.batch_loss advances the state, after the loss is built
    rng = np.random.default_rng(15)
    logits, emb, labels = _batch(rng)
    state = L.AdCorreState()
    first = L.hp_loss(logits, labels, emb, state, L.HPLossParams()).item()
    assert state.confusion.sum() == 0
    assert L.hp_loss(logits, labels, emb, state, L.HPLossParams()).item() == first
    assert state.confusion.sum() == 0


def test_hp_gradient_vs_central_differences():
    rng = np.random.default_rng(16)
    logits, emb, labels = _batch(rng)
    state = L.AdCorreState()
    L.update_confusion(state, rng.integers(0, 2, 10), rng.integers(0, 2, 10))
    params = L.HPLossParams()

    def f(_):
        return L.hp_loss(logits, labels, emb, state, params)

    assert T.gradcheck(f, [logits, emb]) < 1e-4
