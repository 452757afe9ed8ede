import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import token_weight
from sarcse.autodiff import Tensor, backward
from sarcse.losses import (
    info_nce,
    reconstruction_loss,
    token_weights,
    total_loss,
)
from sarcse.trainer import TrainConfig


class TestTokenWeight:
    def test_zero_frequency(self):
        assert token_weight(0.0, theta=0.1, lam=50.0) == 1.0

    def test_floor_boundary(self):
        assert token_weight(0.018, theta=0.1, lam=50.0) == pytest.approx(0.1, abs=1e-12)

    def test_midrange(self):
        assert token_weight(0.004, theta=0.1, lam=50.0) == pytest.approx(0.8, abs=1e-12)

    def test_clamped(self):
        assert token_weight(0.5, theta=0.1, lam=50.0) == 0.1

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 100.0))
    def test_bounded_in_theta_one(self, freq, theta, lam):
        w = token_weight(freq, theta, lam)
        assert theta <= w <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nonincreasing_in_frequency(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert token_weight(lo, 0.1, 50.0) >= token_weight(hi, 0.1, 50.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_lipschitz_continuous(self, a, b):
        lam = 50.0
        assert abs(token_weight(a, 0.1, lam) - token_weight(b, 0.1, lam)) <= lam * abs(a - b) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_theta_one_weights_every_token_exactly_one(self, freq, lam):
        """theta = 1 is the paper's "w/o SAL" ablation: no token is down-weighted."""
        weights = token_weights(np.arange(len(freq)), np.array(freq), 1.0, lam)
        assert weights.tolist() == [1.0] * len(freq)

    def test_vectorized_matches_scalar(self):
        freq = np.array([0.0, 0.0, 0.004, 0.018, 0.5])
        ids = np.array([2, 3, 4])
        expected = [token_weight(float(freq[i]), 0.1, 50.0) for i in ids]
        np.testing.assert_allclose(token_weights(ids, freq, 0.1, 50.0), expected, atol=1e-15)


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = reconstruction_loss(x, Tensor(x.data.copy()), np.ones(2), np.ones(2, bool), [2])
        assert loss.data[0] == 0.0

    def test_hand_case(self):
        x = Tensor(np.array([[0.0, 0.0]]))
        recon = Tensor(np.array([[2.0, 0.0]]))
        loss = reconstruction_loss(x, recon, np.ones(1), np.ones(1, bool), [1])
        assert loss.data[0] == pytest.approx(2.0, abs=1e-12)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        recon = Tensor(rng.normal(size=(4, 3)))
        mask = np.ones(4, bool)
        base = reconstruction_loss(x, recon, np.ones(4), mask, [4]).data[0]
        scaled = reconstruction_loss(x, recon, np.full(4, 0.1), mask, [4]).data[0]
        assert scaled == pytest.approx(0.1 * base, rel=1e-9)

    def test_masked_rows_do_not_contribute(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        recon = rng.normal(size=(5, 3))
        mask = np.array([True, True, True, False, False])
        trimmed = reconstruction_loss(
            Tensor(x[:3]), Tensor(recon[:3]), np.ones(3), np.ones(3, bool), [3]
        ).data[0]
        padded_recon = recon.copy()
        padded_recon[3:] = rng.normal(size=(2, 3)) * 100
        full = reconstruction_loss(Tensor(x), Tensor(padded_recon), np.ones(5), mask, [5]).data[0]
        assert full == pytest.approx(trimmed, rel=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        recon = rng.normal(size=(6, 4))
        w = rng.uniform(0.1, 1.0, size=6)
        mask = np.array([True, True, False, True, True, True])
        perm = rng.permutation(6)
        a = reconstruction_loss(Tensor(x), Tensor(recon), w, mask, [6]).data[0]
        b = reconstruction_loss(Tensor(x[perm]), Tensor(recon[perm]), w[perm], mask[perm], [6]).data[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_one_loss_per_sentence_each_as_if_alone(self):
        rng = np.random.default_rng(8)
        lengths = np.array([5, 5, 7])
        x = rng.normal(size=(17, 4))
        recon = rng.normal(size=(17, 4))
        w = rng.uniform(0.1, 1.0, size=17)
        mask = np.ones(17, bool)
        mask[8:10] = False
        packed = reconstruction_loss(Tensor(x), Tensor(recon), w, mask, lengths).data
        assert packed.shape == (3,)
        for i, (start, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
            rows = slice(start, start + n)
            alone = reconstruction_loss(Tensor(x[rows]), Tensor(recon[rows]), w[rows], mask[rows], [n])
            assert alone.data.tobytes() == packed[i:i + 1].tobytes()

    def test_empty_mask_rejected(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="no tokens"):
            reconstruction_loss(x, x, np.ones(4), np.array([True, True, False, False]), [2, 2])


class TestInfoNce:
    def test_single_sentence_batch_is_exactly_zero(self):
        z = Tensor(np.array([[0.3, -2.0, 1.1]]))
        za = Tensor(np.array([[5.0, 0.7, -0.2]]))
        assert float(info_nce(z, za, tau=0.05).data) == 0.0

    def test_two_equal_rows_give_log_two(self):
        v = np.array([[1.0, 2.0, -0.5], [1.0, 2.0, -0.5]])
        loss = float(info_nce(Tensor(v), Tensor(v.copy()), tau=0.05).data)
        assert loss == pytest.approx(math.log(2.0), abs=1e-10)

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(5)
        tau = 0.05
        for _ in range(200):
            b = int(rng.integers(1, 9))
            k = int(rng.integers(2, 12))
            z = rng.normal(size=(b, k))
            za = rng.normal(size=(b, k))
            loss = float(info_nce(Tensor(z), Tensor(za), tau).data)
            zn = z / np.linalg.norm(z, axis=1, keepdims=True)
            zan = za / np.linalg.norm(za, axis=1, keepdims=True)
            sims = zn @ zan.T
            bound = math.log(b) + (sims.max() - sims.min()) / tau
            assert -1e-12 <= loss <= bound + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 8))
        za = rng.normal(size=(5, 8))
        base = float(info_nce(Tensor(z), Tensor(za), 0.05).data)
        for c in (1e-3, 7.0, 2500.0):
            scaled = float(info_nce(Tensor(c * z), Tensor(c * za), 0.05).data)
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_zero_norm_names_sentence_index(self):
        z = np.ones((3, 4))
        z[1] = 0.0
        with pytest.raises(ValueError, match="index 1"):
            info_nce(Tensor(z), Tensor(np.ones((3, 4))), 0.05)

    def test_tiny_tau_stays_finite(self):
        # logits reach 1/tau = 1e4, where an unshifted exp overflows
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        za = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        loss = info_nce(z, za, tau=1e-4)
        zn = z.data / np.linalg.norm(z.data, axis=1, keepdims=True)
        zan = za.data / np.linalg.norm(za.data, axis=1, keepdims=True)
        logits = (zn @ zan.T) / 1e-4
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(logits)).any()
        expected = np.mean(np.logaddexp.reduce(logits, axis=1) - np.diag(logits))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx(expected, rel=1e-9)
        grads = backward(loss)
        assert np.isfinite(grads.wrt(z)).all() and np.isfinite(grads.wrt(za)).all()

    def test_separating_views_lowers_loss(self):
        # positives aligned with their own row beat a shuffled pairing
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 10))
        aligned = float(info_nce(Tensor(z), Tensor(z + 0.01 * rng.normal(size=z.shape)), 0.05).data)
        shuffled = float(info_nce(Tensor(z), Tensor(np.roll(z, 1, axis=0)), 0.05).data)
        assert aligned < shuffled


class TestTotalLoss:
    def test_hand_weighted_sum(self):
        out = total_loss(Tensor(0.5), Tensor(2.0), Tensor(4.0), 1.0, 2.5e-4, 2.5e-4)
        assert float(out.data) == pytest.approx(0.5015, abs=1e-12)

    def test_zero_mixing_weights_leave_contrastive_only(self):
        out = total_loss(Tensor(0.75), Tensor(123.0), Tensor(55.0), 1.0, 0.0, 0.0)
        assert float(out.data) == pytest.approx(0.75, abs=1e-15)

    def test_all_zero(self):
        cfg = TrainConfig()
        assert float(total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0), cfg.alpha, cfg.beta, cfg.gamma).data) == 0.0


class TestLossConfigValidation:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.theta == 0.1 and cfg.lam == 50.0 and cfg.tau == 0.05
        assert cfg.alpha == 1.0 and cfg.beta == 2.5e-4 and cfg.gamma == 2.5e-4

    @pytest.mark.parametrize(
        "kwargs", [{"theta": -0.1}, {"theta": 1.5}, {"lam": -1.0}, {"tau": 0.0}, {"beta": -1.0}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
