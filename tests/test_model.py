import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_check, oracle_decode, oracle_encode
from sarcse.autodiff import ShapeError, Tensor
from sarcse.corpus import PAD_ID, SentenceBatch, Vocab, make_batch, make_batch_tokens
from sarcse.embeddings import embed, init_table
from sarcse.losses import reconstruction_loss
from sarcse.model import (
    KERNEL_SIZES,
    decode,
    encode,
    forward_pair,
    init_params,
    pack,
)


def random_params(embed_dim, enc_channels, mix_channels, seed=0, dtype=np.float64, zero_bias=False):
    rng = np.random.default_rng(seed)
    params = init_params(embed_dim, enc_channels, mix_channels, rng, dtype=dtype)
    if zero_bias:
        for name, tensor in params.items():
            if name.endswith("bias"):
                tensor.data[...] = 0.0
    else:
        # nonzero biases so linear structure bugs cannot hide
        for name, tensor in params.items():
            if name.endswith("bias"):
                tensor.data[...] = rng.normal(size=tensor.shape) * 0.1
    return params


def random_sentence(n, d, seed=1, dtype=np.float64):
    """One n x d sentence, packed: its rows and its length."""
    return Tensor(np.random.default_rng(seed).normal(size=(n, d)).astype(dtype)), [n]


class TestEmbeddingLengthLaw:
    def test_fuzzed_dimensions(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            enc_channels = int(rng.integers(2, 65))
            mix_channels = int(rng.integers(1, 5))
            params = random_params(3, enc_channels, mix_channels, seed=int(rng.integers(1e6)))
            z, _ = encode(*random_sentence(7, 3), params)
            assert z.shape == (1, mix_channels * (enc_channels - 1))

    def test_reference_dimensions(self):
        params = random_params(4, 500, 3)
        z, _ = encode(*random_sentence(6, 4), params)
        assert z.shape == (1, 1497)

    def test_desk_scale_dimensions(self):
        params = random_params(4, 64, 3)
        z, _ = encode(*random_sentence(9, 4), params)
        assert z.shape == (1, 189)


class TestEncode:
    def test_too_short_sentence(self):
        params = random_params(4, 6, 2)
        with pytest.raises(ShapeError, match="at least 5"):
            encode(*random_sentence(4, 4), params)

    def test_pool_indices_in_range(self):
        params = random_params(4, 6, 2)
        n = 9
        _, argmaxes = encode(*random_sentence(n, 4), params)
        assert len(argmaxes) == len(KERNEL_SIZES)
        for ks, indices in zip(KERNEL_SIZES, argmaxes):
            assert indices.shape == (1, 6) and 0 <= indices.min() and indices.max() <= n - ks

    def test_deterministic(self):
        params = random_params(4, 6, 2)
        x = random_sentence(8, 4)
        z1, _ = encode(*x, params)
        z2, _ = encode(*x, params)
        np.testing.assert_array_equal(z1.data, z2.data)


class TestDecode:
    def test_output_shape(self):
        params = random_params(5, 8, 3)
        for n in (5, 6, 11):
            z, argmaxes = encode(*random_sentence(n, 5, seed=n), params)
            recon = decode(z, [n], argmaxes, params)
            assert recon.shape == (n, 5)

    def test_zero_embedding_zero_biases_gives_zeros(self):
        params = random_params(4, 6, 2, zero_bias=True)
        _, argmaxes = encode(*random_sentence(7, 4), params)
        zero_z = Tensor(np.zeros((1, 2 * (6 - 1))))
        recon = decode(zero_z, [7], argmaxes, params)
        np.testing.assert_array_equal(recon.data, 0.0)

    def test_linearity_in_embedding(self):
        params = random_params(4, 7, 2, zero_bias=True)
        z, argmaxes = encode(*random_sentence(8, 4), params)
        rng = np.random.default_rng(3)
        z1 = Tensor(rng.normal(size=z.shape))
        z2 = Tensor(rng.normal(size=z.shape))
        a, b = 0.7, -2.3
        mixed = decode(Tensor(a * z1.data + b * z2.data), [8], argmaxes, params).data
        separate = a * decode(z1, [8], argmaxes, params).data + b * decode(z2, [8], argmaxes, params).data
        np.testing.assert_allclose(mixed, separate, atol=1e-10)

    def test_wrong_embedding_length(self):
        params = random_params(4, 6, 2)
        argmaxes = [np.zeros((1, 6), dtype=int) for _ in KERNEL_SIZES]
        with pytest.raises(ShapeError, match="embedding length"):
            decode(Tensor(np.zeros((1, 3))), [6], argmaxes, params)


def _pool_gaps(x_data, params):
    """Smallest per-column gap between the top two feature-map values."""
    from sarcse.autodiff import conv1d_valid

    gaps = []
    for ks in KERNEL_SIZES:
        fm = conv1d_valid(Tensor(x_data), params[f"enc.k{ks}.kernels"], params[f"enc.k{ks}.bias"], [len(x_data)]).data
        if fm.shape[0] == 1:
            continue
        srt = np.sort(fm, axis=0)
        gaps.append((srt[-1] - srt[-2]).min())
    return min(gaps) if gaps else np.inf


class TestAutoencoderGradients:
    def test_reconstruction_objective_matches_finite_differences(self):
        embed_dim, enc_channels, mix_channels, n = 4, 6, 2, 6
        base = random_params(embed_dim, enc_channels, mix_channels, seed=10)
        x_data = np.random.default_rng(11).normal(size=(n, embed_dim))
        assert _pool_gaps(x_data, base) > 1e-3

        names = list(base)
        arrays = [tensor.data for tensor in base.values()]

        def objective(x, *param_tensors):
            params = dict(zip(names, param_tensors))
            z, argmaxes = encode(x, [n], params)
            recon = decode(z, [n], argmaxes, params)
            return reconstruction_loss(x, recon, np.ones(n), np.ones(n, bool), [n]).sum()

        err = grad_check(objective, [x_data] + arrays)
        assert err <= 1e-4, f"worst relative error {err} over {names}"


class TestForwardPair:
    @pytest.fixture
    def setup(self):
        vocab = Vocab(["a", "b", "c", "d", "e", "f", "g"])
        table = init_table(vocab, 4, 0.3, np.random.default_rng(0), dtype=np.float64)
        params = random_params(4, 6, 2, seed=2)
        batch = make_batch(["a b c d e f", "b d f", "g a c e b a d"], vocab)
        return vocab, table, params, batch

    def test_no_dropout_views_identical(self, setup):
        _, table, params, batch = setup
        packing, _, z, _ = forward_pair(batch, table, params, 0.0, np.random.default_rng(0))
        first = packing.order < 3
        np.testing.assert_array_equal(z.data[first], z.data[~first])

    def test_fixed_rng_reproducible(self, setup):
        _, table, params, batch = setup
        a = forward_pair(batch, table, params, 0.2, np.random.default_rng(5))
        b = forward_pair(batch, table, params, 0.2, np.random.default_rng(5))
        for out_a, out_b in zip(a[1:], b[1:]):      # inputs, embeddings, reconstructions
            np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_one_embedding_per_sentence_per_view(self, setup):
        _, table, params, batch = setup
        packing, _, z, recons = forward_pair(batch, table, params, 0.1, np.random.default_rng(1))
        assert z.shape == (2 * 3, 2 * (6 - 1))
        assert recons.shape == (packing.lengths.sum(), 4)
        assert sorted(packing.order.tolist()) == list(range(6))

    def test_short_sentence_uses_effective_length_five(self, setup):
        _, table, params, batch = setup
        packing, x, _, _ = forward_pair(batch, table, params, 0.0, np.random.default_rng(0))
        assert packing.order.tolist() == [1, 4, 0, 3, 2, 5]
        assert packing.lengths.tolist() == [5, 5, 6, 6, 7, 7]
        assert x.shape == (36, 4)
        for start in (3, 8):
            np.testing.assert_array_equal(x.data[start:start + 2], 0.0)
        rows, positions = packing.index
        assert (positions < batch.lengths[rows % 3])[:10].tolist() == [True, True, True, False, False] * 2

    def test_views_are_the_per_view_passes(self, setup):
        """Each half of the pair is the pass over the batch alone under one
        of two successive draws of the same generator, bit for bit."""
        _, table, params, batch = setup
        packing, _, pair_z, pair_recons = forward_pair(batch, table, params, 0.3, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        alone = pack(batch)
        for half in (packing.order < 3, packing.order >= 3):
            x = embed(batch, table, 0.3, rng)[alone.index]
            z, argmaxes = encode(x, alone.lengths, params)
            assert pair_z.data[half].tobytes() == z.data.tobytes()
            recons = pair_recons.data[np.repeat(half, packing.lengths)]
            assert recons.tobytes() == decode(z, alone.lengths, argmaxes, params).data.tobytes()


class TestPadInvariance:
    def test_appending_pad_never_changes_embedding(self):
        vocab = Vocab([f"w{i}" for i in range(30)])
        table = init_table(vocab, 6, 0.3, np.random.default_rng(1), dtype=np.float64)
        params = random_params(6, 8, 2, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(5, 12))
            words = " ".join(f"w{rng.integers(0, 30)}" for _ in range(n))
            short = make_batch([words], vocab)
            extra = ((0, 0), (0, int(rng.integers(1, 7))))
            padded = SentenceBatch(np.pad(short.ids, extra, constant_values=PAD_ID), short.lengths)
            _, _, z_short, _ = forward_pair(short, table, params, 0.0, np.random.default_rng(0))
            _, _, z_padded, _ = forward_pair(padded, table, params, 0.0, np.random.default_rng(0))
            assert z_short.data.tobytes() == z_padded.data.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(5, 14), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_batched_autoencoder_matches_per_sentence_oracle(lengths, seed):
    rng = np.random.default_rng(seed)
    embed_dim, enc_channels, mix_channels = int(rng.integers(1, 6)), int(rng.integers(2, 10)), int(rng.integers(1, 4))
    params = random_params(embed_dim, enc_channels, mix_channels, seed=seed)
    lengths = np.sort(lengths)
    x = rng.normal(size=(lengths.sum(), embed_dim))
    z, argmaxes = encode(Tensor(x), lengths, params)
    recon = decode(z, lengths, argmaxes, params).data
    starts = np.cumsum(lengths) - lengths
    # The oracle sums in another order, so an entry that cancels to near zero
    # can differ by more than rtol; atol covers that float64 rounding.
    for i, (start, n) in enumerate(zip(starts, lengths)):
        oz, oidx = oracle_encode(x[start:start + n], params, KERNEL_SIZES)
        np.testing.assert_allclose(z.data[i], oz, rtol=1e-12, atol=1e-15)
        for ks, indices in zip(KERNEL_SIZES, argmaxes):
            np.testing.assert_array_equal(indices[i], oidx[ks])
        expected = oracle_decode(oz, oidx, n, params, KERNEL_SIZES)
        np.testing.assert_allclose(recon[start:start + n], expected, rtol=1e-12, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=30))
def test_pack_covers_every_row_once_ascending(lengths):
    batch = make_batch_tokens([["a"] * n for n in lengths], Vocab(["a"]))
    packing = pack(batch)
    assert sorted(packing.order.tolist()) == list(range(len(lengths)))
    eff = [max(n, 5) for n in lengths]
    assert packing.lengths.tolist() == [eff[i] for i in packing.order]
    assert packing.lengths.tolist() == sorted(eff)
    for a, b in zip(packing.order, packing.order[1:]):
        assert eff[a] < eff[b] or a < b, "ties keep batch order"
    rows, positions = packing.index
    expected = [(i, p) for i in packing.order for p in range(eff[i])]
    assert list(zip(rows.tolist(), positions.tolist())) == expected
