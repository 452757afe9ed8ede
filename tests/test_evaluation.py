import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcse import evaluation
from sarcse.corpus import ScoredPair, Vocab
from sarcse.embeddings import init_table
from sarcse.evaluation import (
    GROUP_LABELS,
    UNIFORMITY_BLOCK,
    EvalReport,
    alignment,
    cosine,
    encode_tokens,
    evaluate_pairs,
    fractional_ranks,
    group_of,
    group_stats,
    similarity_density,
    spearman,
    token_report,
    uniformity,
)
from sarcse.losses import ZeroNormError
from sarcse.model import init_params

from oracles import oracle_rank, oracle_spearman, oracle_uniformity, oracle_variance


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_antitone(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_tie_case_frozen_value(self):
        # oracle_spearman([1,2,2,3],[1,3,2,4]) = 4.5 / sqrt(4.5 * 5.0)
        rho = spearman([1, 2, 2, 3], [1, 3, 2, 4])
        assert rho == pytest.approx(0.9486832980505138, abs=1e-12)
        assert rho == pytest.approx(oracle_spearman([1, 2, 2, 3], [1, 3, 2, 4]), abs=1e-12)

    def test_matches_oracle_on_random_vectors_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            x = rng.integers(0, 8, size=n).astype(float)   # heavy ties
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(oracle_spearman(list(x), list(y)), abs=1e-12)

    def test_symmetry_and_negation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)
        assert spearman(x, -y) == pytest.approx(-spearman(x, y), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman(x, y)
        warped_x = np.exp(x) + 3.0 * x
        warped_y = y ** 3 + 10.0 * y
        assert spearman(warped_x, warped_y) == pytest.approx(base, abs=1e-12)

    def test_undefined_is_none_and_a_shape_mismatch_an_error(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None
        assert spearman([1.0], [2.0]) is None
        assert spearman([], []) is None
        with pytest.raises(ValueError, match="equal-length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_fractional_ranks(self):
        np.testing.assert_array_equal(fractional_ranks([1, 2, 2, 3]), [1.0, 2.5, 2.5, 4.0])

    def test_fractional_ranks_equal_counting_oracle_on_ties(self):
        rng = np.random.default_rng(17)
        for n in range(40):
            values = rng.integers(0, 1 + n // 4, size=n) * 0.5     # few distinct values: many ties
            np.testing.assert_array_equal(fractional_ranks(values), oracle_rank(values.tolist()))


class TestAlignment:
    def test_identical_pairs(self):
        v = np.array([0.3, 0.4])
        assert alignment([(v, v.copy()), (v, v.copy())]) == 0.0

    def test_orthogonal_unit_pair(self):
        assert alignment([(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]) == pytest.approx(2.0)

    def test_bounded_for_unit_vectors(self):
        rng = np.random.default_rng(2)
        pairs = [(rng.normal(size=5), rng.normal(size=5)) for _ in range(50)]
        value = alignment(pairs)
        assert 0.0 <= value <= 4.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            alignment([(np.zeros(3), np.ones(3))])


class TestUniformity:
    def test_identical_embeddings(self):
        v = np.array([1.0, 1.0])
        assert uniformity([v, v.copy(), v.copy()]) == 0.0

    def test_antipodal_pair(self):
        value = uniformity([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert value == pytest.approx(-8.0, abs=1e-10)

    def test_nonpositive(self):
        rng = np.random.default_rng(3)
        embs = [rng.normal(size=6) for _ in range(30)]
        assert uniformity(embs) <= 0.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            uniformity([np.ones(3)])

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError, match="uniformity: zero-norm"):
            uniformity([np.ones(3), np.zeros(3), np.ones(3)])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.integers(2, 300),
            st.sampled_from([k * UNIFORMITY_BLOCK + d for k in (1, 2, 3, 4) for d in (-1, 0, 1, 2)]),
        ),
        width=st.integers(2, 200),
        duplicates=st.integers(0, 40),
        near=st.integers(0, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pairwise_oracle(self, n, width, duplicates, near, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, width))
        rows[rng.integers(0, n, duplicates)] = rows[rng.integers(0, n, duplicates)]
        src, dst = rng.integers(0, n, near), rng.integers(0, n, near)
        rows[dst] = rows[src] + 1e-9 * rng.normal(size=(near, width))
        rows = rows.astype(dtype)
        assert abs(uniformity(rows) - oracle_uniformity(rows)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 300), width=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_identical_rows_exactly_zero(self, n, width, seed):
        row = np.random.default_rng(seed).normal(size=width)
        assert uniformity([row.copy() for _ in range(n)]) == 0.0

    def test_mostly_repeated_rows_match_oracle(self):
        rows = np.random.default_rng(6).normal(size=(3, 189))[np.arange(300) % 3]
        assert abs(uniformity(rows) - oracle_uniformity(rows)) <= 1e-12

    def test_memory_is_blocked(self):
        # An n x n float64 distance matrix alone would be 30.5 MiB here.
        rows = list(np.random.default_rng(2).normal(size=(2000, 189)))
        tracemalloc.start()
        try:
            uniformity(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestRotationInvariance:
    def test_alignment_and_uniformity_under_rotation(self):
        rng = np.random.default_rng(4)
        dim = 7
        embs = [rng.normal(size=dim) for _ in range(24)]
        pairs = [(embs[i], embs[i + 12]) for i in range(12)]
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        rotated = [q @ e for e in embs]
        rotated_pairs = [(rotated[i], rotated[i + 12]) for i in range(12)]
        assert alignment(rotated_pairs) == pytest.approx(alignment(pairs), abs=1e-8)
        assert uniformity(rotated) == pytest.approx(uniformity(embs), abs=1e-8)


class TestGrouping:
    def test_boundary_rules(self):
        assert group_of(0.5) == "0-1"
        assert group_of(1.0) == "1-2"
        assert group_of(4.999) == "4-5"
        assert group_of(5.0) == "4-5"

    def test_partition_covers_all_pairs(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 5, size=100)
        sims = rng.uniform(-1, 1, size=100)
        groups = similarity_density(scores, sims)
        assert sorted(groups) == sorted(GROUP_LABELS)
        assert sum(len(v) for v in groups.values()) == 100

    def test_variance_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            values = list(rng.uniform(-1, 1, size=int(rng.integers(1, 40))))
            mean, var = group_stats(values)
            assert mean == pytest.approx(math.fsum(values) / len(values), abs=1e-12)
            assert var == pytest.approx(oracle_variance(values), abs=1e-12)

    def test_empty_group_stats(self):
        assert group_stats([]) == (None, None)


class TestCosine:
    def test_identical_vectors_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=9).astype(np.float32)
            assert cosine(v, v.copy()) == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 <= cosine(a, b) <= 1.0


@pytest.fixture(scope="module")
def tiny_model():
    vocab = Vocab([f"w{i}" for i in range(12)])
    table = init_table(vocab, 4, 0.3, np.random.default_rng(0))
    params = init_params(4, 6, 2, np.random.default_rng(1))
    return vocab, table, params


def _pair(score, a, b):
    return ScoredPair(score, a.split(), b.split())


def report_rows(pairs, vocab, table, params, freq):
    """`token_report` rows over one encode pass of the pairs' sentences, a, b per pair."""
    token_mse = {}
    sides = [toks for pair in pairs for toks in (pair.sentence_a, pair.sentence_b)]
    encode_tokens(sides, vocab, table, params, token_mse=token_mse)
    return token_report(pairs, vocab, freq, token_mse, 0.1, 50.0)


class TestEvaluatePairs:
    def test_report_fields_and_determinism(self, tiny_model):
        vocab, table, params = tiny_model
        pairs = [
            _pair(5.0, "w0 w1 w2 w3 w4", "w0 w1 w2 w3 w4"),
            _pair(4.2, "w0 w1 w2 w3 w5", "w0 w1 w2 w3 w4"),
            _pair(2.0, "w5 w6 w7 w8 w9", "w0 w1 w2 w3 w4"),
            _pair(0.5, "w10 w11 w0 w1 w2", "w6 w7 w8 w9 w10"),
        ]
        r1 = evaluate_pairs(pairs, vocab, table, params)
        r2 = evaluate_pairs(pairs, vocab, table, params)
        assert r1 == r2
        assert r1.pair_count == 4
        assert r1.spearman_rho is not None and -1.0 <= r1.spearman_rho <= 1.0
        assert r1.alignment is not None and r1.alignment >= 0.0
        assert r1.uniformity is not None and r1.uniformity <= 0.0
        assert sum(len(v) for v in r1.group_histograms.values()) == 4

    def test_identical_sentence_scores_exactly_one(self, tiny_model):
        vocab, table, params = tiny_model
        pairs = [
            _pair(5.0, "w0 w1 w2 w3 w4", "w0 w1 w2 w3 w4"),
            _pair(1.0, "w5 w6 w7 w8 w9", "w0 w1 w2 w3 w4"),
        ]
        report = evaluate_pairs(pairs, vocab, table, params)
        assert report.group_histograms["4-5"] == [1.0]

    def test_duplicate_sentences_give_undefined_spearman(self, tiny_model):
        vocab, table, params = tiny_model
        pairs = [
            _pair(5.0, "w0 w1 w2 w3 w4", "w0 w1 w2 w3 w4"),
            _pair(3.0, "w5 w6 w7 w8 w9", "w5 w6 w7 w8 w9"),
        ]
        report = evaluate_pairs(pairs, vocab, table, params)
        assert report.spearman_rho is None
        rows = dict(report.metric_rows())
        assert rows["spearman_rho"] == "undefined"

    def test_alignment_na_when_no_pair_clears_threshold(self, tiny_model):
        vocab, table, params = tiny_model
        pairs = [
            _pair(2.0, "w0 w1 w2 w3 w4", "w5 w6 w7 w8 w9"),
            _pair(1.0, "w1 w2 w3 w4 w5", "w6 w7 w8 w9 w10"),
        ]
        report = evaluate_pairs(pairs, vocab, table, params)
        assert report.alignment is None
        assert dict(report.metric_rows())["alignment"] == "n/a"

    def test_empty_pairs(self, tiny_model):
        vocab, table, params = tiny_model
        report = evaluate_pairs([], vocab, table, params)
        assert report == EvalReport(None, None, None, {g: [] for g in GROUP_LABELS}, 0)

    def test_encode_tokens_caches_duplicates_bitwise(self, tiny_model):
        vocab, table, params = tiny_model
        toks = [["w0", "w1", "w2", "w3", "w4"]] * 3
        embs = encode_tokens(toks, vocab, table, params)
        assert embs.shape[0] == 3
        assert embs[0].tobytes() == embs[1].tobytes() == embs[2].tobytes()


    def test_eval_pass_token_mse_matches_a_separate_pass(self, tiny_model):
        vocab, table, params = tiny_model
        freq = np.linspace(0.0, 0.1, len(vocab))
        pairs = [
            _pair(5.0, "w0 w1 w2 w3 w4", "w0 w1 w2 w3 w4"),
            _pair(2.0, "w5 w6 w7", "w0 w1 w2 w3 w4 w8 w9"),
            _pair(0.5, "w10 w11 w0 w1 w2", "w6 w7 w8 w9 w10 oov"),
        ]
        token_mse = {}
        report = evaluate_pairs(pairs, vocab, table, params, token_mse=token_mse)
        assert report == evaluate_pairs(pairs, vocab, table, params)
        assert set(token_mse) == {tuple(t) for p in pairs for t in (p.sentence_a, p.sentence_b)}
        rows = token_report(pairs, vocab, freq, token_mse, 0.1, 50.0)
        assert rows == report_rows(pairs, vocab, table, params, freq)


_WORDS = [f"w{i}" for i in range(12)] + ["oov"]


class TestBatchIndependence:
    """A sentence's values never depend on the other sentences of its chunk."""

    @settings(max_examples=40, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), min_size=1, max_size=12),
        batch_size=st.integers(1, 8),
    )
    def test_rows_and_token_mse_equal_sentence_alone(self, tiny_model, sentences, batch_size):
        vocab, table, params = tiny_model
        freq = np.linspace(0.0, 0.1, len(vocab))
        with mock.patch.object(evaluation, "ENCODE_CHUNK", batch_size):     # distinct sentences per packed pass
            embs = encode_tokens(sentences, vocab, table, params)
        for toks, row in zip(sentences, embs):
            alone = encode_tokens([toks], vocab, table, params)[0]
            assert row.tobytes() == alone.tobytes()

        pairs = [ScoredPair(1.0, a, b) for a, b in zip(sentences, sentences[::-1])]
        together = report_rows(pairs, vocab, table, params, freq)
        for pi, pair in enumerate(pairs):
            for side, toks in (("a", pair.sentence_a), ("b", pair.sentence_b)):
                alone = report_rows([ScoredPair(1.0, toks, toks)], vocab, table, params, freq)
                mse = np.array([r[4] for r in together if r[:2] == (pi, side)])
                mse_alone = np.array([r[4] for r in alone if r[1] == "a"])
                assert mse.tobytes() == mse_alone.tobytes()

    def test_token_mse_equal_sentence_alone_at_paper_width(self):
        # At enc_channels=500 BLAS rounds a decoder GEMM row differently when
        # the batch is flattened into its rows, so this width can tell the two
        # apart where the tiny model cannot.
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(40)]
        vocab = Vocab(words)
        table = init_table(vocab, 32, 0.1, rng)
        params = init_params(32, 500, 3, rng)
        sentences = [list(rng.choice(words, size=12)) for _ in range(16)]
        assert len({tuple(s) for s in sentences}) == 16
        freq = np.linspace(0.0, 0.1, len(vocab))
        pairs = [ScoredPair(1.0, a, b) for a, b in zip(sentences[::2], sentences[1::2])]
        together = report_rows(pairs, vocab, table, params, freq)
        for pi, pair in enumerate(pairs):
            for side, toks in (("a", pair.sentence_a), ("b", pair.sentence_b)):
                alone = report_rows([ScoredPair(1.0, toks, toks)], vocab, table, params, freq)
                mse = np.array([r[4] for r in together if r[:2] == (pi, side)])
                mse_alone = np.array([r[4] for r in alone if r[1] == "a"])
                assert mse.tobytes() == mse_alone.tobytes()


class TestEvaluateCheckpoint:
    def test_bundled_untrained_checkpoint(self, toy_data_dir):
        from sarcse.checkpoint import load_checkpoint, unpack_model
        from sarcse.corpus import load_sts_pairs

        ckpt = load_checkpoint(toy_data_dir / "toy_untrained.ckpt")
        table, params = unpack_model(ckpt)
        pairs = load_sts_pairs(toy_data_dir / "toy_sts_test.tsv")
        report = evaluate_pairs(pairs, ckpt.vocab, table, params)
        assert report.pair_count == 60
        assert report.uniformity is not None and report.uniformity <= 0.0

    def test_script_reproduces_bundled_checkpoint(self, toy_data_dir, tmp_path, monkeypatch):
        import importlib.util
        import sys

        script = toy_data_dir.parent / "scripts" / "make_untrained_checkpoint.py"
        spec = importlib.util.spec_from_file_location("make_untrained_checkpoint", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        out = tmp_path / "untrained.ckpt"
        monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
        mod.main()
        assert out.read_bytes() == (toy_data_dir / "toy_untrained.ckpt").read_bytes()

    def test_bundled_untrained_checkpoint_matches_bundled_corpus(self, toy_data_dir):
        """A stale checkpoint left behind after regenerating the corpus fails here.

        Regenerate with scripts/make_untrained_checkpoint.py.
        """
        import hashlib

        from sarcse.checkpoint import load_checkpoint
        from sarcse.corpus import build_vocab

        corpus_path = toy_data_dir / "toy_corpus.txt"
        ckpt = load_checkpoint(toy_data_dir / "toy_untrained.ckpt")
        assert ckpt.vocab.corpus_sha256 == hashlib.sha256(corpus_path.read_bytes()).hexdigest()
        assert ckpt.vocab.tokens == build_vocab(corpus_path).tokens
        assert ckpt.step == 0
        assert ckpt.best_dev is None
        assert ckpt.opt_m == {} and ckpt.opt_v == {}
        assert {k: ckpt.config[k] for k in ("embed_dim", "enc_channels", "mix_channels", "seed")} == {
            "embed_dim": 32, "enc_channels": 64, "mix_channels": 3, "seed": 7,
        }
