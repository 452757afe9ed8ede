import re

import numpy as np
import pytest

from sarcse.autodiff import backward
from sarcse.corpus import PAD_ID, UNK_ID, Vocab, make_batch, pretrained_vectors
from sarcse.embeddings import embed, init_table


@pytest.fixture
def vocab():
    return Vocab(["man", "dog", "runs", "fast", "sits"])


def test_rate_zero_is_pure_lookup(vocab):
    rng = np.random.default_rng(0)
    table = init_table(vocab, 4, 0.5, rng)
    batch = make_batch(["man runs fast dog sits"], vocab)
    out = embed(batch, table, 0.0, np.random.default_rng(1))
    for j in range(5):
        np.testing.assert_array_equal(out.data[0, j], table.data[batch.ids[0, j]])


def test_pad_rows_zero_at_any_rate(vocab):
    table = init_table(vocab, 4, 0.5, np.random.default_rng(0))
    batch = make_batch(["man runs"], vocab)     # padded to length 5
    out = embed(batch, table, 0.5, np.random.default_rng(2))
    np.testing.assert_array_equal(out.data[0, 2:], 0.0)


def test_distinct_rng_states_differ(vocab):
    table = init_table(vocab, 8, 0.5, np.random.default_rng(0))
    batch = make_batch(["man runs fast dog sits"], vocab)
    rng = np.random.default_rng(3)
    a = embed(batch, table, 0.3, rng)
    b = embed(batch, table, 0.3, rng)
    assert not np.array_equal(a.data, b.data)


def test_fixed_rng_state_reproducible(vocab):
    table = init_table(vocab, 8, 0.5, np.random.default_rng(0))
    batch = make_batch(["man runs fast dog sits"], vocab)
    a = embed(batch, table, 0.3, np.random.default_rng(7))
    b = embed(batch, table, 0.3, np.random.default_rng(7))
    np.testing.assert_array_equal(a.data, b.data)


def test_init_scale_zero_gives_zero_table(vocab):
    table = init_table(vocab, 3, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(table.data, 0.0)


def test_fixed_rng_state_same_table(vocab):
    a = init_table(vocab, 6, 0.2, np.random.default_rng(11))
    b = init_table(vocab, 6, 0.2, np.random.default_rng(11))
    np.testing.assert_array_equal(a.data, b.data)


def test_pretrained_overlay_exact(vocab, tmp_path):
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("man 0.25 -1.5 3.0\nunknown 1 2 3\n", encoding="utf-8")
    vectors = pretrained_vectors(vec_file, vocab, 3)
    assert list(vectors) == [vocab.id_of("man")]       # the out-of-vocabulary row is dropped
    table = init_table(vocab, 3, 0.5, np.random.default_rng(0), vectors)
    np.testing.assert_array_almost_equal(
        table.data[vocab.id_of("man")], [0.25, -1.5, 3.0]
    )
    drawn = init_table(vocab, 3, 0.5, np.random.default_rng(0))
    np.testing.assert_array_equal(table.data[UNK_ID], drawn.data[UNK_ID])


def test_pretrained_width_mismatch(vocab, tmp_path):
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("man 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(vec_file))}:1: pretrained width 2 does not match dim 3"):
        pretrained_vectors(vec_file, vocab, 3)


def test_pretrained_non_number_names_line(vocab, tmp_path):
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("man 1.0 2.0 3.0\n\nwoman 1.0 x 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(vec_file))}:3: .*'x'"):
        pretrained_vectors(vec_file, vocab, 3)


def test_pretrained_token_without_values_names_line(vocab, tmp_path):
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("man 1.0 2.0 3.0\nwoman\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(vec_file))}:2: expected a token and at least one value"):
        pretrained_vectors(vec_file, vocab, 3)


def test_id_out_of_range(vocab):
    table = init_table(vocab, 3, 0.5, np.random.default_rng(0))
    batch = make_batch(["man runs"], vocab)
    batch.ids[0, 0] = len(vocab) + 5
    with pytest.raises(IndexError):
        embed(batch, table, 0.0, np.random.default_rng(0))


def test_pad_row_gets_no_gradient(vocab):
    table = init_table(vocab, 4, 0.5, np.random.default_rng(0))
    batch = make_batch(["man runs dog", "fast sits man dog runs"], vocab)
    out = embed(batch, table, 0.0, np.random.default_rng(0))
    loss = (out * out).sum()
    grads = backward(loss)
    g = grads.wrt(table)
    np.testing.assert_array_equal(g[PAD_ID], 0.0)
    assert np.abs(g[vocab.id_of("man")]).sum() > 0.0
