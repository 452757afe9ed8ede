import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcse.corpus import (
    PAD_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    load_corpus,
    load_sts_pairs,
    make_batch,
    save_frequency,
    save_vocab,
    token_frequency,
    tokenize,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTokenize:
    def test_sentence_with_trailing_period(self):
        assert tokenize("A man is frying food.") == ["a", "man", "is", "frying", "food", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_trailing_bang(self):
        assert tokenize("East!") == ["east", "!"]

    def test_leading_punctuation(self):
        assert tokenize('"hello, world"') == ['"', "hello", ",", "world", '"']

    def test_inner_punctuation_kept(self):
        assert tokenize("well-known don't") == ["well-known", "don't"]

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_on_rejoined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestVocab:
    def test_count_then_lexicographic_order(self, tmp_path):
        path = write(tmp_path, "c.txt", "a b\na\n")
        vocab = build_vocab(path)
        assert vocab.tokens == ["a", "b"]
        assert vocab.id_of("a") == 2 and vocab.id_of("b") == 3

    def test_empty_corpus(self, tmp_path):
        path = write(tmp_path, "c.txt", "\n\n")
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab(path)

    def test_file_round_trip(self, tmp_path):
        path = write(tmp_path, "c.txt", "red green blue green\n")
        vocab = build_vocab(path)
        out = tmp_path / "vocab.txt"
        save_vocab(vocab, out)
        again = Vocab(out.read_text(encoding="utf-8").splitlines())
        assert again.tokens == vocab.tokens
        assert again.id_of("green") == vocab.id_of("green")


class TestFrequency:
    def test_direct_counts(self, tmp_path):
        path = write(tmp_path, "c.txt", "a a b\n")
        vocab = build_vocab(path)
        freq = token_frequency(path, vocab)
        assert freq[vocab.id_of("a")] == pytest.approx(2 / 3)
        assert freq[vocab.id_of("b")] == pytest.approx(1 / 3)

    def test_single_token_corpus(self, tmp_path):
        path = write(tmp_path, "c.txt", "zap\n")
        vocab = build_vocab(path)
        freq = token_frequency(path, vocab)
        assert freq[vocab.id_of("zap")] == 1.0

    def test_sums_to_one_and_pad_zero(self, tmp_path):
        path = write(tmp_path, "c.txt", "the cat sat on the mat .\nthe dog ran .\n")
        vocab = build_vocab(path)
        freq = token_frequency(path, vocab)
        assert abs(freq.sum() - 1.0) < 1e-9
        assert abs(freq[2:].sum() - 1.0) < 1e-9   # the corpus's own vocabulary has no OOV
        assert freq[PAD_ID] == 0.0

    def test_unk_absorbs_oov(self, tmp_path):
        path = write(tmp_path, "c.txt", "a a a b\n")
        vocab = Vocab(["a"])                        # "b" is out of vocabulary
        freq = token_frequency(path, vocab)
        assert freq[UNK_ID] == pytest.approx(1 / 4)
        assert abs(freq.sum() - 1.0) < 1e-9

    def test_checksum_mismatch_warns(self, tmp_path):
        path = write(tmp_path, "c.txt", "a b\n")
        other = write(tmp_path, "d.txt", "a c\n")
        vocab = build_vocab(path)
        with pytest.warns(UserWarning, match="checksum"):
            token_frequency(other, vocab)

    def test_file_round_trip(self, tmp_path):
        path = write(tmp_path, "c.txt", "x y y z z z\n")
        vocab = build_vocab(path)
        freq = token_frequency(path, vocab)
        out = tmp_path / "freq.tsv"
        save_frequency(freq, vocab, out)
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [tok for tok, _ in rows] == [vocab.token_of(i) for i in range(len(vocab))]
        np.testing.assert_array_equal([float(f) for _, f in rows], freq)


class TestStsPairs:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "p.tsv", "4.2\tA man runs\tA man is running\n")
        pairs = load_sts_pairs(path)
        assert len(pairs) == 1
        assert pairs[0].gold_score == 4.2
        assert pairs[0].sentence_a == ["a", "man", "runs"]

    def test_missing_field_names_line(self, tmp_path):
        path = write(tmp_path, "p.tsv", "4.2\tonly one\n")
        with pytest.raises(ValueError, match=":1:"):
            load_sts_pairs(path)

    @pytest.mark.parametrize("line, side", [("2.0\t \tc d", 1), ("2.0\ta b\t", 2)])
    def test_empty_sentence_names_line(self, tmp_path, line, side):
        path = write(tmp_path, "p.tsv", f"1.0\ta b\tc d\n{line}\n")
        with pytest.raises(ValueError, match=rf"p\.tsv:2: sentence {side} is empty after tokenization"):
            load_sts_pairs(path)

    def test_score_out_of_range(self, tmp_path):
        path = write(tmp_path, "p.tsv", "7.0\ta\tb\n")
        with pytest.raises(ValueError, match="outside"):
            load_sts_pairs(path)

    def test_non_number_score_names_line(self, tmp_path):
        path = write(tmp_path, "p.tsv", "1.0\ta\tb\nhigh\ta\tb\n")
        with pytest.raises(ValueError, match=r"p\.tsv:2: bad score 'high'"):
            load_sts_pairs(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "p.tsv", "\n1.0\ta a\tb b\n\n\n3.5\tc c\td d\n\n")
        assert [p.gold_score for p in load_sts_pairs(path)] == [1.0, 3.5]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.tsv", "")
        assert load_sts_pairs(path) == []

    def test_order_preserved(self, tmp_path):
        path = write(tmp_path, "p.tsv", "1.0\ta a\tb b\n3.5\tc c\td d\n")
        pairs = load_sts_pairs(path)
        assert [p.gold_score for p in pairs] == [1.0, 3.5]


class TestBatching:
    @pytest.fixture
    def vocab(self, tmp_path):
        path = write(tmp_path, "c.txt", "a b c d e f\n")
        return build_vocab(path)

    def test_padding_rule(self, vocab):
        batch = make_batch(["a b", "a b c d e f"], vocab)
        assert batch.ids.shape[1] == 6
        np.testing.assert_array_equal(batch.lengths, [2, 6])

    def test_minimum_length_five(self, vocab):
        batch = make_batch(["a b c"], vocab)
        assert batch.ids.shape[1] == 5
        assert batch.mask[0].tolist() == [True, True, True, False, False]

    def test_all_oov_sentence(self, vocab):
        batch = make_batch(["zz yy xx ww vv"], vocab)
        assert (batch.ids[0] == UNK_ID).all()
        assert batch.mask[0].all()

    def test_empty_sentence_rejected(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            make_batch(["a", "   "], vocab)

    def test_mask_matches_pad(self, vocab):
        batch = make_batch(["a b", "a b c d e f"], vocab)
        np.testing.assert_array_equal(batch.mask, batch.ids != PAD_ID)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=9).map(" ".join),
            min_size=1,
            max_size=6,
        )
    )
    def test_unpadding_recovers_token_ids(self, sentences):
        vocab = Vocab(list("abcdef"))
        batch = make_batch(sentences, vocab)
        for i, sentence in enumerate(sentences):
            expected = vocab.encode(tokenize(sentence))
            assert batch.ids[i, :batch.lengths[i]].tolist() == expected


class TestLoadCorpus:
    def test_skips_blank_lines(self, tmp_path):
        path = write(tmp_path, "c.txt", "one\n\ntwo\n")
        assert load_corpus(path) == ["one", "two"]
