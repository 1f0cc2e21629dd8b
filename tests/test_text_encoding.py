"""Vocabulary ranking, fixed-length id encoding, pre-trained embeddings."""

import hashlib
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcode.corpus import SentenceRecord
from quadcode.models import (
    CharCnn,
    CheckpointError,
    build_word_cnn,
    load_checkpoint,
    save_checkpoint,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.text_encoding import (
    PAD,
    UNK,
    CharEncoder,
    EncodedExample,
    TextEncodingError,
    Vocabulary,
    WordEncoder,
    build_char_alphabet,
    build_vocab,
    load_embeddings,
)

def _recs(*texts):
    return [SentenceRecord(id=f"r{i}", lang="en", text=t) for i, t in enumerate(texts)]


def _saved(path, kind: str, vocab: Vocabulary) -> Path:
    """A tiny model of kind, saved with an encoder over vocab that fits it."""
    if kind == "word":
        config = replace(tiny_word_config(), vocab_size=vocab.size)
        model, encoder = build_word_cnn(config, seed=0), WordEncoder(vocab, config.length)
    else:
        config = replace(tiny_char_config(), alphabet_size=vocab.size)
        model, encoder = CharCnn(config, seed=0), CharEncoder(vocab, config.length)
    save_checkpoint(model, path, encoder=encoder)
    return path


def _header(data: bytes) -> dict:
    return json.loads(data[16 : 16 + struct.unpack_from("<Q", data, 8)[0]])


def _with_encoder(source: Path, path: Path, encoder_obj) -> Path:
    """source with its header's encoder replaced, written to path with a consistent length and sha256."""
    data = source.read_bytes()
    raw = json.dumps({**_header(data), "encoder": encoder_obj}).encode("utf-8")
    body = data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + struct.unpack_from("<Q", data, 8)[0] : -32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


class TestBuildVocab:
    def test_rank_by_count_then_token(self):
        # b appears 3x, a 2x, c 1x -> indices 2, 3, 4 after PAD/UNK
        vocab = build_vocab(_recs("b a", "b a c", "b"))
        assert [(t, vocab.index_of(t), c) for t, c in zip(vocab.tokens, vocab.counts)] == [
            ("b", 2, 3),
            ("a", 3, 2),
            ("c", 4, 1),
        ]
        assert vocab.size == 5

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab(_recs("zeta alpha", "zeta alpha"))
        assert vocab.tokens == ["alpha", "zeta"]

    def test_max_size_counts_reserved_slots(self):
        vocab = build_vocab(_recs("a a a b b c"), max_size=3)
        assert vocab.tokens == ["a"]
        assert vocab.size == 3

    def test_max_size_too_small(self):
        with pytest.raises(TextEncodingError):
            build_vocab(_recs("a"), max_size=1)

    def test_min_count_filters(self):
        vocab = build_vocab(_recs("a a b"), min_count=2)
        assert vocab.tokens == ["a"]

    def test_uses_shared_tokenizer(self):
        vocab = build_vocab(_recs('"Hello," she said.'))
        assert "hello" in vocab and '"hello,"' not in vocab

    def test_empty_corpus(self):
        vocab = build_vocab([])
        assert vocab.size == 2
        assert vocab.index_of("anything") == UNK

    def test_index_of_unknown_is_unk(self):
        vocab = build_vocab(_recs("a"))
        assert vocab.index_of("a") == 2
        assert vocab.index_of("zz") == UNK

    @given(st.lists(st.text(st.characters(codec="ascii", categories=["Ll"]), min_size=1, max_size=4), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_indices_dense_and_counts_sorted(self, words):
        vocab = build_vocab(_recs(" ".join(words)) if words else [])
        indices = [vocab.index_of(t) for t in vocab.tokens]
        assert indices == list(range(2, 2 + len(indices)))
        assert len(vocab.counts) == len(indices)
        assert vocab.counts == sorted(vocab.counts, reverse=True)


class TestCharAlphabet:
    def test_counts_codepoints_of_lowercased_text(self):
        alphabet = build_char_alphabet(_recs("AbA"))
        # lowercased: "aba" -> a:2, b:1
        assert list(zip(alphabet.tokens, alphabet.counts)) == [("a", 2), ("b", 1)]

    def test_whitespace_is_a_codepoint(self):
        alphabet = build_char_alphabet(_recs("a a"))
        assert " " in alphabet

    def test_tie_broken_by_codepoint(self):
        alphabet = build_char_alphabet(_recs("ba"))
        assert alphabet.tokens == ["a", "b"]

    def test_arabic_codepoints(self):
        alphabet = build_char_alphabet(_recs("قصفت القوات"))
        assert "ق" in alphabet and alphabet.index_of("ق") >= 2

    def test_max_size_follows_frequency(self):
        alphabet = build_char_alphabet(_recs("aaabbc"), max_size=4)
        assert alphabet.tokens == ["a", "b"]

    def test_multichar_entry_rejected(self):
        with pytest.raises(TextEncodingError, match=r"^vocabulary entry 2: alphabet entry must be a single codepoint"):
            CharEncoder(Vocabulary(["a", "ab"], [2, 1]), 4)


class TestEncode:
    def test_pad_to_length(self):
        vocab = build_vocab(_recs("a b"))
        out = WordEncoder(vocab, 5).encode("a b")
        assert out.tolist() == [2, 3, PAD, PAD, PAD]
        assert out.dtype == np.int64

    def test_truncate_keeps_prefix(self):
        vocab = build_vocab(_recs("a b c"))
        out = WordEncoder(vocab, 2).encode("a b c")
        assert out.tolist() == [2, 3]

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab(_recs("a"))
        assert WordEncoder(vocab, 2).encode("mystery").tolist() == [UNK, PAD]

    def test_empty_tokens_all_pad(self):
        vocab = build_vocab(_recs("a"))
        assert WordEncoder(vocab, 3).encode("").tolist() == [PAD, PAD, PAD]

    def test_char_encoding_lowercases(self):
        alphabet = build_char_alphabet(_recs("ab"))
        upper = CharEncoder(alphabet, 4).encode("AB")
        lower = CharEncoder(alphabet, 4).encode("ab")
        assert upper.tolist() == lower.tolist()

    def test_bad_length(self):
        vocab = build_vocab(_recs("a"))
        with pytest.raises(TextEncodingError):
            WordEncoder(vocab, 0).encode("a")

    @given(st.text(max_size=40), st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_char_encode_shape_and_range(self, text, length):
        alphabet = build_char_alphabet(_recs(text) if text else [])
        out = CharEncoder(alphabet, length).encode(text)
        assert out.shape == (length,)
        assert out.dtype == np.int64
        assert ((0 <= out) & (out < alphabet.size)).all()
        # every in-alphabet codepoint must round-trip to a non-reserved id
        for pos, ch in enumerate(text.lower()[:length]):
            if ch in alphabet:
                assert out[pos] == alphabet.index_of(ch) >= 2

    def test_encoded_example_validation(self):
        EncodedExample(np.zeros(4, dtype=np.int64), 3)
        with pytest.raises(TextEncodingError):
            EncodedExample(np.zeros(4, dtype=np.int32), 0)
        with pytest.raises(TextEncodingError):
            EncodedExample(np.zeros(4, dtype=np.int64), 4)


class TestEmbeddingTables:
    def _table(self, vocab, d, fill=0.5):
        table = np.full((vocab.size, d), fill)
        table[PAD] = 0.0
        return table

    def test_load_embeddings_covered_and_missing(self, tmp_path):
        vocab = build_vocab(_recs("alpha beta"))
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0 3.0\nstranger 9.0 9.0 9.0\n", encoding="utf-8")
        table = self._table(vocab, 3)
        load_embeddings(path, vocab, table)
        assert table[vocab.index_of("alpha")].tolist() == [1.0, 2.0, 3.0]
        assert table[vocab.index_of("beta")].tolist() == [0.5, 0.5, 0.5]
        assert table[UNK].tolist() == [0.5, 0.5, 0.5]
        assert (table[PAD] == 0.0).all()

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_load_embeddings_strips_only_edge_spaces(self, tmp_path, end):
        # tokens "\u2028cat" and "\xa0cat" are not "cat": neither a split at
        # U+2028 nor a strip of the NBSP may let them overwrite its vector
        vocab = build_vocab(_recs("cat"))
        path = tmp_path / "vecs.txt"
        lines = [" cat 1.0 2.0 ", "\u2028cat 7.0 7.0", "\xa0cat 8.0 8.0", " \t ", ""]
        path.write_bytes(end.join(lines).encode())
        table = self._table(vocab, 2)
        load_embeddings(path, vocab, table)
        assert table[vocab.index_of("cat")].tolist() == [1.0, 2.0]

    def test_load_embeddings_empty_file_matches_random(self, tmp_path):
        vocab = build_vocab(_recs("alpha beta"))
        path = tmp_path / "vecs.txt"
        path.write_text("", encoding="utf-8")
        table = np.random.default_rng(5).uniform(-0.25, 0.25, size=(vocab.size, 4))
        before = table.copy()
        load_embeddings(path, vocab, table)
        assert (table == before).all()

    def test_dimension_mismatch(self, tmp_path):
        vocab = build_vocab(_recs("alpha"))
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(TextEncodingError, match=r"^embedding line 1: vector has 2 values, expected 3$"):
            load_embeddings(path, vocab, self._table(vocab, 3))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        vocab = build_vocab(_recs("alpha"))
        path = tmp_path / "vecs.txt"
        path.write_text(f"alpha 1.0 {value} 3.0\n", encoding="utf-8")
        with pytest.raises(TextEncodingError, match=r"^embedding line 1: values must be finite$"):
            load_embeddings(path, vocab, self._table(vocab, 3))

    def test_unparseable_value(self, tmp_path):
        vocab = build_vocab(_recs("alpha"))
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 oops 3.0\n", encoding="utf-8")
        with pytest.raises(TextEncodingError, match=r"^embedding line 1: could not convert string to float: 'oops'$"):
            load_embeddings(path, vocab, self._table(vocab, 3))


class TestSerialization:
    """The encoder inside a checkpoint header: its vocabulary's two columns."""

    def test_jsonl_shape(self, tmp_path):
        data = _saved(tmp_path / "m.ckpt", "word", Vocabulary(["a"], [9])).read_bytes()
        assert b'"encoder":{"counts":[9],"tokens":["a"]}' in data[16 : 16 + struct.unpack_from("<Q", data, 8)[0]]

    def test_char_alphabet_round_trip(self, tmp_path):
        alphabet = build_char_alphabet(_recs("قصفت القوات"))
        again = load_checkpoint(_saved(tmp_path / "m.ckpt", "char", alphabet)).encoder.alphabet
        assert (again.tokens, again.counts) == (alphabet.tokens, alphabet.counts)

    def test_duplicate_token_rejected(self):
        with pytest.raises(TextEncodingError, match=r"^vocabulary entry 2: duplicate token 'a'$"):
            Vocabulary(["a", "a"], [2, 1])

    @pytest.mark.parametrize(
        "kind, token, count, reason",
        [
            ("word", 7, 1, "bad field types"),
            ("word", None, 1, "bad field types"),
            ("word", "a", "1", "bad field types"),
            ("word", "a", 1.0, "bad field types"),
            ("word", "a", True, "bad field types"),
            ("word", "a", -5, "negative count -5"),
            ("word", "x", 1, "duplicate token 'x'"),
            ("char", "yz", 1, "single codepoint"),
        ],
        ids=["token_int", "token_null", "count_str", "count_float", "count_bool", "count_negative", "duplicate",
             "multi_codepoint"],
    )
    def test_column_rejection_names_its_entry(self, tmp_path, kind, token, count, reason):
        source = _saved(tmp_path / "honest.ckpt", kind, Vocabulary(["x", "y", "q", "z"], [3, 2, 2, 1]))
        obj = {"tokens": ["x", "y", token, "z"], "counts": [3, 2, count, 1]}
        path = _with_encoder(source, tmp_path / "m.ckpt", obj)
        with pytest.raises(TextEncodingError, match=reason) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: vocabulary entry 3: ")

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_json_round_trip_byte_identical(self, tmp_path, kind):
        records = _recs("قصفت القوات the cat sat", "the cat ran")
        vocab = build_vocab(records) if kind == "word" else build_char_alphabet(records)
        first = _saved(tmp_path / "first.ckpt", kind, vocab)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded.model, tmp_path / "again.ckpt", encoder=loaded.encoder)
        assert (tmp_path / "again.ckpt").read_bytes() == first.read_bytes()
        assert _header(first.read_bytes())["encoder"] == {"tokens": vocab.tokens, "counts": vocab.counts}


class TestEncoderBundles:
    def test_word_encoder_json_round_trip(self, tmp_path):
        vocab = build_vocab(_recs("the cat sat"))
        again = load_checkpoint(_saved(tmp_path / "m.ckpt", "word", vocab)).encoder
        assert isinstance(again, WordEncoder)
        assert (again.encode("The cat!") == WordEncoder(vocab, again.length).encode("The cat!")).all()

    def test_char_encoder_json_round_trip(self, tmp_path):
        alphabet = build_char_alphabet(_recs("abc"))
        again = load_checkpoint(_saved(tmp_path / "m.ckpt", "char", alphabet)).encoder
        assert isinstance(again, CharEncoder)
        assert (again.encode("CAB") == CharEncoder(alphabet, again.length).encode("CAB")).all()

    def test_word_encoder_applies_tokenizer(self):
        vocab = build_vocab(_recs("u.s forces"))
        out = WordEncoder(vocab, 4).encode("U.S.  forces")
        assert out[0] == vocab.index_of("u.s")
        assert out[1] == vocab.index_of("forces")

    @pytest.mark.parametrize(
        "obj, reason",
        [
            (["x"], "exactly the keys"),
            ({"tokens": ["x"], "counts": [1], "kind": "word"}, "exactly the keys"),
            ({"tokens": ["x"]}, "exactly the keys"),
            ({"tokens": "x", "counts": [1]}, "two lists of equal length"),
            ({"tokens": ["x", "y"], "counts": [1]}, "two lists of equal length"),
        ],
        ids=["not_object", "extra_key", "missing_key", "tokens_str", "unequal_lengths"],
    )
    def test_malformed_columns(self, tmp_path, obj, reason):
        source = _saved(tmp_path / "honest.ckpt", "word", Vocabulary(["x"], [1]))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(_with_encoder(source, tmp_path / "m.ckpt", obj))
