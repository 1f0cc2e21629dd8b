"""Record-level fitting plumbing: encoder fit, labelled encoding, fit."""

import pytest

from quadcode.config import Settings
from quadcode.corpus import SentenceRecord
from quadcode.errors import InputError
from quadcode.experiments import build_encoder, encode_labelled, fit
from quadcode.fixtures import make_separable_corpus
from quadcode.text_encoding import CharEncoder, WordEncoder


def _small_settings(model="word"):
    s = Settings()
    s.apply(
        {
            "model": model,
            "epochs": "2",
            "batch_size": "16",
            "word.embed_dim": "8",
            "word.length": "10",
            "word.frames": "4",
            "word.hidden": "8",
            "word.dropout": "0.0",
            "char.embed_dim": "8",
            "char.length": "48",
            "char.convs": "4x7p2,4x3,4x3,4x3p2",
            "char.hidden": "12,12",
            "char.dropout": "0.0",
        },
        source="test",
    )
    return s


class TestBuildEncoder:
    def test_word_encoder_from_settings(self):
        records = make_separable_corpus(12, seed=0)
        encoder = build_encoder(records, _small_settings("word"))
        assert isinstance(encoder, WordEncoder)
        assert encoder.length == 10

    def test_char_encoder_from_settings(self):
        records = make_separable_corpus(12, seed=0, script="arabic")
        encoder = build_encoder(records, _small_settings("char"))
        assert isinstance(encoder, CharEncoder)
        assert encoder.length == 48

    def test_vocab_caps_respected(self):
        s = _small_settings("word")
        s.apply({"word.vocab_max_size": "6"}, source="test")
        encoder = build_encoder(make_separable_corpus(40, seed=1), s)
        assert encoder.vocab.size <= 6


class TestEncodeLabelled:
    def test_shapes_and_labels(self):
        records = make_separable_corpus(8, seed=2)
        encoder = build_encoder(records, _small_settings("word"))
        encoded = encode_labelled(records, encoder)
        assert len(encoded) == 8
        assert all(e.indices.shape == (10,) for e in encoded)
        assert [e.label for e in encoded] == [r.label.index for r in records]

    def test_unlabelled_rejected(self):
        records = make_separable_corpus(4, seed=2)
        encoder = build_encoder(records, _small_settings("word"))
        bare = SentenceRecord(id="x", lang="en", text="hello")
        with pytest.raises(InputError, match="'x'"):
            encode_labelled([bare], encoder)


class TestFit:
    def test_word_fit_returns_trained_bundle(self):
        records = make_separable_corpus(32, seed=3)
        result = fit(records[:24], records[24:], _small_settings("word"))
        assert result.model.kind == "word"
        assert len(result.history) == 2
        assert isinstance(result.encoder, WordEncoder)

    def test_char_fit(self):
        records = make_separable_corpus(24, seed=4, script="arabic")
        result = fit(records[:16], records[16:], _small_settings("char"))
        assert result.model.kind == "char"

    def test_vocab_fitted_on_train_only(self):
        train_records = make_separable_corpus(8, seed=5)
        dev_records = [
            SentenceRecord(id="d0", lang="en", text="unseenword bcdbc", label=train_records[0].label)
        ]
        result = fit(train_records, dev_records, _small_settings("word"))
        assert "unseenword" not in result.encoder.vocab

    def test_pretrained_embeddings_wired_through(self, tmp_path):
        records = make_separable_corpus(16, seed=6)
        settings = _small_settings("word")
        # pick a token the fitted vocabulary is guaranteed to contain
        token = build_encoder(records[:12], settings).vocab.tokens[0]
        vec_path = tmp_path / "vecs.txt"
        vec_path.write_text(token + " " + " ".join(["0.111"] * 8) + "\n")
        settings.apply(
            {"word.embeddings": str(vec_path), "word.embeddings_trainable": "false", "epochs": "1"},
            source="test",
        )
        result = fit(records[:12], records[12:], settings)
        index = result.encoder.vocab.index_of(token)
        embed = next(p for p in result.model.parameters() if p.name == "embedding")
        assert embed.frozen
        assert (embed.value[index] == 0.111).all()
