"""Tokenizer, pattern matching against a naive oracle, and corpus coding."""

import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcode.corpus import SentenceRecord, read_jsonl, write_jsonl
from quadcode.ontology import CameoCode, QuadClass, default_quad_map, parse_cameo_code, quad_of
from quadcode.softlabel import (
    MatchSpan,
    PatternDictionary,
    SoftLabelError,
    VerbPattern,
    code_corpus,
    label_sentence,
    load_actor_words,
    load_dictionary,
    match_patterns,
    parse_dictionary,
    tokenize,
)

# --- oracles ----------------------------------------------------------------
# The tokenizer as first written: a Unicode category walk at both ends of
# every whitespace token, with no fast path.


def naive_tokenize(text):
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


# Quadratic rescan: at each position try every pattern by direct tuple
# comparison, longest wins, jump past the match. The trie must agree exactly.


def naive_leftmost_longest(patterns, tokens):
    spans = []
    i = 0
    while i < len(tokens):
        best = None
        for p in patterns:
            width = len(p.tokens)
            if i + width <= len(tokens) and tuple(tokens[i : i + width]) == p.tokens:
                if best is None or width > len(best.tokens):
                    best = p
        if best is None:
            i += 1
        else:
            spans.append((i, len(best.tokens), best.code.digits))
            i += len(best.tokens)
    return spans


def _spans_as_tuples(spans):
    return [(s.start, s.length, s.code.digits) for s in spans]


# Characters at the edges of the fast path: P* of every subcategory ("_" is
# Pc), combining marks, non-Latin letters and digits, symbols, and spaces.
TRICKY_CHARS = list(
    "aZé.,;:!?'\"()[]{}-_\u2010\u2013\u2014\u00ab\u00bb\u00bf\u300c\u300d\u3001\u2026"
    "\u0301\u0308\u0651\u0663\u0969\uff11\u00b2\u2167\u0642\u0635\u03a3\u0130$%+ \t\n"
)
tricky_edges = st.text(alphabet=st.sampled_from(TRICKY_CHARS), max_size=2)
# short words with tricky characters at their edges
tricky_texts = st.lists(
    st.tuples(tricky_edges, st.text(alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=3),
              tricky_edges).map("".join),
    max_size=10,
).map(" ".join)


class TestTokenize:
    def test_lowercase_split_strip(self):
        assert tokenize("U.S.  forces") == ["u.s", "forces"]

    def test_interior_punctuation_survives(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_surrounding_punctuation_stripped(self):
        assert tokenize('"Hello," she said.') == ["hello", "she", "said"]

    def test_pure_punctuation_tokens_dropped(self):
        assert tokenize("wait -- what ??") == ["wait", "what"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_arabic_text_kept_whole(self):
        assert tokenize("قصفت القوات.") == [
            "قصفت",
            "القوات",
        ]

    @given(st.text(max_size=60))
    def test_tokens_never_empty_or_spacey(self, text):
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)
            assert token == token.lower()

    @given(tricky_texts)
    @example("a_ _b x_y \u0663) \u00e9. e\u0301 \u00bba\u00bb ..")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_category_walk_oracle(self, text):
        assert tokenize(text) == naive_tokenize(text)

    def test_no_code_point_is_alphanumeric_and_punctuation(self):
        # The fast path keeps a token whose edge characters are alphanumeric
        # without looking at their categories; this makes that exact.
        both = [
            hex(cp) for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert both == []


class TestPatternValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(SoftLabelError):
            VerbPattern((), parse_cameo_code("14"))

    def test_uppercase_token_rejected(self):
        with pytest.raises(SoftLabelError):
            VerbPattern(("Attacked",), parse_cameo_code("19"))

    def test_duplicate_pattern_rejected(self):
        patterns = [
            VerbPattern(("met", "with"), parse_cameo_code("04")),
            VerbPattern(("met", "with"), parse_cameo_code("05")),
        ]
        with pytest.raises(SoftLabelError, match=r"^pattern defined twice: 'met with'$"):
            PatternDictionary(patterns)

    def test_same_code_different_tokens_fine(self):
        PatternDictionary([
            VerbPattern(("met",), parse_cameo_code("04")),
            VerbPattern(("met", "with"), parse_cameo_code("04")),
        ])


class TestMatching:
    def _dict(self, *specs):
        return PatternDictionary([VerbPattern(tuple(t.split()), parse_cameo_code(c)) for t, c in specs])

    def test_longest_wins_at_position(self):
        d = self._dict(("signed", "05"), ("signed agreement with", "057"))
        spans = match_patterns(d, "they signed agreement with peers".split())
        assert _spans_as_tuples(spans) == [(1, 3, "057")]

    def test_scan_resumes_after_match(self):
        d = self._dict(("met with", "04"), ("with envoy", "05"))
        spans = match_patterns(d, "met with envoy".split())
        # "with envoy" overlaps the consumed span and must not fire
        assert _spans_as_tuples(spans) == [(0, 2, "04")]

    def test_multiple_matches_in_order(self):
        d = self._dict(("attacked", "19"), ("condemned", "11"))
        spans = match_patterns(d, "condemned then attacked again condemned".split())
        assert _spans_as_tuples(spans) == [(0, 1, "11"), (2, 1, "19"), (4, 1, "11")]

    def test_no_match(self):
        d = self._dict(("attacked", "19"))
        assert match_patterns(d, "nothing here".split()) == []

    def test_empty_tokens(self):
        d = self._dict(("attacked", "19"))
        assert match_patterns(d, []) == []

    def test_prefix_without_terminal_does_not_fire(self):
        d = self._dict(("signed agreement with", "057"),)
        assert match_patterns(d, "they signed agreement quickly".split()) == []


# randomized equivalence against the oracle; the acceptance suite reruns
# this at 1,000 trials with a seeded loop
token_pool = ["a", "b", "c", "d", "e", "f"]
codes_pool = ["04", "057", "11", "14", "190", "20"]


@st.composite
def dictionaries_and_sentences(draw):
    n_patterns = draw(st.integers(1, 8))
    seqs = draw(
        st.lists(
            st.lists(st.sampled_from(token_pool), min_size=1, max_size=3).map(tuple),
            min_size=n_patterns, max_size=n_patterns, unique=True,
        )
    )
    patterns = [
        VerbPattern(seq, parse_cameo_code(draw(st.sampled_from(codes_pool)))) for seq in seqs
    ]
    sentence = draw(st.lists(st.sampled_from(token_pool), max_size=12))
    return patterns, sentence


class TestOracleEquivalence:
    @given(dictionaries_and_sentences())
    @settings(max_examples=300, deadline=None)
    def test_trie_equals_naive_scan(self, case):
        patterns, sentence = case
        compiled = PatternDictionary(patterns)
        assert _spans_as_tuples(match_patterns(compiled, sentence)) == naive_leftmost_longest(patterns, sentence)

    def test_seeded_bulk_trials(self):
        gen = np.random.default_rng(99)
        for _ in range(200):
            n = int(gen.integers(1, 9))
            seqs = set()
            while len(seqs) < n:
                width = int(gen.integers(1, 4))
                seqs.add(tuple(token_pool[i] for i in gen.integers(0, len(token_pool), size=width)))
            patterns = [
                VerbPattern(seq, parse_cameo_code(codes_pool[int(gen.integers(0, len(codes_pool)))]))
                for seq in seqs
            ]
            sentence = [token_pool[i] for i in gen.integers(0, len(token_pool), size=int(gen.integers(0, 13)))]
            compiled = PatternDictionary(patterns)
            assert _spans_as_tuples(match_patterns(compiled, sentence)) == naive_leftmost_longest(patterns, sentence)


decorations = ["", "", "", ".", ",", '"', "(", ")", "\u00bb", "_", "--"]


@st.composite
def patterns_and_texts(draw):
    """Oracle patterns plus a sentence over the same tokens, with case and
    edge punctuation the tokenizer must strip."""
    patterns, sentence = draw(dictionaries_and_sentences())
    words = []
    for token in sentence:
        word = draw(st.sampled_from([token, token.upper()]))
        words.append(draw(st.sampled_from(decorations)) + word + draw(st.sampled_from(decorations)))
        words.extend(draw(st.lists(st.sampled_from(["--", "!", "\u2026"]), max_size=1)))
    return patterns, " ".join(words)


class TestLabelSentence:
    @given(patterns_and_texts())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_first_oracle_span_decides(self, case):
        patterns, text = case
        quad_map = default_quad_map()
        spans = naive_leftmost_longest(patterns, naive_tokenize(text))
        got = label_sentence(PatternDictionary(patterns), quad_map, text)
        if not spans:
            assert got is None
        else:
            code = parse_cameo_code(spans[0][2])
            assert got is not None and got[1].digits == code.digits and got[0] is quad_of(code, quad_map)

    def _dict(self):
        return PatternDictionary([
            VerbPattern(("met", "with"), parse_cameo_code("040")),
            VerbPattern(("attacked",), parse_cameo_code("190")),
        ])

    def test_first_span_decides(self, quad_map):
        result = label_sentence(self._dict(), quad_map, "They met with rebels, then attacked.")
        assert result is not None
        quad, code = result
        assert quad is QuadClass.VERBAL_COOPERATION
        assert code.digits == "040"

    def test_no_match_gives_none(self, quad_map):
        assert label_sentence(self._dict(), quad_map, "Nothing happened.") is None

    def test_actor_gate(self, quad_map):
        gate = frozenset({"army"})
        assert label_sentence(self._dict(), quad_map, "The army attacked.", gate) is not None
        assert label_sentence(self._dict(), quad_map, "Someone attacked.", gate) is None

    def test_case_and_punctuation_insensitive(self, quad_map):
        result = label_sentence(self._dict(), quad_map, "MET WITH!!")
        assert result is not None and result[1].digits == "040"


class TestDictionaryFiles:
    def test_parse_and_comments(self):
        text = "# verbs\nmet with -> 040\n\nattacked -> 190  # trailing comment\n"
        patterns = parse_dictionary(text)
        assert [(p.tokens, p.code.digits) for p in patterns] == [
            (("met", "with"), "040"),
            (("attacked",), "190"),
        ]

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_separator_stays_inside_a_comment(self, end):
        # str.splitlines would break at U+2028 and read the commented-out pattern
        text = f"met with -> 040  # retired:\u2028attacked -> 190{end}signed -> 051{end}"
        assert [(p.tokens, p.code.digits) for p in parse_dictionary(text)] == [(("met", "with"), "040"), (("signed",), "051")]

    def test_tokens_lowercased_on_load(self):
        (pattern,) = parse_dictionary("Met With -> 040\n")
        assert pattern.tokens == ("met", "with")

    def test_missing_arrow(self):
        with pytest.raises(SoftLabelError, match=r"^dictionary line 1: expected 'tokens -> CODE'"):
            parse_dictionary("met with 040\n")

    def test_bad_code_reports_line(self):
        with pytest.raises(SoftLabelError, match=r"^dictionary line 2: top-level category must be 01-20"):
            parse_dictionary("# c\nmet with -> 99\n")

    def test_empty_phrase(self):
        with pytest.raises(SoftLabelError, match=r"^dictionary line 1: pattern needs at least one token$"):
            parse_dictionary(" -> 040\n")

    @pytest.mark.parametrize("line", ["u.s. attacked -> 190", "warned, -> 130", "(met) with -> 040", "_x -> 14"])
    def test_token_the_tokenizer_never_yields_rejected(self, line):
        # Such a pattern would load and never match: "The U.S. attacked the
        # base." tokenizes to "u.s", never "u.s.".
        with pytest.raises(SoftLabelError, match=r"^dictionary line 2: ") as err:
            parse_dictionary(f"attacked -> 190\n{line}\n")
        assert "can never match" in str(err.value)

    def test_interior_punctuation_accepted(self):
        (pattern,) = parse_dictionary("U.S attacked -> 190\n")
        assert pattern.tokens == ("u.s", "attacked")
        result = label_sentence(PatternDictionary([pattern]), default_quad_map(), "The U.S. attacked the base.")
        assert result is not None and result[1].digits == "190"

    def test_pattern_token_must_be_tokenizer_output(self):
        with pytest.raises(SoftLabelError, match="can never match"):
            VerbPattern(("warned,",), parse_cameo_code("13"))

    def test_actor_list(self, tmp_path):
        path = tmp_path / "actors.txt"
        path.write_text("# actors\nPolice\nu.n  # interior punctuation is fine\n")
        assert load_actor_words(path) == frozenset({"police", "u.n"})

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_next_line_stays_inside_a_comment(self, tmp_path, end):
        # str.splitlines would break at U+0085 and add army to the list
        path = tmp_path / "actors.txt"
        path.write_bytes(f"police  # not\x85army{end}rebels{end}".encode())
        assert load_actor_words(path) == frozenset({"police", "rebels"})

    @pytest.mark.parametrize("line", ["u.n.", "police,", "al qaeda", "'army'"])
    def test_actor_the_tokenizer_never_yields_rejected(self, tmp_path, line):
        path = tmp_path / "actors.txt"
        path.write_text(f"police\n\n{line}\n")
        with pytest.raises(SoftLabelError, match=r"^actor list line 3: ") as err:
            load_actor_words(path)
        assert "can never match" in str(err.value)

    def test_load_shipped_sample(self):
        from importlib import resources

        path = resources.files("quadcode.data") / "sample_verb_dict.txt"
        dictionary = load_dictionary(path)
        tokens = tokenize("Officials signed agreement with the rebels.")
        assert match_patterns(dictionary, tokens) == [MatchSpan(1, 3, parse_cameo_code("057"))]


class TestCodeCorpus:
    def test_conservation_and_order(self, tmp_path, quad_map):
        records = [
            SentenceRecord(id="r1", lang="en", text="They met with envoys."),
            SentenceRecord(id="r2", lang="en", text="Quiet day."),
            SentenceRecord(id="r3", lang="en", text="Forces attacked the town."),
        ]
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        write_jsonl(records, src)
        dictionary = PatternDictionary([
            VerbPattern(("met", "with"), parse_cameo_code("040")),
            VerbPattern(("attacked",), parse_cameo_code("190")),
        ])
        hist = code_corpus(dictionary, quad_map, src, dst)
        assert hist.total == 3
        assert hist.counts[QuadClass.VERBAL_COOPERATION] == 1
        assert hist.counts[QuadClass.MATERIAL_CONFLICT] == 1
        assert hist.unlabelled == 1
        out = read_jsonl(dst)
        assert [r.id for r in out] == ["r1", "r3"]
        assert out[0].label is QuadClass.VERBAL_COOPERATION
        assert out[0].cameo.digits == "040"

    def test_fixture_answers(self, tmp_path, quad_map):
        from quadcode.fixtures import make_softlabel_fixture

        fx = make_softlabel_fixture(60, seed=3)
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        write_jsonl(fx.records, src)
        hist = code_corpus(PatternDictionary(fx.patterns), quad_map, src, dst)
        expected_labelled = [e for e in fx.expected if e is not None]
        assert hist.total == 60
        assert hist.unlabelled == 60 - len(expected_labelled)
        out = read_jsonl(dst)
        assert len(out) == len(expected_labelled)
        for record, (quad, code) in zip(out, expected_labelled):
            assert record.label is quad
            assert record.cameo.digits == code

    def test_empty_corpus(self, tmp_path, quad_map):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        src.write_text("")
        hist = code_corpus(PatternDictionary([VerbPattern(("x",), parse_cameo_code("14"))]), quad_map, src, dst)
        assert hist.total == 0
        assert dst.read_text() == ""
