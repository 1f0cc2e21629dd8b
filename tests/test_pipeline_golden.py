"""Golden digests of the softlabel, transfer and split outputs.

A seeded news-length corpus runs through the three commands. The sha256 of
every output file and of the printed histogram or report is pinned, as the
commands wrote them before the labelling and record-writing fast paths, so
any change to a written or printed byte fails here.
"""

import contextlib
import hashlib
import io
from importlib import resources

import numpy as np
import pytest

from quadcode.cli import main
from quadcode.corpus import AlignmentPair, SentenceRecord, read_jsonl, write_alignments, write_jsonl
from quadcode.softlabel import parse_dictionary

SEED = 20261018

# Words around the verb phrases: plain, capitalised, with interior
# punctuation, and in other scripts.
FILLER = (
    "the", "minister", "government", "talks", "delegation", "after", "week", "U.S.", "don't",
    "al-Quds", "Ministry", "north-east", "café", "Zürich", "قصفت", "القوات", "Москва", "2016",
    "٣", "x_y", "élan",
)
# Edge punctuation the tokenizer strips, including "_" (category Pc).
EDGES = ("", "", "", "", ".", ",", '"', "(", ")", "«", "»", "_", "—", "'", "...", "?!")


def _word(gen, word: str) -> str:
    if gen.random() < 0.2:
        word = word.upper() if gen.random() < 0.5 else word.capitalize()
    return EDGES[int(gen.integers(len(EDGES)))] + word + EDGES[int(gen.integers(len(EDGES)))]


def news_corpus(n: int, seed: int) -> list[SentenceRecord]:
    """Sentences of 12 to 40 words; most carry one to three dictionary phrases."""
    dictionary = resources.files("quadcode.data") / "sample_verb_dict.txt"
    phrases = [p.tokens for p in parse_dictionary(dictionary.read_text(encoding="utf-8"))]
    gen = np.random.default_rng(seed)
    records = []
    for i in range(n):
        words = [FILLER[k] for k in gen.integers(0, len(FILLER), size=int(gen.integers(12, 41)))]
        for _ in range(int(gen.integers(0, 4))):
            phrase = phrases[int(gen.integers(len(phrases)))]
            at = int(gen.integers(0, len(words) + 1))
            words[at:at] = phrase
        text = " ".join(_word(gen, w) for w in words)
        source = f"wire{i % 3}" if i % 4 == 0 else None
        records.append(SentenceRecord(id=f"n{i:05d}", lang="en", text=text, source=source))
    return records


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


GOLDEN = {
    "softlabel.out": "271ab71721fda2771a7b291b2529782831e14b4a9322e104b768e61bce0644ba",
    "softlabel.stdout": "020425262519cf7c7df86eb96d165ba223ec9350b8b410f676bd248b52167f90",
    "transfer.out": "b7ca23d765bf27c91e563a25e58c04c238565a6d2611347d9e3de2ea315b2536",
    "transfer.stdout": "f277db0ebceaa53c5826a5bfe25affd514bda9716ae77e348b877f1a74d29287",
    "split.train": "f76532591ccecec2c7888cd7d8094a2222b8ecf3a7b6ffe4661416d6b8256ef3",
    "split.dev": "61a21cd9a6c9730e72f9caaf41f5a2b09af406b0c78757c1a12d852e71dac005",
    "split.test": "8f957f462f0f474c49dcbbadd5033037c833e5acc6808c5bae3a9c97ce1c5d42",
    "split.stdout": "c757d09d46300c2065162379f7e7d7bed174acb292e9b60f8bd553479ff2ad2a",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Digests of every output of softlabel -> transfer -> split, by name."""
    d = tmp_path_factory.mktemp("golden")

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    dictionary = resources.files("quadcode.data") / "sample_verb_dict.txt"
    write_jsonl(news_corpus(600, SEED), d / "news.jsonl")
    digests = {}
    printed = run(["softlabel", "--dict", str(dictionary), "--in", str(d / "news.jsonl"), "--out", str(d / "labelled.jsonl")])
    digests["softlabel.out"] = _sha((d / "labelled.jsonl").read_bytes())
    digests["softlabel.stdout"] = _sha(printed)

    # Targets: one per labelled source and some extra, aligned with fan-out,
    # conflicts and dropped targets.
    labelled = read_jsonl(d / "labelled.jsonl")
    gen = np.random.default_rng(SEED + 1)
    targets = [SentenceRecord(id=f"t{j:05d}", lang="ar", text=f"جملة {j} «{j % 7}»") for j in range(len(labelled) + 40)]
    pairs = []
    for j, target in enumerate(targets):
        if j % 11 == 5:
            continue
        pairs.append(AlignmentPair(labelled[int(gen.integers(len(labelled)))].id, target.id))
        if j % 9 == 0:
            pairs.append(AlignmentPair(labelled[int(gen.integers(len(labelled)))].id, target.id))
    write_jsonl(targets, d / "targets.jsonl")
    write_alignments(pairs, d / "align.jsonl")
    printed = run(["transfer", "--src", str(d / "labelled.jsonl"), "--tgt", str(d / "targets.jsonl"),
                   "--align", str(d / "align.jsonl"), "--out", str(d / "transferred.jsonl")])
    digests["transfer.out"] = _sha((d / "transferred.jsonl").read_bytes())
    digests["transfer.stdout"] = _sha(printed)

    printed = run(["split", "--in", str(d / "transferred.jsonl"), "--fractions", "0.6,0.25,0.15",
                   "--seed", "7", "--outdir", str(d / "split")])
    for name in ("train", "dev", "test"):
        digests[f"split.{name}"] = _sha((d / "split" / f"{name}.jsonl").read_bytes())
    digests["split.stdout"] = _sha(printed)
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(pipeline, name):
    assert pipeline[name] == GOLDEN[name]
