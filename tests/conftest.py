from dataclasses import dataclass

import numpy as np
import pytest

from quadcode.corpus import AlignmentPair, SentenceRecord
from quadcode.ontology import CLASSES, QuadClass, default_quad_map


@pytest.fixture
def quad_map():
    return default_quad_map()


@pytest.fixture
def classes():
    return CLASSES


@pytest.fixture
def np_gen():
    return np.random.default_rng(20240817)


@dataclass(frozen=True)
class TransferFixture:
    source: list[SentenceRecord]
    target: list[SentenceRecord]
    pairs: list[AlignmentPair]
    expected_labels: dict[str, QuadClass]  # target id -> label
    expected_conflicts: int
    expected_dropped: int


@pytest.fixture(scope="session")
def transfer_fixture() -> TransferFixture:
    """Fixed graph covering fan-out, many-to-one conflict, and a dropped target."""
    quads = list(CLASSES)
    source = [
        SentenceRecord(id=f"s{i}", lang="en", text=f"source sentence {i}", label=quads[i % 4])
        for i in range(4)
    ]
    target = [
        SentenceRecord(id=f"t{i}", lang="ar", text=f"جملة {i}") for i in range(5)
    ]
    pairs = [
        AlignmentPair("s0", "t0"),  # fan-out: s0 labels both t0 and t1
        AlignmentPair("s0", "t1"),
        AlignmentPair("s1", "t2"),
        AlignmentPair("s2", "t3"),  # first pair for t3 wins
        AlignmentPair("s3", "t3"),  # second pair conflicts
        # t4 deliberately unaligned
    ]
    expected = {"t0": quads[0], "t1": quads[0], "t2": quads[1], "t3": quads[2]}
    return TransferFixture(source, target, pairs, expected, expected_conflicts=1, expected_dropped=1)
