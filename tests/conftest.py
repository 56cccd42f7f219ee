"""Shared fixtures for the F2 reproduction test suite."""

from __future__ import annotations

import json
import random
from typing import Any

import pytest

from repro.api.protocol import MESSAGE_MAGIC, MESSAGE_VERSION
from repro.core.config import F2Config
from repro.core.scheme import F2Scheme
from repro.crypto.keys import KeyGen
from repro.relational.table import Relation
from repro.wire.binary import ByteWriter


@pytest.fixture
def paper_figure1_table() -> Relation:
    """The base table D of Figure 1 (a): FD A -> B, four rows."""
    return Relation(
        ["A", "B", "C"],
        [
            ["a1", "b1", "c1"],
            ["a1", "b1", "c2"],
            ["a1", "b1", "c3"],
            ["a1", "b1", "c1"],
        ],
        name="figure1",
    )


@pytest.fixture
def paper_figure3_table() -> Relation:
    """The table D of Figure 3 (a): two overlapping MASs {A,B} and {B,C}."""
    return Relation(
        ["A", "B", "C"],
        [
            ["a3", "b2", "c1"],
            ["a1", "b2", "c1"],
            ["a2", "b2", "c1"],
            ["a2", "b2", "c2"],
            ["a3", "b2", "c2"],
            ["a1", "b1", "c3"],
        ],
        name="figure3",
    )


@pytest.fixture
def paper_figure4_table() -> Relation:
    """The table D of Figure 4 (a): A -> B does *not* hold (C1 and C3 collide)."""
    rows = []
    rows += [["a1", "b1"]] * 5
    rows += [["a2", "b3"]] * 2
    rows += [["a1", "b2"]] * 4
    rows += [["a2", "b4"]] * 3
    return Relation(["A", "B"], rows, name="figure4")


@pytest.fixture
def zipcode_table() -> Relation:
    """A Zipcode -> City style table with duplicates and a free column."""
    rng = random.Random(11)
    cities = {"07030": "Hoboken", "07302": "JerseyCity", "07310": "JerseyCity"}
    rows = []
    for index in range(48):
        zipcode = rng.choice(list(cities))
        rows.append([zipcode, cities[zipcode], f"street-{index}", rng.choice(["N", "S"])])
    return Relation(["Zipcode", "City", "Street", "Side"], rows, name="zipcodes")


@pytest.fixture
def seeded_scheme() -> F2Scheme:
    """An F2 scheme with a deterministic key and the default configuration."""
    return F2Scheme(key=KeyGen.symmetric_from_seed(42), config=F2Config(alpha=0.25, seed=7))


@pytest.fixture
def strict_scheme() -> F2Scheme:
    """An F2 scheme with verification/repair enabled (strict guarantees)."""
    config = F2Config(alpha=0.25, seed=7, verify_and_repair=True)
    return F2Scheme(key=KeyGen.symmetric_from_seed(43), config=config)


def make_random_table(seed: int, num_rows: int | None = None, num_attributes: int = 4) -> Relation:
    """A small random categorical table used by randomized tests."""
    rng = random.Random(seed)
    num_rows = num_rows or rng.randint(8, 30)
    attributes = [f"X{index}" for index in range(num_attributes)]
    domains = [rng.randint(2, 4) for _ in attributes]
    rows = []
    for _ in range(num_rows):
        rows.append([f"v{index}_{rng.randrange(domain)}" for index, domain in enumerate(domains)])
    return Relation(attributes, rows, name=f"random-{seed}")


def binary_frame(kind: str, meta: dict[str, Any]) -> bytes:
    """A hand-built protocol frame: ``kind`` + ``meta``, no attachments."""
    writer = ByteWriter()
    writer.raw(MESSAGE_MAGIC)
    writer.raw(bytes([MESSAGE_VERSION]))
    writer.lp_str(kind)
    writer.lp_bytes(json.dumps(meta).encode("utf-8"))
    writer.uvarint(0)
    return writer.getvalue()
