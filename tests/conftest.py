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


def write_legacy_store(directory, relation: Relation, generation: int = 1) -> None:
    """Write ``relation`` as a segment store from before the table log.

    That format committed each write as ``MANIFEST-<generation>.json`` (a
    JSON document naming the segment files, view slices and dictionary
    blobs) plus a ``CURRENT`` pointer.  The store no longer reads it.
    """
    import zlib
    from array import array
    from pathlib import Path

    from repro.backend import get_backend
    from repro.wire.binary import code_width
    from repro.wire.codec import encode_cell_run

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    coded = relation.coded(get_backend("python"))
    segment = bytearray(b"F2SG\x01")
    columns, dictionaries = [], []
    for index, attribute in enumerate(relation.attributes):
        column = coded.column(attribute)
        width = code_width(column.num_values)
        columns.append({"offset": len(segment), "width": width})
        segment += array({1: "B", 2: "H", 4: "I", 8: "Q"}[width], list(column.codes)).tobytes()
        blob = encode_cell_run(column.dictionary)
        name = f"dict-{generation:06d}-{index:03d}.blob"
        (directory / name).write_bytes(blob)
        dictionaries.append(
            {"name": name, "values": column.num_values, "length": len(blob), "crc": zlib.crc32(blob)}
        )
    segment_name = f"seg-{generation:06d}.seg"
    (directory / segment_name).write_bytes(bytes(segment))
    doc = {
        "format": "f2-segment-store",
        "version": 1,
        "generation": generation,
        "table_name": relation.name,
        "attributes": list(relation.attributes),
        "num_rows": relation.num_rows,
        "merkle_root": "",
        "files": [
            {
                "name": segment_name,
                "rows": relation.num_rows,
                "length": len(segment),
                "crc": zlib.crc32(bytes(segment)),
                "columns": columns,
            }
        ],
        "view": [[0, 0, relation.num_rows]] if relation.num_rows else [],
        "dictionaries": dictionaries,
    }
    doc["merkle_root_format"] = 2
    manifest = f"MANIFEST-{generation:06d}.json"
    (directory / manifest).write_text(json.dumps(doc, indent=0, sort_keys=True), encoding="utf-8")
    (directory / "CURRENT").write_text(manifest + "\n", encoding="utf-8")
