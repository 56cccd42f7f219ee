"""Synthetic dataset generators with controlled MAS and FD structure.

Two generators are provided:

* :func:`generate_synthetic` — the substitute for the paper's synthetic
  dataset (Table 1): 7 attributes forming exactly two overlapping MASs (one
  of three attributes, one of five, sharing one attribute), with a very large
  number of equivalence classes — the property that makes the SSE step
  dominate encryption time on this dataset (Figures 6 (a) and 7 (a)).
* :func:`generate_fd_table` — a small parametric table with *planted* FDs
  (Zipcode -> City style chains), used by tests, examples, and the
  correctness experiments.

Both generators only create duplicate value combinations on purpose: every
other cell value is globally unique, so the MAS structure is exact by
construction rather than probabilistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import DatasetError
from repro.relational.table import Relation

# The MAS structure generate_synthetic() plants (used by tests and DESIGN.md).
SYNTHETIC_MAS_ONE = ("A1", "A2", "A3")
SYNTHETIC_MAS_TWO = ("A3", "A4", "A5", "A6", "A7")


@dataclass(frozen=True)
class SyntheticProfile:
    """Knobs of :func:`generate_synthetic` (kept together for benchmarks)."""

    duplicate_fraction: float = 0.6
    min_class_size: int = 2
    max_class_size: int = 3


def generate_synthetic(
    num_rows: int,
    seed: int = 0,
    profile: SyntheticProfile | None = None,
    name: str = "synthetic",
) -> Relation:
    """Generate the 7-attribute synthetic table with two overlapping MASs.

    The MASs are ``{A1, A2, A3}`` and ``{A3, A4, A5, A6, A7}``, overlapping at
    ``A3`` (the paper describes a 3-attribute and a 6-attribute MAS
    overlapping at one attribute over 7 columns, which is arithmetically
    impossible; the closest consistent structure is used and documented in
    DESIGN.md).  FDs ``A1 -> A2`` and ``A4 -> A5`` are planted; the reverse
    directions are explicitly broken.

    Parameters
    ----------
    num_rows:
        Total number of rows (>= 4).
    seed:
        RNG seed (deterministic output per (num_rows, seed)).
    profile:
        Duplicate-density profile; the default reproduces a large number of
        small equivalence classes.
    """
    if num_rows < 4:
        raise DatasetError("the synthetic dataset needs at least 4 rows")
    profile = profile or SyntheticProfile()
    if not 0 <= profile.duplicate_fraction <= 1:
        raise DatasetError("duplicate_fraction must lie in [0, 1]")
    if profile.min_class_size < 2 or profile.max_class_size < profile.min_class_size:
        raise DatasetError("class sizes must satisfy 2 <= min <= max")

    rng = random.Random(seed)
    counter = _UniqueCounter()
    schema = ["A1", "A2", "A3", "A4", "A5", "A6", "A7"]
    rows: list[list[str]] = []

    # City-style lookup so that A1 -> A2 and A4 -> A5 hold by construction.
    a2_for_a1: dict[str, str] = {}
    a5_for_a4: dict[str, str] = {}

    def fresh_value(attribute: str) -> str:
        return f"{attribute.lower()}_{counter.next()}"

    def value_for(attribute: str, shared: dict[str, str]) -> str:
        if attribute in shared:
            return shared[attribute]
        value = fresh_value(attribute)
        if attribute == "A1":
            a2_for_a1[value] = fresh_value("A2")
        if attribute == "A4":
            a5_for_a4[value] = fresh_value("A5")
        return value

    def build_row(shared: dict[str, str]) -> list[str]:
        values: dict[str, str] = {}
        for attribute in ("A1", "A3", "A4", "A6", "A7"):
            values[attribute] = value_for(attribute, shared)
        values["A2"] = shared.get("A2", a2_for_a1[values["A1"]])
        values["A5"] = shared.get("A5", a5_for_a4[values["A4"]])
        return [values[attribute] for attribute in schema]

    # Dedicated "breaker" rows: two rows sharing an A2 value but carrying
    # distinct, never-reused A1 values break the reverse dependency A2 -> A1
    # without touching the planted A1 -> A2 (those A1 values occur only once);
    # two analogous rows break A5 -> A4.
    if num_rows >= 8:
        shared_a2 = fresh_value("A2")
        for _ in range(2):
            breaker = build_row({"A2": shared_a2})
            rows.append(breaker)
        shared_a5 = fresh_value("A5")
        for _ in range(2):
            breaker = build_row({"A5": shared_a5})
            rows.append(breaker)

    while len(rows) < num_rows:
        remaining = num_rows - len(rows)
        roll = rng.random()
        class_size = rng.randint(profile.min_class_size, profile.max_class_size)
        class_size = min(class_size, remaining)
        if roll < 0.03 and remaining >= 3:
            # A "cross" tuple that belongs to a duplicate class of both MASs
            # at once (the situation the conflict-resolution step handles):
            # the anchor shares MAS1 with one partner and MAS2 with another.
            a1 = fresh_value("A1")
            a2_for_a1[a1] = fresh_value("A2")
            a4 = fresh_value("A4")
            a5_for_a4[a4] = fresh_value("A5")
            mas_one_values = {"A1": a1, "A2": a2_for_a1[a1], "A3": fresh_value("A3")}
            mas_two_values = {
                "A3": mas_one_values["A3"],
                "A4": a4,
                "A5": a5_for_a4[a4],
                "A6": fresh_value("A6"),
                "A7": fresh_value("A7"),
            }
            rows.append(build_row({**mas_one_values, **mas_two_values}))
            rows.append(build_row(mas_one_values))
            rows.append(build_row(mas_two_values))
        elif roll < profile.duplicate_fraction / 2 and class_size >= 2:
            # A duplicate class on MAS1 = {A1, A2, A3}.
            a1 = fresh_value("A1")
            a2_for_a1[a1] = fresh_value("A2")
            shared = {"A1": a1, "A2": a2_for_a1[a1], "A3": fresh_value("A3")}
            for _ in range(class_size):
                rows.append(build_row(shared))
        elif roll < profile.duplicate_fraction and class_size >= 2:
            # A duplicate class on MAS2 = {A3, A4, A5, A6, A7}.
            a4 = fresh_value("A4")
            a5_for_a4[a4] = fresh_value("A5")
            shared = {
                "A3": fresh_value("A3"),
                "A4": a4,
                "A5": a5_for_a4[a4],
                "A6": fresh_value("A6"),
                "A7": fresh_value("A7"),
            }
            for _ in range(class_size):
                rows.append(build_row(shared))
        else:
            rows.append(build_row({}))

    return Relation(schema, rows[:num_rows], name=name)


class _UniqueCounter:
    """Monotonic counter guaranteeing globally unique synthetic values."""

    def __init__(self) -> None:
        self._value = 0

    def next(self) -> int:
        self._value += 1
        return self._value


_MASK = (1 << 64) - 1


def _rotate(value: int, bits: int) -> int:
    return ((value << bits) | (value >> (64 - bits))) & _MASK


def _sip_round(v0: int, v1: int, v2: int, v3: int) -> tuple[int, int, int, int]:
    v0 = (v0 + v1) & _MASK
    v2 = (v2 + v3) & _MASK
    v1 = _rotate(v1, 13) ^ v0
    v3 = _rotate(v3, 16) ^ v2
    v0 = _rotate(v0, 32)
    v2 = (v2 + v1) & _MASK
    v0 = (v0 + v3) & _MASK
    v1 = _rotate(v1, 17) ^ v2
    v3 = _rotate(v3, 21) ^ v0
    v2 = _rotate(v2, 32)
    return v0, v1, v2, v3


def seed_zero_hash(text: str) -> int:
    """SipHash-1-3 under a zero key over ``text``'s ASCII bytes.

    The same value on every run and platform: it is what CPython 3.11+
    returns for ``hash(text)`` under ``PYTHONHASHSEED=0``, so tables built
    with it equal the ones the salted ``hash()`` gave under that seed.
    """
    data = text.encode("ascii")
    if not data:
        return 0  # CPython hashes the empty string to 0
    v0, v1, v2, v3 = 0x736F6D6570736575, 0x646F72616E646F6D, 0x6C7967656E657261, 0x7465646279746573
    whole = len(data) - len(data) % 8
    for start in range(0, whole, 8):
        word = int.from_bytes(data[start : start + 8], "little")
        v3 ^= word
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
        v0 ^= word
    last = (len(data) & 0xFF) << 56 | int.from_bytes(data[whole:], "little")
    v3 ^= last
    v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    v0 ^= last
    v2 ^= 0xFF
    for _ in range(3):
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    value = v0 ^ v1 ^ v2 ^ v3
    value = value - (1 << 64) if value >> 63 else value  # as a signed Py_hash_t
    return -2 if value == -1 else value


def generate_fd_table(
    num_rows: int,
    num_zipcodes: int = 10,
    num_extra_columns: int = 1,
    seed: int = 0,
    name: str = "addresses",
) -> Relation:
    """Generate a Zipcode/City/Street style table with planted FDs.

    The planted dependencies are ``Zipcode -> City`` and ``City -> State``
    (a chain), while ``Street`` and the extra columns are free.  Useful as a
    small, human-readable table for examples and tests.

    Parameters
    ----------
    num_rows:
        Number of rows (>= 1).
    num_zipcodes:
        Number of distinct zipcodes (controls duplicate density).
    num_extra_columns:
        Number of additional free attributes (``Extra1`` ... ``ExtraN``).
    seed:
        RNG seed.
    """
    if num_rows < 1:
        raise DatasetError("num_rows must be at least 1")
    if num_zipcodes < 1:
        raise DatasetError("num_zipcodes must be at least 1")
    rng = random.Random(seed)
    zipcodes = [f"{7000 + index:05d}" for index in range(num_zipcodes)]
    cities = {zipcode: f"City{index // 2}" for index, zipcode in enumerate(zipcodes)}
    states = {city: f"State{seed_zero_hash(city) % 5}" for city in cities.values()}

    schema = ["Zipcode", "City", "State", "Street"] + [
        f"Extra{index + 1}" for index in range(num_extra_columns)
    ]
    relation = Relation(schema, name=name)
    for row_index in range(num_rows):
        zipcode = rng.choice(zipcodes)
        city = cities[zipcode]
        state = states[city]
        street = f"{rng.randint(1, 999)} {rng.choice(['Main', 'Oak', 'Hudson', 'Grove'])} #{row_index}"
        extras = [f"extra{column}_{rng.randint(0, 3)}" for column in range(num_extra_columns)]
        relation.append([zipcode, city, state, street] + extras)
    return relation
