"""Step 2.1: grouping equivalence classes into ECGs (Section 3.2.1).

For each MAS, the equivalence classes of its partition are grouped so that

1. every group has at least ``k = ceil(1/alpha)`` members,
2. members of the same group are pairwise *collision-free* (Definition 3.4:
   no two members share a value on any attribute of the MAS), and
3. members have sizes as close as possible (to minimise the copies the
   scaling phase must add).

When not enough collision-free real classes exist, *fake* equivalence classes
are added; their representative values do not occur in the original table and
their size equals the minimum size within the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend import ComputeBackend, get_backend
from repro.backend.base import factorize_values
from repro.core.plan import FreshValueFactory
from repro.exceptions import EncryptionError
from repro.relational.partition import EquivalenceClass, Partition


@dataclass
class EcgMember:
    """One member of an ECG: a real or fake equivalence class."""

    representative: tuple
    rows: tuple[int, ...]
    is_fake: bool = False
    fake_tokens: tuple[str, ...] = ()
    fake_size: int = 1
    #: Dictionary codes of the representative (collision tests on integers);
    #: ``None`` for fake members and hand-built classes.
    rep_codes: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        """The plaintext frequency of the member (fake members use their assigned size)."""
        return len(self.rows) if not self.is_fake else self.fake_size

    def collides_with(self, other: "EcgMember") -> bool:
        """Definition 3.4 on representatives: any shared value on any attribute."""
        return any(a == b for a, b in zip(self.representative, other.representative))


@dataclass
class EquivalenceClassGroup:
    """One ECG: at least ``k`` pairwise collision-free members."""

    mas_attributes: tuple[str, ...]
    members: list[EcgMember] = field(default_factory=list)
    index: int = 0

    @property
    def sizes(self) -> list[int]:
        return [member.size for member in self.members]

    @property
    def max_size(self) -> int:
        return max(self.sizes) if self.members else 0

    @property
    def num_fake_members(self) -> int:
        return sum(1 for member in self.members if member.is_fake)

    def is_collision_free(self) -> bool:
        """True iff no two members share a value on any MAS attribute."""
        for i, first in enumerate(self.members):
            for second in self.members[i + 1:]:
                if first.collides_with(second):
                    return False
        return True


@dataclass
class GroupingResult:
    """All ECGs of one MAS plus grouping statistics."""

    mas_attributes: tuple[str, ...]
    groups: list[EquivalenceClassGroup]
    fake_ec_count: int
    fake_rows_added: int


def build_equivalence_class_groups(
    partition: Partition,
    group_size: int,
    fresh_factory: FreshValueFactory,
) -> GroupingResult:
    """Group the equivalence classes of ``partition`` into ECGs.

    Parameters
    ----------
    partition:
        The partition ``pi_MAS`` of the original table.
    group_size:
        The minimum number of members per group, ``k = ceil(1/alpha)``.
    fresh_factory:
        Source of artificial values for fake equivalence classes.

    Returns
    -------
    GroupingResult
        The groups (each collision-free and of size >= ``group_size``) plus
        the number of fake ECs and fake rows introduced.
    """
    return group_equivalence_classes(
        partition.attributes,
        partition.classes,
        group_size,
        fresh_factory,
        backend=partition.backend,
    )


def group_equivalence_classes(
    attributes: tuple[str, ...],
    classes: list[EquivalenceClass],
    group_size: int,
    fresh_factory: FreshValueFactory,
    start_index: int = 0,
    backend: ComputeBackend | None = None,
) -> GroupingResult:
    """Group an explicit list of equivalence classes into ECGs.

    The incremental updater calls this directly with only the classes that
    appeared since the last encryption, using ``start_index`` to keep group
    indexes unique within the MAS (group indexes feed the ciphertext-instance
    variant namespace, so they must never collide with existing groups).

    The greedy collision-free scan runs on the backend (the default one when
    ``backend`` is ``None``) over integer code tuples: the classes' own
    dictionary codes (classes from :meth:`Partition.build`), or codes
    assigned here per attribute when some class has none.  Code equality
    is value equality within a column dictionary, so the groups are the
    same either way.
    """
    if group_size < 1:
        raise EncryptionError("group_size must be at least 1")

    members = [
        EcgMember(representative=ec.representative, rows=ec.rows, rep_codes=ec.codes)
        for ec in classes
    ]
    # Sort by size ascending so neighbouring members have the closest sizes.
    members.sort(key=lambda member: (member.size, str(member.representative)))

    if all(member.rep_codes is not None for member in members):
        code_matrix = [member.rep_codes for member in members]
    else:
        # Classes built without codes: encode each attribute's values here.
        code_columns = [
            factorize_values(column)[0]
            for column in zip(*(member.representative for member in members))
        ]
        code_matrix = list(zip(*code_columns)) or [() for _ in members]
    index_groups = get_backend(backend).greedy_collision_free_groups(code_matrix, group_size)
    member_groups = [[members[index] for index in group] for group in index_groups]

    groups: list[EquivalenceClassGroup] = []
    fake_ec_count = 0
    fake_rows_added = 0
    for selected in member_groups:
        group = EquivalenceClassGroup(
            mas_attributes=attributes, members=selected, index=start_index + len(groups)
        )
        # Pad with fake, collision-free ECs if the group is still too small.
        while len(group.members) < group_size:
            fake = _make_fake_member(group, fresh_factory)
            group.members.append(fake)
            fake_ec_count += 1
            fake_rows_added += fake.size
        groups.append(group)

    return GroupingResult(
        mas_attributes=attributes,
        groups=groups,
        fake_ec_count=fake_ec_count,
        fake_rows_added=fake_rows_added,
    )


def _make_fake_member(group: EquivalenceClassGroup, fresh_factory: FreshValueFactory) -> EcgMember:
    """Create a fake EC for ``group``.

    The representative consists of fresh tokens (values that cannot occur in
    the original table), so it is collision-free with every real and fake
    member by construction.  Its size is the minimum size of the group's
    current members (Section 3.2.1).
    """
    tokens = tuple(
        fresh_factory.new_token(f"fake-ec:{attr}") for attr in group.mas_attributes
    )
    size = min(member.size for member in group.members) if group.members else 1
    return EcgMember(
        representative=tokens,
        rows=(),
        is_fake=True,
        fake_tokens=tokens,
        fake_size=max(1, size),
    )
