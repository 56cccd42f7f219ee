"""Step 4: eliminating false-positive FDs (Section 3.4).

Because Steps 1-3 give every equivalence class of a MAS ciphertext values
that never collide with any other class, *every* candidate dependency
``X -> Y`` inside a MAS holds trivially on the ciphertext — including the
ones that are violated in the plaintext.  Those are the false positives.

The data owner walks the FD lattice of each MAS top-down.  At node ``X : Y``
she checks, against the plaintext partition of the MAS, whether two
equivalence classes agree on ``X`` but differ on ``Y`` (i.e. ``X -> Y`` is
violated in the original data).  If so the node is a *maximum false-positive
FD*: she inserts ``k = ceil(1/alpha)`` artificial record pairs that restore a
violation in the ciphertext, and skips the node's descendants (their
violations are restored by the same records).  Otherwise she descends.

Implementation note (documented in DESIGN.md): instead of giving the two
records of a pair distinct artificial values on *every* non-``X`` attribute —
which could accidentally violate a *true* dependency ``X -> W`` — each pair
mimics the agreement pattern of an actual violating row pair of the
plaintext: the two artificial records share a fresh value exactly on the
attributes where the template rows agree, and carry distinct fresh values
elsewhere.  A pair therefore only violates dependencies that the plaintext
already violates, while still violating ``X -> Y`` (and every descendant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend import ComputeBackend, get_backend
from repro.core.conflict import MasPlan
from repro.core.encrypted import RowProvenance
from repro.core.lattice import LatticeNode, top_level_nodes
from repro.core.plan import CellSpec, FreshCell, FreshValueFactory, RowPlan
from repro.relational.table import Relation


@dataclass
class FalsePositiveResult:
    """Artificial rows added by Step 4 plus bookkeeping."""

    row_plans: list[RowPlan] = field(default_factory=list)
    triggered_nodes: list[tuple[tuple[str, ...], LatticeNode]] = field(default_factory=list)

    @property
    def rows_added(self) -> int:
        return len(self.row_plans)

    @property
    def num_triggered(self) -> int:
        return len(self.triggered_nodes)


def eliminate_false_positives(
    relation: Relation,
    mas_plans: list[MasPlan],
    group_size: int,
    fresh_factory: FreshValueFactory,
    backend: ComputeBackend | str | None = None,
) -> FalsePositiveResult:
    """Run Step 4 for every MAS and return the artificial rows to append.

    Parameters
    ----------
    relation:
        The *plaintext* table (the checks run against plaintext partitions).
    mas_plans:
        The per-MAS plans produced by Steps 1-2 (only the MAS identities are
        needed here).
    group_size:
        ``k = ceil(1/alpha)``: the number of artificial record pairs inserted
        per maximum false-positive FD.
    fresh_factory:
        Source of artificial values.
    backend:
        Compute backend for the per-node witness search over class codes.
    """
    result = FalsePositiveResult()
    backend = get_backend(backend)
    for mas_plan in mas_plans:
        _eliminate_for_mas(relation, mas_plan, group_size, fresh_factory, result, backend)
    return result


def _eliminate_for_mas(
    relation: Relation,
    mas_plan: MasPlan,
    group_size: int,
    fresh_factory: FreshValueFactory,
    result: FalsePositiveResult,
    backend: ComputeBackend,
) -> None:
    attributes = mas_plan.attributes
    if len(attributes) < 2:
        return
    # The checks run over the *classes* of the MAS partition, in dictionary
    # codes: one class-code column per MAS attribute (class count << row
    # count), combined per lattice node to find classes agreeing on the LHS.
    coded = relation.coded(backend)
    class_rows = coded.group_rows(attributes)
    sample_rows = [rows[0] for rows in class_rows]
    code_matrix = coded.class_code_matrix(attributes, class_rows)
    class_code_columns = {
        attr: backend.as_code_array([codes[position] for codes in code_matrix])
        for position, attr in enumerate(attributes)
    }
    cardinalities = {attr: coded.column(attr).num_values for attr in attributes}
    attribute_positions = {attr: position for position, attr in enumerate(attributes)}

    triggered: list[LatticeNode] = []
    frontier = top_level_nodes(attributes)
    visited: set[LatticeNode] = set()
    while frontier:
        next_frontier: list[LatticeNode] = []
        for node in frontier:
            if node in visited:
                continue
            visited.add(node)
            if any(existing.covers(node) for existing in triggered):
                continue
            witness = _find_violation_witnesses(
                code_matrix,
                sample_rows,
                class_code_columns,
                cardinalities,
                attribute_positions,
                node,
                limit=group_size,
                backend=backend,
            )
            if witness:
                triggered.append(node)
                result.triggered_nodes.append((attributes, node))
                result.row_plans.extend(
                    build_violation_pairs(
                        relation,
                        witness,
                        group_size,
                        fresh_factory,
                        label=(
                            f"fp:{','.join(attributes)}"
                            f":{','.join(sorted(node.lhs))}->{node.rhs}"
                        ),
                    )
                )
            else:
                next_frontier.extend(node.children())
        frontier = next_frontier


def _find_violation_witnesses(
    code_matrix: list[tuple[int, ...]],
    sample_rows: list[int],
    class_code_columns: dict[str, object],
    cardinalities: dict[str, int],
    attribute_positions: dict[str, int],
    node: LatticeNode,
    limit: int,
    backend: ComputeBackend,
) -> list[tuple[int, int]]:
    """Row-index pairs witnessing that ``node.lhs -> node.rhs`` is violated.

    Works on the equivalence classes of the MAS partition: two classes that
    agree on the LHS code projection but differ on the RHS code yield a
    violating pair of (sample) rows.  Returns up to ``limit`` distinct pairs.
    """
    lhs = sorted(node.lhs)
    codes, num_groups = backend.combine_codes(
        [class_code_columns[attr] for attr in lhs],
        [cardinalities[attr] for attr in lhs],
    )
    groups = backend.group_rows(codes, num_groups, min_size=2)
    rhs_position = attribute_positions[node.rhs]

    witnesses: list[tuple[int, int]] = []
    for class_indexes in groups:
        by_rhs: dict[int, int] = {}
        for class_index in class_indexes:
            rhs_code = code_matrix[class_index][rhs_position]
            for other_rhs, other_class in by_rhs.items():
                if other_rhs != rhs_code:
                    witnesses.append((sample_rows[other_class], sample_rows[class_index]))
                    if len(witnesses) >= limit:
                        return witnesses
            by_rhs.setdefault(rhs_code, class_index)
    return witnesses


def build_violation_pairs(
    relation: Relation,
    witnesses: list[tuple[int, int]],
    group_size: int,
    fresh_factory: FreshValueFactory,
    label: str = "fp",
) -> list[RowPlan]:
    """Build ``group_size`` artificial record pairs mimicking real violations.

    Each pair copies the agreement pattern of one witness row pair: the two
    artificial records share a fresh value exactly on the attributes where
    the witness rows agree, and carry distinct fresh values everywhere else.
    Witnesses are cycled if fewer than ``group_size`` distinct ones exist.

    ``label`` must be unique per call site within one encryption run (the
    triggering lattice node, or the repaired FD): tokens are deterministic —
    ``=<label>:p<pair>:<attr>:<role>`` — so an incremental re-run that
    triggers the same node rebuilds byte-identical artificial pairs (the
    fresh-value factory retains token -> value), keeping server-view deltas
    small.  Cells of one run share a value iff they share a token, exactly
    as with the former counter-based tokens.
    """
    plans: list[RowPlan] = []
    if not witnesses:
        return plans
    schema_attributes = relation.attributes
    provenance = RowProvenance(kind="false_positive")
    for pair_index in range(group_size):
        first_row, second_row = witnesses[pair_index % len(witnesses)]
        first_cells: dict[str, CellSpec] = {}
        second_cells: dict[str, CellSpec] = {}
        for attr in schema_attributes:
            prefix = f"={label}:p{pair_index}:{attr}"
            if relation.value(first_row, attr) == relation.value(second_row, attr):
                first_cells[attr] = FreshCell(token=f"{prefix}:shared")
                second_cells[attr] = FreshCell(token=f"{prefix}:shared")
            else:
                first_cells[attr] = FreshCell(token=f"{prefix}:a")
                second_cells[attr] = FreshCell(token=f"{prefix}:b")
        plans.append(RowPlan(cells=first_cells, provenance=provenance))
        plans.append(RowPlan(cells=second_cells, provenance=provenance))
    return plans
