"""The authenticated multi-tenant service, end to end over a real socket.

PR 5 turns the anonymous two-party protocol into a versioned multi-tenant
service.  This example runs the full workflow:

1. an **admin** mints capability credentials in a tenant registry: an
   ``owner`` key and a read-only ``analyst`` key for tenant *acme*, and an
   ``owner`` key for tenant *globex*,
2. a provider starts as a localhost TCP server with the registry attached —
   every request must now arrive inside a signed session frame
   (``Hello`` handshake, HMAC-SHA256 over session id + sequence + payload),
3. each tenant's owner outsources a table into its own namespace; the
   namespaces are invisible to each other even under identical table ids,
4. acme's owner appends rows incrementally: the session ships an
   ``InsertDelta`` — only the new/changed ciphertext rows travel, measured
   here against the full-view baseline — and the provider splices it under
   the table's write lock after a row-count and commit-version check,
5. acme's *analyst* credential serves boolean queries (and nothing else:
   a mutation attempt is rejected with the stable ``FORBIDDEN`` code),
6. finally the admin rotates acme's owner key: the live session dies on its
   next frame with ``AUTH_FAILED``, and a re-handshake with the new
   credential resumes service.

Run with::

    python examples/multi_tenant_service.py [num_rows]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    DataOwner,
    F2Config,
    ProtocolClient,
    RemoteOwnerSession,
    SocketProtocolServer,
    SocketTransport,
    TenantRegistry,
)
from repro.api import InsertBatch, InsertDelta
from repro.api.protocol import ProtocolServer
from repro.datasets import generate_fd_table
from repro.exceptions import AuthError, ProtocolError


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAILED: {label}")
        raise SystemExit(1)
    print(f"ok: {label}")


def incremental_batch(table, count: int, tag: str):
    """Rows reusing an existing duplicated combination (fresh Street), so
    the insert stays on the incremental/delta path."""
    from collections import Counter

    index = table.schema.index_of("Street")
    combos = Counter(
        tuple(value for position, value in enumerate(row) if position != index)
        for row in table.rows()
    )
    combo, _ = combos.most_common(1)[0]
    rows = []
    for offset in range(count):
        row = list(combo)
        row.insert(index, f"street-{tag}-{offset}")
        rows.append(row)
    return rows


def main() -> None:
    num_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 200

    with tempfile.TemporaryDirectory(prefix="f2-tenants-") as tmp:
        storage = Path(tmp)

        # -- 1: the admin mints capability credentials -----------------
        registry = TenantRegistry(storage / "tenants.json")
        acme_owner_cred = registry.mint("acme", "owner")
        acme_analyst_cred = registry.mint("acme", "analyst")
        globex_owner_cred = registry.mint("globex", "owner")
        print("credential (hand to acme out of band):")
        print(" ", acme_owner_cred.to_token()[:48] + "...")

        # -- 2: an authenticated provider ------------------------------
        server = ProtocolServer(storage_dir=storage / "snapshots", tenants=registry)
        with SocketProtocolServer(server) as sock_server:
            sock_server.serve_in_background()
            port = sock_server.port
            print(f"provider listening on 127.0.0.1:{port} (tenant auth required)")

            def connect() -> ProtocolClient:
                return ProtocolClient(SocketTransport(port=port))

            try:
                connect().discover("default")
            except AuthError as exc:
                check(exc.code == "AUTH_REQUIRED", "anonymous requests rejected")

            # -- 3: two tenants outsource into their own namespaces ----
            acme = DataOwner.from_seed(21, config=F2Config(alpha=0.34, seed=21))
            acme_table = generate_fd_table(
                num_rows, num_zipcodes=8, num_extra_columns=1, seed=21
            )
            acme_session = RemoteOwnerSession(
                acme, connect(), table_id="orders", credential=acme_owner_cred
            )
            shipped = acme_session.outsource(acme_table)
            print(f"acme outsourced {shipped} ciphertext rows as 'orders'")

            globex = DataOwner.from_seed(22, config=F2Config(alpha=0.34, seed=22))
            globex_session = RemoteOwnerSession(
                globex,
                connect(),
                table_id="orders",  # the same table id, a different world
                credential=globex_owner_cred,
            )
            globex_session.outsource(
                generate_fd_table(num_rows // 2, num_zipcodes=5, seed=22)
            )
            check(
                sorted(server.table_ids(None)) == ["acme/orders", "globex/orders"],
                "tables live in per-tenant namespaces",
            )

            discovery = acme_session.discover_fds(max_lhs_size=2)
            check(discovery.parameters["validated"] is True, "acme FDs validated")

            # -- 4: delta inserts --------------------------------------
            acme_session.insert_rows(incremental_batch(acme.plaintext, 3, "d1"))
            delta = acme_session.last_delta
            check(delta is not None, "incremental insert shipped as a delta")
            delta_bytes = len(InsertDelta(table_id="orders", delta=delta).encode("binary"))
            full_bytes = len(
                InsertBatch(table_id="orders", relation=acme.server_view()).encode("binary")
            )
            print(
                f"delta on the wire: {delta_bytes} bytes vs {full_bytes} for the "
                f"full view ({delta_bytes / full_bytes:.1%}); "
                f"{delta.literal_rows} literal rows, "
                f"{delta.reuse_fraction:.1%} of the view reused"
            )
            stored = server.store("orders", tenant_id="acme")
            check(
                [str(v) for row in stored.rows() for v in row]
                == [str(v) for row in acme.server_view().rows() for v in row],
                "spliced store is byte-identical to the owner's view",
            )

            # -- 5: the read-only analyst credential -------------------
            analyst_owner = DataOwner.from_seed(21, config=F2Config(alpha=0.34, seed=21))
            analyst_owner.outsource(acme_table)  # seeded replica, no push
            analyst_owner.insert_rows(incremental_batch(analyst_owner.plaintext, 3, "d1"))
            analyst_session = RemoteOwnerSession(
                analyst_owner,
                connect(),
                table_id="orders",
                credential=acme_analyst_cred,
            )
            zipcode = analyst_owner.plaintext.value(0, "Zipcode")
            matches = analyst_session.query("Zipcode", zipcode)
            expected = analyst_owner.select_plaintext("Zipcode", zipcode)
            check(
                list(matches.rows()) == list(expected.rows()),
                "analyst query equals the plaintext selection",
            )
            try:
                analyst_session.client.outsource("orders", analyst_owner.server_view())
                check(False, "analyst mutation must be rejected")
            except AuthError as exc:
                check(exc.code == "FORBIDDEN", "analyst mutations rejected")
            try:
                analyst_session.client.discover("nonexistent")
            except ProtocolError as exc:
                check(exc.code == "UNKNOWN_TABLE", "unknown tables stay invisible")

            # -- 6: key rotation ---------------------------------------
            new_owner_cred = registry.rotate("acme", "owner")
            try:
                acme_session.discover_fds()
                check(False, "rotated key must kill the live session")
            except AuthError as exc:
                check(exc.code == "AUTH_FAILED", "rotation kills live sessions")
            acme_session.client.authenticate(new_owner_cred)
            refreshed = acme_session.discover_fds(max_lhs_size=2)
            check(
                refreshed.parameters["validated"] is True,
                "re-handshake with the rotated credential resumes service",
            )
            acme_session.close()
            globex_session.close()
            analyst_session.close()

    print("multi-tenant service example completed successfully")


if __name__ == "__main__":
    main()
