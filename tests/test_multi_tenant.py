"""Concurrent multi-tenant stress test over the real socket transport.

N threads x M tenants interleave outsources, delta inserts, discoveries,
and queries against one socket server.  Asserts per-tenant isolation: every
tenant's final decrypted state equals its own plaintext (no cross-tenant
rows), tenants cannot see each other's tables, and no request errs.
"""

import threading

from repro.api import (
    DataOwner,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    SocketProtocolServer,
    SocketTransport,
    TenantRegistry,
)
from repro.api.auth import ErrorCode
from repro.core.config import F2Config
from repro.exceptions import ProtocolError
from repro.query.ast import Eq
from repro.relational.table import Relation

TENANTS = ("tenant-a", "tenant-b", "tenant-c")
ROUNDS = 4


def tenant_table(tag: str, size: int = 30) -> Relation:
    """A small per-tenant table whose every value is branded with the
    tenant tag, so any cross-tenant leak is immediately visible."""
    import random

    rng = random.Random(hash(tag) % 100000)
    zipcodes = [f"{tag}-zip{index}" for index in range(3)]
    rows = []
    for index in range(size):
        zipcode = rng.choice(zipcodes)
        rows.append([zipcode, f"{tag}-city-{zipcode[-1]}", f"{tag}-street-{index}"])
    return Relation(["Zipcode", "City", "Street"], rows, name=tag)


def incremental_rows(tag: str, owner: DataOwner, round_index: int):
    """Rows reusing an existing (Zipcode, City) pair with fresh streets, so
    inserts stay on the incremental/delta path."""
    plaintext = owner.plaintext
    zipcode = plaintext.value(0, "Zipcode")
    city = plaintext.value(0, "City")
    return [
        [zipcode, city, f"{tag}-street-new-{round_index}-{offset}"]
        for offset in range(2)
    ]


class TestMultiTenantStress:
    def test_interleaved_tenants_stay_isolated(self):
        registry = TenantRegistry()
        credentials = {tag: registry.mint(tag, "owner") for tag in TENANTS}
        analyst_creds = {tag: registry.mint(tag, "analyst") for tag in TENANTS}
        server = ProtocolServer(tenants=registry)
        errors: list[BaseException] = []
        owners: dict[str, DataOwner] = {}
        results: dict[str, list] = {}

        with SocketProtocolServer(server) as sock_server:
            sock_server.serve_in_background()
            port = sock_server.port

            def analyst_worker(tag: str, barrier: threading.Barrier):
                try:
                    barrier.wait(timeout=30)
                    client = ProtocolClient(SocketTransport(port=port))
                    client.authenticate(analyst_creds[tag])
                    for _ in range(ROUNDS):
                        # Concurrent read-only discovery on the tenant's own
                        # table (whatever version is current) ...
                        client.discover("default", max_lhs_size=2)
                        # ... while the other tenants' tables stay invisible.
                        other = TENANTS[(TENANTS.index(tag) + 1) % len(TENANTS)]
                        try:
                            client.discover(f"{other}-table")
                        except ProtocolError as exc:
                            assert exc.code == ErrorCode.UNKNOWN_TABLE.value
                        else:  # pragma: no cover - failure path
                            raise AssertionError("cross-tenant table visible")
                    client.close()
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            # Analysts start once every tenant's first outsource has landed
            # (they query "default", which must exist for their tenant).
            outsourced = threading.Barrier(len(TENANTS) + len(TENANTS), timeout=60)

            def owner_with_signal(tag: str, seed: int):
                try:
                    owner = DataOwner.from_seed(
                        seed, config=F2Config(alpha=0.34, seed=seed)
                    )
                    owners[tag] = owner
                    session = RemoteOwnerSession(
                        owner,
                        ProtocolClient(SocketTransport(port=port)),
                        credential=credentials[tag],
                    )
                    session.outsource(tenant_table(tag))
                    outsourced.wait(timeout=30)
                    deltas = 0
                    for round_index in range(ROUNDS):
                        session.insert_rows(incremental_rows(tag, owner, round_index))
                        deltas += session.last_delta is not None
                        zipcode = owner.plaintext.value(0, "Zipcode")
                        matches = session.select(Eq("Zipcode", zipcode))
                        expected = owner.select_plaintext("Zipcode", zipcode)
                        assert list(matches.rows()) == list(expected.rows())
                    discovery = session.discover_fds(max_lhs_size=2)
                    assert discovery.parameters["validated"] is True
                    results[tag] = [deltas]
                    session.close()
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = []
            for index, tag in enumerate(TENANTS):
                threads.append(
                    threading.Thread(target=owner_with_signal, args=(tag, 100 + index))
                )
                threads.append(threading.Thread(target=analyst_worker, args=(tag, outsourced)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        assert set(results) == set(TENANTS)
        # Every tenant shipped at least one delta (the path was exercised
        # under concurrency, not silently falling back every round).
        assert all(deltas >= 1 for (deltas,) in results.values())

        # Final isolation audit on the server state itself: each tenant's
        # stored ciphertext decrypts (with that tenant's key) to exactly
        # that tenant's plaintext — and therefore contains no other
        # tenant's rows.
        store_keys = server.table_ids(None)
        assert sorted(store_keys) == [f"{tag}/default" for tag in TENANTS]
        for tag in TENANTS:
            stored = server.store("default", tenant_id=tag)
            owner = owners[tag]
            assert stored.num_rows == owner.encrypted.relation.num_rows
            decrypted = owner.decrypt()
            assert list(decrypted.rows()) == list(owner.plaintext.rows())
            for row in decrypted.rows():
                assert all(str(value).startswith(tag) for value in row), row
