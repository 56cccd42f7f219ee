"""The full wire protocol over a real TCP socket, end to end.

The paper's Figure-2 workflow is a *network* protocol; this example runs it
as one:

1. a service provider starts as a localhost TCP protocol server with a
   storage directory (what ``f2-repro serve --storage`` runs),
2. the data owner connects through a :class:`repro.SocketTransport`,
   encrypts her table locally, and ships only the ciphertext server view,
3. the provider discovers the FDs on the received ciphertext; the FD set and
   the owner's validation verdict are verified identical to an in-process
   session over the same seeded owner, and the stored *instance* ciphertexts
   (every MAS-covered column) are verified byte-identical — the only cells
   that may differ are the fresh random nonces of frequency-one values,
   which are drawn from OS entropy per run,
4. the owner appends a batch incrementally, then runs equality selects:
   she derives search tokens from her retained split plans, the keyless
   provider filters ciphertext rows against them, and the decrypted
   matches reproduce the plaintext selections exactly,
5. the server is shut down and a *new* one is started over the same
   storage directory: it resumes serving the persisted store, and a fresh
   discovery returns the same FDs — no re-outsourcing needed.

Run with::

    python examples/socket_protocol.py [num_rows]
"""

from __future__ import annotations

import sys
import tempfile

from repro import (
    DataOwner,
    F2Config,
    ProtocolClient,
    RemoteOwnerSession,
    ServiceProvider,
    SocketProtocolServer,
    SocketTransport,
    run_protocol,
)
from repro.api.protocol import ProtocolServer
from repro.datasets import generate_fd_table
from repro.query.ast import Eq


def make_owner() -> DataOwner:
    return DataOwner.from_seed(11, config=F2Config(alpha=0.34, split_factor=2, seed=11))


def ciphertext_rows(relation):
    return [tuple(str(value) for value in row) for row in relation.rows()]


def main() -> None:
    num_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    table = generate_fd_table(num_rows, num_zipcodes=8, num_extra_columns=1, seed=11)
    print(f"plaintext: {table.num_rows} rows x {table.num_attributes} attributes")

    # In-process reference run (same seeds => same ciphertexts).
    reference_provider = ServiceProvider()
    reference = run_protocol(make_owner(), reference_provider, table)
    print(f"in-process reference: {len(reference.fds)} FDs, "
          f"validated={reference.parameters['validated']}")

    with tempfile.TemporaryDirectory(prefix="f2-storage-") as storage:
        with SocketProtocolServer(ProtocolServer(storage_dir=storage)) as sock_server:
            sock_server.serve_in_background()
            print(f"provider listening on {sock_server.host}:{sock_server.port}")

            owner = make_owner()
            session = RemoteOwnerSession(
                owner, ProtocolClient(SocketTransport(port=sock_server.port))
            )
            shipped = session.outsource(table)
            print(f"shipped {shipped} ciphertext rows over TCP")

            result = session.discover_fds()
            same_fds = result.fds == reference.fds
            queryable = sorted(owner.queryable_attributes())
            stored = sock_server.protocol_server.store()
            same_instance_bytes = all(
                ciphertext_rows(stored.project([attribute]))
                == ciphertext_rows(reference_provider.table.project([attribute]))
                for attribute in queryable
            )
            print(f"socket discovery: {len(result.fds)} FDs, "
                  f"validated={result.parameters['validated']}")
            print(f"identical to in-process session: fds={same_fds} "
                  f"instance-ciphertext columns={same_instance_bytes}")
            if not (same_fds and same_instance_bytes and result.parameters["validated"]):
                raise SystemExit("socket protocol diverged from the in-process session")

            # Incremental insert over the wire: the owner re-encrypts
            # locally (reusing her retained plans) and replaces the view.
            batch = [list(table.row(index % table.num_rows)) for index in range(2)]
            for offset, row in enumerate(batch):
                row[table.schema.index_of("Street")] = f"Street-new-{offset}"
            shipped = session.insert_rows(batch)
            result = session.discover_fds()
            print(f"inserted {len(batch)} rows (view now {shipped} ciphertext rows); "
                  f"re-discovery validated={result.parameters['validated']}")
            if not result.parameters["validated"]:
                raise SystemExit("post-insert discovery failed validation")

            # Equality selects (token leaves) on every MAS-covered attribute.
            queried = 0
            for attribute in queryable:
                value = table.value(0, attribute)
                matches = session.select(Eq(attribute, value))
                expected = owner.select_plaintext(attribute, value)
                if list(matches.rows()) != list(expected.rows()):
                    raise SystemExit(f"select mismatch on {attribute}={value!r}")
                queried += 1
                print(f"select {attribute} = {value!r}: {matches.num_rows} rows "
                      "(decrypted == plaintext selection)")
            if not queried:
                raise SystemExit("expected at least one queryable attribute")
            session.close()

        # Restart: a new server over the same storage directory resumes
        # serving the persisted ciphertext store.
        with SocketProtocolServer(ProtocolServer(storage_dir=storage)) as revived:
            revived.serve_in_background()
            client = ProtocolClient(SocketTransport(port=revived.port))
            restored = revived.protocol_server.table_ids()
            rediscovered = client.discover("default")
            print(f"restarted server restored tables {restored}; "
                  f"re-discovery returns {len(rediscovered.fds)} FDs")
            if rediscovered.fds != result.fds:
                raise SystemExit("restarted server lost the store")
            client.close()

    print("example completed successfully")


if __name__ == "__main__":
    main()
