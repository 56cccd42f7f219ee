"""Tests for the f2-repro command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fd import tane
from repro.fd.verify import fds_equivalent
from repro.relational.csvio import read_csv, write_csv
from repro.datasets import generate_fd_table


@pytest.fixture
def plaintext_csv(tmp_path):
    path = tmp_path / "addresses.csv"
    write_csv(generate_fd_table(60, num_zipcodes=6, seed=1), path)
    return path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "encrypt", "insert", "discover", "serve", "query", "attack", "bench", "dataset",
        ):
            args = {
                "encrypt": ["encrypt", "in.csv", "out.csv"],
                "insert": ["insert", "in.csv", "batch.csv", "out.csv"],
                "discover": ["discover", "in.csv"],
                "serve": ["serve", "--port", "0"],
                "query": ["query", "in.csv", "City", "Hoboken", "--key-seed", "7"],
                "attack": ["attack"],
                "bench": ["bench", "table1"],
                "dataset": ["dataset", "orders", "out.csv"],
            }[command]
            assert parser.parse_args(args).command == command

    def test_query_requires_key_seed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "in.csv", "City", "Hoboken"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEncryptCommand:
    def test_encrypt_writes_ciphertext_and_summary(self, plaintext_csv, tmp_path, capsys):
        output = tmp_path / "encrypted.csv"
        summary = tmp_path / "summary.json"
        exit_code = main(
            [
                "encrypt",
                str(plaintext_csv),
                str(output),
                "--alpha",
                "0.5",
                "--key-seed",
                "7",
                "--summary",
                str(summary),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        description = json.loads(summary.read_text())
        assert description["original_rows"] == 60
        printed = json.loads(capsys.readouterr().out)
        assert printed["original_rows"] == 60

    def test_encrypted_output_preserves_fds(self, plaintext_csv, tmp_path, capsys):
        output = tmp_path / "encrypted.csv"
        main(["encrypt", str(plaintext_csv), str(output), "--alpha", "0.5", "--key-seed", "3"])
        capsys.readouterr()
        plaintext = read_csv(plaintext_csv)
        ciphertext = read_csv(output)
        assert fds_equivalent(tane(plaintext, max_lhs_size=2), tane(ciphertext, max_lhs_size=2))


class TestInsertCommand:
    def test_insert_appends_batch_incrementally(self, plaintext_csv, tmp_path, capsys):
        base = read_csv(plaintext_csv)
        batch_path = tmp_path / "batch.csv"
        batch = base.select_rows(range(5), name="batch")
        # Fresh street/extra values keep the batch from duplicating full rows.
        for index in range(batch.num_rows):
            batch.set_value(index, "Street", f"NewStreet-{index}")
            for attr in batch.attributes:
                if attr.startswith("Extra"):
                    batch.set_value(index, attr, f"new-{attr}-{index}")
        write_csv(batch, batch_path)
        output = tmp_path / "updated.csv"
        exit_code = main(
            [
                "insert",
                str(plaintext_csv),
                str(batch_path),
                str(output),
                "--alpha",
                "0.5",
                "--key-seed",
                "7",
            ]
        )
        assert exit_code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["original_rows"] == base.num_rows + batch.num_rows
        assert printed["update"]["mode"] in {"incremental", "full"}
        full_plain = base.copy()
        full_plain.extend(batch.rows())
        ciphertext = read_csv(output)
        assert fds_equivalent(
            tane(full_plain, max_lhs_size=2), tane(ciphertext, max_lhs_size=2)
        )

    def test_insert_rejects_mismatched_schema(self, plaintext_csv, tmp_path, capsys):
        from repro.relational.table import Relation

        batch_path = tmp_path / "bad.csv"
        write_csv(Relation(["X", "Y"], [["1", "2"]]), batch_path)
        exit_code = main(
            ["insert", str(plaintext_csv), str(batch_path), str(tmp_path / "out.csv")]
        )
        assert exit_code == 2
        assert "does not match" in capsys.readouterr().err


class TestDiscoverCommand:
    def test_discover_prints_fds(self, plaintext_csv, capsys):
        exit_code = main(["discover", str(plaintext_csv), "--max-lhs", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "->" in output
        assert "Zipcode" in output


class TestDatasetCommand:
    @pytest.mark.parametrize("name,attributes", [("orders", 9), ("customer", 21), ("synthetic", 7)])
    def test_dataset_generation(self, tmp_path, capsys, name, attributes):
        output = tmp_path / f"{name}.csv"
        exit_code = main(["dataset", name, str(output), "--rows", "40"])
        assert exit_code == 0
        relation = read_csv(output)
        assert relation.num_rows == 40
        assert relation.num_attributes == attributes
        assert "wrote 40 rows" in capsys.readouterr().out


class TestServeAndQueryCommands:
    @pytest.fixture
    def served_port(self, tmp_path):
        """A protocol server on a free port (what `f2-repro serve` runs)."""
        from repro.api.protocol import ProtocolServer, SocketProtocolServer

        server = SocketProtocolServer(
            ProtocolServer(storage_dir=tmp_path / "store"), port=0
        )
        server.serve_in_background()
        yield server.port
        server.shutdown()

    def test_query_roundtrip_against_server(self, plaintext_csv, served_port, capsys):
        plaintext = read_csv(plaintext_csv)
        zipcode = plaintext.value(0, "Zipcode")
        expected = [
            row
            for row in plaintext.rows()
            if row[plaintext.schema.index_of("Zipcode")] == zipcode
        ]
        exit_code = main(
            [
                "query",
                str(plaintext_csv),
                "Zipcode",
                zipcode,
                "--key-seed", "7",
                "--alpha", "0.5",
                "--port", str(served_port),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert f"# {len(expected)} matching rows" in captured.err
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == len(expected) + 1  # header + matches
        assert all(zipcode in line for line in lines[1:])

    def test_query_expression_form(self, plaintext_csv, served_port, capsys):
        from repro.query import evaluate_predicate, parse_predicate

        plaintext = read_csv(plaintext_csv)
        zipcode = plaintext.value(0, "Zipcode")
        other = plaintext.value(1, "Zipcode")
        expression = f"Zipcode in ({zipcode}, {other}) and City != no-such-city"
        expected = evaluate_predicate(plaintext, parse_predicate(expression))
        exit_code = main(
            [
                "query", str(plaintext_csv), expression,
                "--key-seed", "7", "--alpha", "0.5", "--port", str(served_port),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert f"# {len(expected)} matching rows" in captured.err
        assert "leakage:" in captured.err
        assert "homogenised=True" in captured.err
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == len(expected) + 1  # header + matches

    def test_query_explain_prints_plan_without_server(self, plaintext_csv, capsys):
        # --explain needs no running server (note the unused port 1).
        exit_code = main(
            [
                "query", str(plaintext_csv),
                "Zipcode = 07030 and Street = nowhere",
                "--key-seed", "7", "--alpha", "0.5", "--port", "1", "--explain",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mode:" in output
        assert "server" in output

    def test_query_malformed_expression_is_usage_error(self, plaintext_csv, capsys):
        exit_code = main(
            [
                "query", str(plaintext_csv), "Zipcode = ",
                "--key-seed", "7", "--port", "1",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_three_positionals_is_usage_error(self, plaintext_csv, capsys):
        exit_code = main(
            [
                "query", str(plaintext_csv), "Zipcode", "=", "07030",
                "--key-seed", "7", "--port", "1",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_no_push_uses_existing_snapshot(self, plaintext_csv, served_port, capsys):
        # First query pushes (and the server snapshots); the second run asks
        # the same seeded owner to query without re-shipping the table.
        args = [
            "query", str(plaintext_csv), "City", "city-1",
            "--key-seed", "7", "--alpha", "0.5", "--port", str(served_port),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--no-push"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_query_unknown_attribute_errors(self, plaintext_csv, served_port, capsys):
        exit_code = main(
            [
                "query", str(plaintext_csv), "Nope", "x",
                "--key-seed", "7", "--port", str(served_port),
            ]
        )
        assert exit_code == 2
        assert "not in" in capsys.readouterr().err

    def test_serve_skips_corrupt_snapshot_instead_of_failing(self, tmp_path):
        # One unreadable table warns and is skipped — the server `serve`
        # constructs still starts and serves every other table (the full
        # reload regression lives in test_protocol.py).  Unreadable means a
        # segment store that does not open; a whole-table .f2t snapshot is
        # not a table at all, garbage or not, and is ignored.
        from repro.api.protocol import LoopbackTransport, ProtocolClient, ProtocolServer
        from repro.exceptions import StoreIntegrityWarning
        from repro.relational.table import Relation
        from repro.wire import encode_relation

        store = tmp_path / "store"
        good = Relation.from_columns({"sku": ["a", "b"]}, name="good")
        ProtocolClient(LoopbackTransport(ProtocolServer(storage_dir=store))).outsource(
            "good", good
        )
        (store / "default.f2t").write_bytes(b"F2WB garbage not a frame")
        (store / "legacy.f2t").write_bytes(encode_relation(good))
        (store / "broken.f2s").mkdir()
        (store / "broken.f2s" / "MANIFEST-000001.json").write_text("{ not json")
        (store / "broken.f2s" / "CURRENT").write_text("MANIFEST-000001.json\n")
        with pytest.warns(StoreIntegrityWarning) as caught:
            server = ProtocolServer(storage_dir=store)
        messages = [str(warning.message) for warning in caught]
        assert len(messages) == 1
        assert "corrupt table store" in messages[0] and "broken" in messages[0]
        assert server.table_ids() == ["good"]
        assert server.store("good") == good

    def test_query_without_server_reports_protocol_error(self, plaintext_csv, capsys):
        exit_code = main(
            [
                "query", str(plaintext_csv), "Zipcode", "zip",
                "--key-seed", "7", "--port", "1", "--alpha", "0.5",
            ]
        )
        assert exit_code == 3
        assert "error:" in capsys.readouterr().err


class TestAdminAndTenantedServe:
    @pytest.fixture
    def registry_path(self, tmp_path):
        return tmp_path / "tenants.json"

    def test_admin_mint_list_rotate_revoke(self, registry_path, capsys):
        assert main(["admin", "--tenants", str(registry_path), "mint", "acme"]) == 0
        token = capsys.readouterr().out.strip()
        assert token.startswith("f2tok1.acme.owner.")

        assert main(["admin", "--tenants", str(registry_path), "list"]) == 0
        listing = capsys.readouterr().out
        assert "acme\towner" in listing
        assert token.rsplit(".", 1)[1] not in listing  # secrets never listed

        assert main(["admin", "--tenants", str(registry_path), "rotate", "acme"]) == 0
        rotated = capsys.readouterr().out.strip()
        assert rotated != token

        assert main(["admin", "--tenants", str(registry_path), "revoke", "acme"]) == 0
        assert "revoked 1 key" in capsys.readouterr().out

    def test_admin_revoke_unknown_tenant_exits_4(self, registry_path, capsys):
        main(["admin", "--tenants", str(registry_path), "mint", "acme"])
        capsys.readouterr()
        exit_code = main(["admin", "--tenants", str(registry_path), "revoke", "ghost"])
        assert exit_code == 4
        assert "error-code: AUTH_UNKNOWN_TENANT" in capsys.readouterr().err

    @pytest.fixture
    def tenanted_port(self, registry_path, tmp_path, capsys):
        """A tenant-auth-required server plus minted owner/analyst tokens."""
        from repro.api.auth import TenantRegistry
        from repro.api.protocol import ProtocolServer, SocketProtocolServer

        main(["admin", "--tenants", str(registry_path), "mint", "acme"])
        owner_token = capsys.readouterr().out.strip()
        main(
            ["admin", "--tenants", str(registry_path), "mint", "acme",
             "--capability", "analyst"]
        )
        analyst_token = capsys.readouterr().out.strip()
        server = SocketProtocolServer(
            ProtocolServer(tenants=TenantRegistry(registry_path)), port=0
        )
        server.serve_in_background()
        yield server.port, owner_token, analyst_token
        server.shutdown()

    def test_exit_codes_by_error_class(self, plaintext_csv, tenanted_port, capsys):
        port, owner_token, analyst_token = tenanted_port
        base = [
            "query", str(plaintext_csv), "City", "city-1",
            "--key-seed", "7", "--alpha", "0.5", "--port", str(port),
        ]
        # Unauthenticated against a tenanted server: exit 4 (AUTH_REQUIRED).
        assert main(base) == 4
        assert "error-code: AUTH_REQUIRED" in capsys.readouterr().err
        # A forged secret: exit 4 (AUTH_FAILED on the first signed frame).
        forged = owner_token.rsplit(".", 1)[0] + "." + "ab" * 32
        assert main(base + ["--token", forged]) == 4
        assert "error-code: AUTH_FAILED" in capsys.readouterr().err
        # An analyst pushing the table: exit 5 (FORBIDDEN).
        assert main(base + ["--token", analyst_token]) == 5
        assert "error-code: FORBIDDEN" in capsys.readouterr().err
        # The owner token works end to end (and snapshots nothing locally).
        assert main(base + ["--token", owner_token]) == 0
        captured = capsys.readouterr()
        assert "matching rows" in captured.err
        # The analyst can then query without pushing.
        assert main(base + ["--token", analyst_token, "--no-push"]) == 0
        assert "matching rows" in capsys.readouterr().err

    def test_missing_token_file_is_clean_usage_error(self, plaintext_csv, capsys):
        exit_code = main(
            [
                "query", str(plaintext_csv), "City", "city-1",
                "--key-seed", "7", "--port", "1",
                "--token", "@/nonexistent/owner.tok",
            ]
        )
        assert exit_code == 2
        assert "cannot read token file" in capsys.readouterr().err

    def test_token_from_file(self, plaintext_csv, tenanted_port, tmp_path, capsys):
        port, owner_token, _ = tenanted_port
        token_file = tmp_path / "owner.tok"
        token_file.write_text(owner_token + "\n", encoding="utf-8")
        exit_code = main(
            [
                "query", str(plaintext_csv), "City", "city-1",
                "--key-seed", "7", "--alpha", "0.5", "--port", str(port),
                "--token", f"@{token_file}",
            ]
        )
        assert exit_code == 0
        assert "matching rows" in capsys.readouterr().err


class TestAttackCommand:
    def test_attack_prints_table(self, capsys):
        exit_code = main(["attack", "--dataset", "orders", "--rows", "120", "--trials", "60"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "deterministic" in output
        assert "f2" in output


class TestVerifyCommand:
    @pytest.fixture
    def populated_storage(self, tmp_path):
        """Storage dirs holding table ``orders`` as a segment store
        (``segment``)."""
        from repro.api.protocol import LoopbackTransport, ProtocolClient, ProtocolServer
        from repro.api.session import DataOwner
        from repro.core.config import F2Config

        owner = DataOwner.from_seed(5, config=F2Config(alpha=0.5, seed=2))
        owner.outsource(read_csv(self.plaintext(tmp_path)))
        dirs = {"segment": tmp_path / "stor-segment"}
        server = ProtocolServer(storage_dir=dirs["segment"])
        ProtocolClient(LoopbackTransport(server)).outsource("orders", owner.server_view())
        return dirs

    @staticmethod
    def plaintext(tmp_path):
        path = tmp_path / "plain.csv"
        write_csv(generate_fd_table(40, num_zipcodes=4, seed=1), path)
        return path

    @pytest.mark.parametrize("engine", ["segment"])
    def test_verify_passes_on_clean_store(self, populated_storage, engine, capsys):
        exit_code = main(["verify", "--storage", str(populated_storage[engine])])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "all good" in out and "orders" in out

    def test_verify_restricts_to_one_table(self, populated_storage, capsys):
        storage = populated_storage["segment"]
        assert main(["verify", "--storage", str(storage), "--table", "orders"]) == 0
        assert main(["verify", "--storage", str(storage), "--table", "ghost"]) == 0
        assert "no tables" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["segment"])
    def test_verify_exits_7_on_tampered_store(self, populated_storage, engine, capsys):
        storage = populated_storage[engine]
        target = sorted(storage.glob("orders.f2s/seg-*.seg"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))

        exit_code = main(["verify", "--storage", str(storage)])
        assert exit_code == 7
        err = capsys.readouterr().err
        assert "INTEGRITY_VIOLATION" in err and "FAIL" in err

    def test_verify_missing_directory_is_a_store_error(self, tmp_path, capsys):
        exit_code = main(["verify", "--storage", str(tmp_path / "nope")])
        assert exit_code == 3
        assert "does not exist" in capsys.readouterr().err

    def test_serve_verify_on_start_refuses_tampered_storage(
        self, populated_storage, capsys
    ):
        storage = populated_storage["segment"]
        target = sorted(storage.glob("orders.f2s/seg-*.seg"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))

        exit_code = main(
            [
                "serve", "--port", "0", "--storage", str(storage),
                "--verify-on-start",
            ]
        )
        assert exit_code == 7
        assert "refusing to serve" in capsys.readouterr().err

    def test_serve_verify_on_start_requires_storage(self, capsys):
        exit_code = main(["serve", "--port", "0", "--verify-on-start"])
        assert exit_code == 2
        assert "--verify-on-start requires --storage" in capsys.readouterr().err
