"""Tests of the query planner: server/residual split, tokens, wire hygiene."""

import json

import pytest

from repro.api import DataOwner, Message, PlanQueryRequest
from repro.core.config import F2Config
from repro.exceptions import QueryError
from repro.query import (
    And,
    Eq,
    In,
    Not,
    Or,
    ServerAnd,
    ServerOr,
    TokenLeaf,
    collect_leaves,
    parse_predicate,
    server_expr_from_doc,
    server_expr_to_doc,
)
from repro.query.server import ServerNot, renumber_leaves


@pytest.fixture
def owner(zipcode_table) -> DataOwner:
    owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7))
    owner.outsource(zipcode_table)
    return owner


class TestPlanning:
    def test_pure_server_conjunction(self, owner):
        plan = owner.plan_query("City = Hoboken and Zipcode = '07030'")
        assert plan.mode == "server"
        assert plan.residual is None
        assert isinstance(plan.server, ServerAnd)
        assert [leaf.attribute for leaf in plan.leaves] == ["City", "Zipcode"]
        assert all(len(leaf.token) > 0 for leaf in plan.leaves)
        assert plan.server_predicate == plan.predicate

    def test_non_mas_attribute_goes_local(self, owner):
        # Street values are unique: outside every MAS, no derivable token.
        plan = owner.plan_query("Street = street-1")
        assert plan.mode == "local"
        assert plan.server is None
        assert plan.residual == Eq("Street", "street-1")
        assert any("outside every MAS" in note for note in plan.notes)

    def test_conjunction_splits_into_hybrid(self, owner):
        plan = owner.plan_query("City = Hoboken and Street = street-1")
        assert plan.mode == "hybrid"
        assert isinstance(plan.server, TokenLeaf)
        assert plan.server_predicate == Eq("City", "Hoboken")
        assert plan.residual == Eq("Street", "street-1")

    def test_negation_goes_local(self, owner):
        plan = owner.plan_query("not City = Hoboken")
        assert plan.mode == "local"
        assert any("complement" in note for note in plan.notes)
        # ... also inside a conjunction: the negated conjunct is residual.
        plan = owner.plan_query("Zipcode = '07030' and Side != N")
        assert plan.mode == "hybrid"
        assert plan.server_predicate == Eq("Zipcode", "07030")
        assert plan.residual == Not(Eq("Side", "N"))

    def test_mixed_disjunction_goes_fully_local(self, owner):
        # One non-serverable disjunct poisons the whole Or: a partial server
        # union could not restrict the candidate set.
        plan = owner.plan_query("City = Hoboken or Street = street-1")
        assert plan.mode == "local"
        assert any("disjunction" in note for note in plan.notes)

    def test_pure_server_disjunction(self, owner):
        plan = owner.plan_query("City = Hoboken or Zipcode = '07302'")
        assert plan.mode == "server"
        assert isinstance(plan.server, ServerOr)

    def test_in_list_is_one_leaf_with_union_token(self, owner):
        plan = owner.plan_query("Zipcode in ('07030', '07302')")
        assert plan.mode == "server"
        assert isinstance(plan.server, TokenLeaf)
        leaf = plan.server
        union = set(owner.derive_search_token("Zipcode", "07030"))
        union |= set(owner.derive_search_token("Zipcode", "07302"))
        assert set(leaf.token) == union
        assert leaf.values == ("07030", "07302")

    def test_absent_value_yields_empty_token(self, owner):
        plan = owner.plan_query("City = Atlantis")
        assert plan.mode == "server"
        assert plan.server.token == ()

    def test_leaf_indexes_are_preorder(self, owner):
        plan = owner.plan_query(
            "(City = Hoboken or City = JerseyCity) and Zipcode = '07030'"
        )
        assert [leaf.index for leaf in plan.leaves] == [0, 1, 2]
        assert plan.token_sizes() == [len(leaf.token) for leaf in plan.leaves]

    def test_explain_mentions_tokens_and_residual(self, owner):
        plan = owner.plan_query("City = Hoboken and Street = street-1")
        text = plan.explain()
        assert "mode: hybrid" in text
        assert "City" in text and "token" in text.lower()
        assert "Street = street-1" in text

    def test_plan_requires_known_attributes(self, owner):
        with pytest.raises(QueryError):
            owner.plan_query("Nope = 1")

    def test_plan_accepts_ast_nodes(self, owner):
        plan = owner.plan_query(And((Eq("City", "Hoboken"), In("Side", ("N",)))))
        assert plan.mode in ("server", "hybrid")

    def test_plan_rejects_non_predicate(self, owner):
        with pytest.raises(QueryError):
            owner.plan_query(42)  # type: ignore[arg-type]


class TestServerExprWire:
    def expr(self, owner):
        return owner.plan_query(
            "(City = Hoboken or City = JerseyCity) and Zipcode = '07030'"
        ).server

    def test_doc_roundtrip_preserves_structure_and_tokens(self, owner):
        expr = self.expr(owner)
        doc = server_expr_to_doc(expr)
        tokens = {leaf.index: leaf.token for leaf in collect_leaves(expr)}
        rebuilt = server_expr_from_doc(doc, tokens)
        assert server_expr_to_doc(rebuilt) == doc
        assert [leaf.token for leaf in collect_leaves(rebuilt)] == [
            leaf.token for leaf in collect_leaves(expr)
        ]

    def test_doc_carries_no_plaintext_values(self, owner):
        doc = server_expr_to_doc(self.expr(owner))
        rendered = json.dumps(doc)
        assert "Hoboken" not in rendered
        assert "JerseyCity" not in rendered
        assert "07030" not in rendered

    @pytest.mark.parametrize("form", ["binary"])
    def test_encoded_request_carries_no_plaintext(self, owner, form):
        # The wire hygiene property end to end: whatever the owner queries
        # for, the encoded request bytes never contain the plaintext values.
        request = PlanQueryRequest(table_id="default", expr=self.expr(owner))
        payload = request.encode()
        for secret in (b"Hoboken", b"JerseyCity", b"07030"):
            assert secret not in payload
        decoded = Message.decode(payload)
        assert isinstance(decoded, PlanQueryRequest)
        # Decoded leaves carry tokens and structure but no values annotation.
        for leaf in collect_leaves(decoded.expr):
            assert leaf.values == ()
        assert server_expr_to_doc(decoded.expr) == server_expr_to_doc(self.expr(owner))

    def test_renumber_preorder_including_not(self):
        leaf = TokenLeaf(attribute="A", token=(), index=99)
        expr = renumber_leaves(ServerNot(ServerAnd((leaf, leaf))))
        assert [l.index for l in collect_leaves(expr)] == [0, 1]

    def test_from_doc_rejects_malformed(self):
        from repro.exceptions import WireError

        with pytest.raises(WireError):
            server_expr_from_doc({"op": "xor"}, {})
        with pytest.raises(WireError):
            server_expr_from_doc({"op": "leaf", "index": 0}, {0: ()})
        with pytest.raises(WireError):
            server_expr_from_doc({"op": "leaf", "index": 1, "attribute": "A"}, {})
        with pytest.raises(WireError):
            server_expr_from_doc({"op": "and", "children": []}, {})
        with pytest.raises(WireError):
            server_expr_from_doc({"op": "not"}, {})
