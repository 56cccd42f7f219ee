"""The project-specific lint rules.

Each rule encodes one load-bearing invariant from ROADMAP.md as an AST
check.  Rules are pure: they yield raw :class:`Diagnostic` records and
never look at suppressions or the baseline — the runner applies those.

The rule catalog:

``entropy-discipline``
    Entropy may only be drawn inside the sanctioned crypto entry points
    (``repro.crypto.probabilistic`` / ``keys`` / ``prf``).  Everything
    else must go through ``FreshValueFactory`` or ``ProbabilisticCipher``
    so the byte-identity contract (golden hashes, backend transparency,
    delta determinism) keeps holding.  Seeded ``random.Random(seed)`` PRNGs are
    deterministic and therefore fine — except in ``repro.obs``, which is
    denied *any* randomness source ("observability never draws entropy").
``plaintext-boundary``
    Server-evaluated modules may not import or call owner-only
    decrypt/key APIs, directly or through any chain of imports.
``lock-discipline``
    No blocking I/O inside ``_RWLock`` write sections, and no nested
    table-lock acquisition (the locking design is one lock per handler).
``wire-exhaustiveness``
    Every request message type has a registered server handler; every
    ``ErrorCode`` has an explicit CLI exit-code row; error replies stay
    counted and ring-buffered.
``metrics-discipline``
    Metric handles are created at module scope or cached — never minted
    inside per-row/per-request loops.
``exception-discipline``
    ``except Exception`` in server/store recovery paths must re-raise or
    convert the exception into a reply — silent swallows hide failures.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.framework import (
    Diagnostic,
    Project,
    Rule,
    SourceFile,
    dotted_call_name,
    walk_without_nested_functions,
)
from repro.analysis.graph import ImportGraph


# ----------------------------------------------------------------------
# entropy-discipline
# ----------------------------------------------------------------------
class EntropyDisciplineRule(Rule):
    name = "entropy-discipline"
    summary = (
        "entropy is drawn only inside repro.crypto.{probabilistic,keys,prf}; "
        "everything else goes through FreshValueFactory/ProbabilisticCipher"
    )

    #: Modules allowed to touch real entropy sources.
    ALLOWED_MODULES = {
        "repro.crypto.probabilistic",
        "repro.crypto.keys",
        "repro.crypto.prf",
    }
    #: Module functions of ``random`` that draw from the process-global,
    #: OS-seeded generator.
    RANDOM_MODULE_FUNCS = {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform", "vonmisesvariate",
    }

    def check(self, project: Project) -> Iterable[Diagnostic]:
        for file in project.files:
            if file.module in self.ALLOWED_MODULES:
                continue
            in_obs = file.module == "repro.obs" or file.module.startswith("repro.obs.")
            yield from self._check_file(file, in_obs)

    def _check_file(self, file: SourceFile, in_obs: bool) -> Iterator[Diagnostic]:
        # Attribute nodes that are the callee of a Call are reported by the
        # Call branch; skip them in the Attribute branch to avoid doubles.
        call_funcs = {
            id(node.func) for node in ast.walk(file.tree) if isinstance(node, ast.Call)
        }
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "secrets" or alias.name.startswith("secrets."):
                        yield self._flag(file, node, "imports the `secrets` entropy module")
                    if in_obs and (alias.name == "random" or alias.name.startswith("random.")):
                        yield self._flag(
                            file, node,
                            "repro.obs may not import `random` at all "
                            "(observability never draws entropy)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "secrets":
                    yield self._flag(file, node, "imports from the `secrets` entropy module")
                elif node.module == "os" and any(a.name == "urandom" for a in node.names):
                    yield self._flag(file, node, "imports os.urandom directly")
                elif in_obs and node.module == "random":
                    yield self._flag(
                        file, node,
                        "repro.obs may not import `random` at all "
                        "(observability never draws entropy)",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(file, node, in_obs)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "SystemRandom"
                and id(node) not in call_funcs
            ):
                base = dotted_call_name(node.value)
                if base in ("random", "secrets"):
                    yield self._flag(file, node, f"uses {base}.SystemRandom (an OS entropy source)")

    def _check_call(self, file: SourceFile, node: ast.Call, in_obs: bool) -> Iterator[Diagnostic]:
        dotted = dotted_call_name(node.func)
        if dotted == "os.urandom" or dotted == "urandom":
            yield self._flag(file, node, "draws entropy via os.urandom")
        elif dotted.startswith("secrets."):
            yield self._flag(file, node, f"draws entropy via {dotted}")
        elif dotted.startswith("random."):
            func = dotted.split(".", 1)[1]
            if func in self.RANDOM_MODULE_FUNCS:
                yield self._flag(
                    file, node,
                    f"draws from the process-global `random.{func}` generator",
                )
            elif func == "Random":
                yield from self._check_random_ctor(file, node, in_obs)

    def _check_random_ctor(
        self, file: SourceFile, node: ast.Call, in_obs: bool
    ) -> Iterator[Diagnostic]:
        if in_obs:
            yield self._flag(
                file, node,
                "repro.obs may not construct PRNGs, even seeded ones "
                "(observability never draws entropy)",
            )
            return
        if not node.args and not node.keywords:
            yield self._flag(
                file, node,
                "random.Random() without a seed is OS-entropy-seeded; pass an "
                "explicit deterministic seed",
            )
            return
        # Seeded construction is deterministic — unless the seed itself is
        # an entropy draw (time or urandom).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    inner = dotted_call_name(sub.func)
                    if inner in ("time.time", "time.time_ns", "time.monotonic", "os.urandom"):
                        yield self._flag(
                            file, node,
                            f"random.Random seeded from {inner}() is an entropy draw",
                        )

    def _flag(self, file: SourceFile, node: ast.AST, what: str) -> Diagnostic:
        return self.diagnostic(
            file, node,
            f"{what}; outside repro.crypto.{{probabilistic,keys,prf}} all fresh "
            "values must come from FreshValueFactory/ProbabilisticCipher so the "
            "byte-identity contract keeps holding",
        )


# ----------------------------------------------------------------------
# plaintext-boundary
# ----------------------------------------------------------------------
class PlaintextBoundaryRule(Rule):
    name = "plaintext-boundary"
    summary = (
        "server-evaluated modules never reach owner-only decrypt/key APIs, "
        "directly or through the import graph"
    )

    #: Modules that execute on the keyless server.
    SERVER_MODULES = {
        "repro.query.server",
        "repro.integrity.merkle",
        "repro.integrity.writers",
    }
    SERVER_PREFIXES = ("repro.store",)
    #: Owner-only modules a server module may not import directly.
    DENIED_MODULES = {
        "repro.crypto.keys",
        "repro.crypto.aes",
        "repro.crypto.deterministic",
        "repro.crypto.prf",
        "repro.api.session",
        "repro.core.scheme",
    }
    #: Names a server module may not pull out of repro.crypto.probabilistic
    #: (the Ciphertext *container* is fine — the cipher is not).
    DENIED_PROBABILISTIC_NAMES = {"ProbabilisticCipher"}
    #: Attribute calls that reveal plaintext.
    DENIED_CALLS = {"decrypt", "decrypt_batch", "decrypt_table", "decrypt_rows", "decrypt_cell"}
    #: Owner-only names that must not appear in server-side classes.
    DENIED_NAMES = {"KeyGen", "SymmetricKey", "DataOwner", "F2Scheme", "ProbabilisticCipher"}
    #: Modules whose *transitive* reachability from a server module is a
    #: boundary hole even when every individual edge looks innocent.
    #: (repro.crypto.keys is excluded here: the Ciphertext container chain
    #: repro.wire.codec -> repro.crypto.probabilistic -> keys carries only
    #: the SymmetricKey *type*, and the direct-import check above already
    #: guards the server modules themselves.)
    TRANSITIVE_DENIED = {"repro.api.session", "repro.core.scheme"}
    #: Server-side classes inside the mixed client/server protocol module.
    PROTOCOL_MODULE = "repro.api.protocol"
    PROTOCOL_SERVER_CLASSES = {"ProtocolServer", "SocketProtocolServer"}

    def _is_server_module(self, module: str) -> bool:
        if module in self.SERVER_MODULES:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.SERVER_PREFIXES
        )

    def check(self, project: Project) -> Iterable[Diagnostic]:
        graph = ImportGraph.build(project)
        for file in project.files:
            if self._is_server_module(file.module):
                yield from self._check_imports(file, graph)
                yield from self._check_calls(file, file.tree)
            elif file.module == self.PROTOCOL_MODULE:
                yield from self._check_protocol(file, graph)

    def _check_imports(self, file: SourceFile, graph: ImportGraph) -> Iterator[Diagnostic]:
        for edge in graph.edges_from(file.module):
            if edge.target in self.DENIED_MODULES:
                yield self.diagnostic(
                    file, edge.line,
                    f"server-side module imports owner-only {edge.target} — the "
                    "keyless-server guarantee forbids decrypt/key APIs here",
                )
            elif edge.target == "repro.crypto.probabilistic":
                denied = sorted(set(edge.names) & self.DENIED_PROBABILISTIC_NAMES)
                if denied:
                    yield self.diagnostic(
                        file, edge.line,
                        f"server-side module imports {', '.join(denied)} from "
                        "repro.crypto.probabilistic (the cipher decrypts; only "
                        "the Ciphertext container may cross the wire)",
                    )
            elif edge.target == "repro.crypto":
                denied = sorted(
                    set(edge.names) & {"keys", "aes", "deterministic", "prf"}
                )
                if denied:
                    yield self.diagnostic(
                        file, edge.line,
                        f"server-side module imports repro.crypto.{denied[0]} — "
                        "owner-only key/cipher modules",
                    )
        chain = graph.find_path(file.module, self.TRANSITIVE_DENIED)
        if chain is not None:
            hops = " -> ".join([file.module] + [edge.target for edge in chain])
            yield self.diagnostic(
                file, chain[0].line,
                f"server-side module transitively reaches owner-only "
                f"{chain[-1].target} via {hops}",
            )

    def _check_calls(self, file: SourceFile, scope: ast.AST) -> Iterator[Diagnostic]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self.DENIED_CALLS:
                    yield self.diagnostic(
                        file, node,
                        f"server-side code calls .{node.func.attr}() — decryption "
                        "is owner-only (the server never holds a key)",
                    )

    def _check_protocol(self, file: SourceFile, graph: ImportGraph) -> Iterator[Diagnostic]:
        # The protocol module hosts both halves of the wire; module-level
        # imports of owner-only modules would let the server half reach
        # them, so they are denied for the whole file...
        for edge in graph.edges_from(file.module):
            if edge.target in self.DENIED_MODULES and not edge.type_only:
                yield self.diagnostic(
                    file, edge.line,
                    f"repro.api.protocol imports owner-only {edge.target}; the "
                    "server classes in this module must stay keyless",
                )
        # ...and the server classes themselves may not name owner-only
        # APIs or call decrypt, whatever the import said.
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef) and node.name in self.PROTOCOL_SERVER_CLASSES:
                yield from self._check_calls(file, node)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and sub.id in self.DENIED_NAMES:
                        yield self.diagnostic(
                            file, sub,
                            f"server class {node.name} references owner-only "
                            f"{sub.id}",
                        )


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    summary = (
        "no blocking I/O inside _RWLock write sections; table locks never nest"
    )

    #: Attribute calls that block on I/O.
    BLOCKING_ATTRS = {
        "sendall", "recv", "send", "fsync", "sleep",
        "read_bytes", "write_bytes", "read_text", "write_text",
    }
    _LOCKISH = re.compile(r"lock", re.IGNORECASE)

    def check(self, project: Project) -> Iterable[Diagnostic]:
        for file in project.files:
            yield from self._check_scope(file, file.tree, rw_depth=0)

    def _rw_mode(self, item: ast.withitem) -> "str | None":
        """``"read"``/``"write"`` when the with-item acquires an RW lock."""
        expr = item.context_expr
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)):
            return None
        if expr.func.attr not in ("read", "write"):
            return None
        try:
            base = ast.unparse(expr.func.value)
        except Exception:  # pragma: no cover - unparse is total on valid ASTs
            return None
        return expr.func.attr if self._LOCKISH.search(base) else None

    def _check_scope(self, file: SourceFile, scope: ast.AST, rw_depth: int) -> Iterator[Diagnostic]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.With):
                modes = [self._rw_mode(item) for item in node.items]
                held = [m for m in modes if m]
                if held and rw_depth:
                    yield self.diagnostic(
                        file, node,
                        "nested table-lock acquisition: handlers take at most "
                        "one table lock (acquire multi-table locks in one "
                        "place, in sorted key order)",
                    )
                if "write" in held:
                    yield from self._check_write_body(file, node)
                yield from self._check_scope(file, node, rw_depth + (1 if held else 0))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # A nested def runs later, outside the lock.
                yield from self._check_scope(file, node, 0)
            else:
                yield from self._check_scope(file, node, rw_depth)

    def _check_write_body(self, file: SourceFile, with_node: ast.With) -> Iterator[Diagnostic]:
        for body_stmt in with_node.body:
            for node in [body_stmt, *walk_without_nested_functions(body_stmt)]:
                if not isinstance(node, ast.Call):
                    continue
                name = ""
                if isinstance(node.func, ast.Attribute):
                    if node.func.attr in self.BLOCKING_ATTRS:
                        name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    if node.func.id == "open":
                        name = node.func.id
                if name:
                    yield self.diagnostic(
                        file, node,
                        f"blocking I/O ({name}) inside a _RWLock write section "
                        "serializes every reader of this table behind the disk",
                    )


# ----------------------------------------------------------------------
# wire-exhaustiveness
# ----------------------------------------------------------------------
class WireExhaustivenessRule(Rule):
    name = "wire-exhaustiveness"
    summary = (
        "every request message has a handler; every ErrorCode has a CLI exit "
        "row; error replies stay counted"
    )

    PROTOCOL_MODULE = "repro.api.protocol"
    AUTH_MODULE = "repro.api.auth"
    CLI_MODULE = "repro.cli"
    REPLY_SUFFIXES = ("Result", "Reply", "Ack")

    def check(self, project: Project) -> Iterable[Diagnostic]:
        protocol = project.by_module.get(self.PROTOCOL_MODULE)
        if protocol is not None:
            yield from self._check_handlers(protocol)
            yield from self._check_error_instrumentation(protocol)
        auth = project.by_module.get(self.AUTH_MODULE)
        cli = project.by_module.get(self.CLI_MODULE)
        if auth is not None and cli is not None:
            yield from self._check_exit_rows(auth, cli)

    # -- handler coverage ---------------------------------------------
    def _check_handlers(self, file: SourceFile) -> Iterator[Diagnostic]:
        message_types = self._message_types(file)
        if not message_types:
            return
        handled = self._handler_keys(file) | self._isinstance_dispatched(file)
        types_line = message_types[next(iter(message_types))]
        for name, line in message_types.items():
            if name.endswith(self.REPLY_SUFFIXES):
                continue  # replies are client-consumed, not dispatched
            if name not in handled:
                yield self.diagnostic(
                    file, line,
                    f"message type {name} is registered on the wire but has no "
                    "server handler (_HANDLERS entry or isinstance dispatch) — "
                    "clients sending it get BAD_REQUEST",
                )
        del types_line

    def _message_types(self, file: SourceFile) -> dict[str, int]:
        """``{class_name: line}`` from the MESSAGE_TYPES registry."""
        found: dict[str, int] = {}
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "MESSAGE_TYPES" for t in node.targets
            ):
                continue
            value = node.value
            if isinstance(value, ast.DictComp):
                source = value.generators[0].iter if value.generators else None
                if isinstance(source, (ast.Tuple, ast.List)):
                    for element in source.elts:
                        if isinstance(element, ast.Name):
                            found[element.id] = element.lineno
            elif isinstance(value, ast.Dict):
                for v in value.values:
                    if isinstance(v, ast.Name):
                        found[v.id] = v.lineno
        return found

    def _handler_keys(self, file: SourceFile) -> set[str]:
        keys: set[str] = set()
        for node in ast.walk(file.tree):
            value = None
            if isinstance(node, ast.Assign):
                if any(
                    (isinstance(t, ast.Attribute) and t.attr == "_HANDLERS")
                    or (isinstance(t, ast.Name) and t.id == "_HANDLERS")
                    for t in node.targets
                ):
                    value = node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    (isinstance(target, ast.Attribute) and target.attr == "_HANDLERS")
                    or (isinstance(target, ast.Name) and target.id == "_HANDLERS")
                ):
                    value = node.value
            if isinstance(value, ast.Dict):
                for key in value.keys:
                    if isinstance(key, ast.Name):
                        keys.add(key.id)
        return keys

    def _isinstance_dispatched(self, file: SourceFile) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                second = node.args[1]
                elements = second.elts if isinstance(second, ast.Tuple) else [second]
                for element in elements:
                    if isinstance(element, ast.Name):
                        names.add(element.id)
        return names

    # -- error observability ------------------------------------------
    def _check_error_instrumentation(self, file: SourceFile) -> Iterator[Diagnostic]:
        has_counter = False
        has_ring = False
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func)
            if dotted.endswith(".counter") and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and first.value == "server.errors":
                    has_counter = True
            if dotted.endswith("errors.record"):
                has_ring = True
        if not has_counter:
            yield self.diagnostic(
                file, 1,
                "no `server.errors` counter call found: every ErrorReply must "
                "be counted (labelled by ErrorCode) for the stats surface",
            )
        if not has_ring:
            yield self.diagnostic(
                file, 1,
                "no error-ring .record() call found: recent errors must stay "
                "inspectable via `f2-repro stats`",
            )

    # -- CLI exit-code coverage ---------------------------------------
    def _check_exit_rows(self, auth: SourceFile, cli: SourceFile) -> Iterator[Diagnostic]:
        members = self._error_code_members(auth)
        if not members:
            return
        table_line, rows = self._exit_rows(cli)
        if table_line is None:
            yield self.diagnostic(
                cli, 1,
                "no ERROR_CODE_EXITS table found: every wire ErrorCode needs "
                "an explicit process exit-code row",
            )
            return
        for member in sorted(members):
            if member not in rows:
                yield self.diagnostic(
                    cli, table_line,
                    f"ErrorCode.{member} has no exit-code row in "
                    "ERROR_CODE_EXITS — scripts cannot branch on it",
                )

    def _error_code_members(self, auth: SourceFile) -> set[str]:
        for node in ast.walk(auth.tree):
            if isinstance(node, ast.ClassDef) and node.name == "ErrorCode":
                members = set()
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                members.add(target.id)
                return members
        return set()

    def _exit_rows(self, cli: SourceFile) -> "tuple[int | None, set[str]]":
        for node in ast.walk(cli.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ERROR_CODE_EXITS" for t in node.targets
            ):
                if isinstance(node.value, ast.Dict):
                    keys = {
                        key.value
                        for key in node.value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    }
                    return node.lineno, keys
        return None, set()


# ----------------------------------------------------------------------
# metrics-discipline
# ----------------------------------------------------------------------
class MetricsDisciplineRule(Rule):
    name = "metrics-discipline"
    summary = (
        "metric handles are created at module scope or cached, never minted "
        "inside per-row/per-request loops"
    )

    FACTORY_ATTRS = {"counter", "gauge", "histogram"}
    FACTORY_BASES = {"obs", "_metrics", "metrics", "REGISTRY", "obs.REGISTRY"}

    def check(self, project: Project) -> Iterable[Diagnostic]:
        for file in project.files:
            bare_names = self._bare_factory_names(file)
            for node in ast.walk(file.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(file, node, bare_names)

    def _bare_factory_names(self, file: SourceFile) -> set[str]:
        """Factory functions imported unqualified from repro.obs[.metrics]."""
        names: set[str] = set()
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "repro.obs", "repro.obs.metrics"
            ):
                for alias in node.names:
                    if alias.name in self.FACTORY_ATTRS:
                        names.add(alias.asname or alias.name)
        return names

    def _is_factory_call(self, node: ast.Call, bare_names: set[str]) -> bool:
        if isinstance(node.func, ast.Attribute) and node.func.attr in self.FACTORY_ATTRS:
            base = dotted_call_name(node.func.value)
            return base in self.FACTORY_BASES
        if isinstance(node.func, ast.Name):
            return node.func.id in bare_names
        return False

    def _check_function(
        self, file: SourceFile, func: ast.AST, bare_names: set[str]
    ) -> Iterator[Diagnostic]:
        def visit(node: ast.AST, loop_depth: int) -> Iterator[Diagnostic]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # inner defs get their own visit from check()
                depth = loop_depth + (
                    1 if isinstance(child, (ast.For, ast.AsyncFor, ast.While)) else 0
                )
                if (
                    isinstance(child, ast.Call)
                    and depth
                    and self._is_factory_call(child, bare_names)
                ):
                    yield self.diagnostic(
                        file, child,
                        "metric handle minted inside a loop: registry label "
                        "lookups cost more than the record itself — create the "
                        "handle at module scope or cache it (PR 9 convention)",
                    )
                yield from visit(child, depth)

        yield from visit(func, 0)


# ----------------------------------------------------------------------
# exception-discipline
# ----------------------------------------------------------------------
class ExceptionDisciplineRule(Rule):
    name = "exception-discipline"
    summary = (
        "except Exception in server/store recovery paths must re-raise or "
        "convert the exception, never swallow it silently"
    )

    MODULES = ("repro.api.protocol",)
    PREFIXES = ("repro.store",)

    def _in_scope(self, module: str) -> bool:
        return module in self.MODULES or any(
            module == p or module.startswith(p + ".") for p in self.PREFIXES
        )

    def check(self, project: Project) -> Iterable[Diagnostic]:
        for file in project.files:
            if not self._in_scope(file.module):
                continue
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(file, node)

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        return any(
            isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
            for t in types
        )

    def _check_handler(self, file: SourceFile, handler: ast.ExceptHandler) -> Iterator[Diagnostic]:
        if not self._is_broad(handler):
            return
        if handler.type is None:
            yield self.diagnostic(
                file, handler,
                "bare `except:` swallows even KeyboardInterrupt; name the "
                "exception types this path can actually recover from",
            )
            return
        body_nodes = [
            n for stmt in handler.body for n in [stmt, *walk_without_nested_functions(stmt)]
        ]
        reraises = any(isinstance(n, ast.Raise) for n in body_nodes)
        uses_exc = handler.name is not None and any(
            isinstance(n, ast.Name) and n.id == handler.name for n in body_nodes
        )
        if not reraises and not uses_exc:
            yield self.diagnostic(
                file, handler,
                "`except Exception` that neither re-raises nor converts the "
                "exception silently swallows failures in a recovery path — "
                "narrow it to the typed exceptions this code can handle",
            )


ALL_RULES: tuple[Rule, ...] = (
    EntropyDisciplineRule(),
    PlaintextBoundaryRule(),
    LockDisciplineRule(),
    WireExhaustivenessRule(),
    MetricsDisciplineRule(),
    ExceptionDisciplineRule(),
)


def rule_by_name(name: str) -> Rule:
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    from repro.analysis.framework import LintError

    known = ", ".join(rule.name for rule in ALL_RULES)
    raise LintError(f"unknown lint rule {name!r} (known rules: {known})")
