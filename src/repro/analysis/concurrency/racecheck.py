"""Static lock-discipline linter: the ``repro racecheck`` pass.

The serving layer's correctness rests on hand-rolled lock discipline;
this module checks that discipline *statically*, the way the query
linter checks Cypher.  It parses Python source with :mod:`ast`, reads
lightweight trailing-comment annotations, and reports structured
:class:`~repro.analysis.diagnostics.Diagnostic` findings with ``C3xx``
codes (``file:line`` in the message — these point at our own source, not
at query text).

Annotation syntax (trailing comments, one per line):

``# guarded-by: _lock``
    On a ``self.field = ...`` assignment: every read/write of ``field``
    outside ``__init__`` must happen inside ``with self._lock:`` (C301).
``# requires-lock: _lock``
    On a ``def`` line: the method is documented to be called with the
    lock already held; the body is checked as if it were.
``# unsynchronized: <reason>``
    On a ``self.field = ...`` assignment: acknowledged lock-free shared
    state (monotone flags, thread-locals, main-thread-only fields).
    Recorded, never flagged.
``# racecheck: ignore`` / ``# racecheck: ignore[C301,C303]``
    Suppress findings on this line (the escape hatch of last resort).

Checks:

* **C301** — a ``guarded-by`` field accessed without its lock held.
  Cross-object accesses resolve through constructor assignments
  (``self.stats = CacheStats()`` makes ``self.stats.hits`` check
  ``CacheStats``'s declared guard).
* **C302** — statically inferable lock-order inversions: the linter
  builds an acquisition graph from lexically nested ``with`` blocks plus
  one level of call/property expansion across classes, and reports every
  cycle.
* **C303** — blocking calls under a lock: ``time.sleep``, queue
  get/put, ``Event``/``Condition``/``Barrier`` waits, ``Future.result``
  on a just-submitted task, socket/subprocess I/O, ``serve_forever``.
* **C304** — a lock created *and* acquired inside one call (``with
  threading.Lock():`` or a local lock variable): it guards nothing.
* **C305** — a ``guarded-by`` annotation naming a lock attribute the
  class never creates.

The runtime complement is :mod:`repro.locks` (the lock-order witness)
and :mod:`repro.analysis.concurrency.fuzzer` (seeded interleaving
schedules); see ``docs/analysis.md``.
"""

import ast
import os
import re

from repro.analysis.diagnostics import CODES, Diagnostic

__all__ = [
    "RaceChecker",
    "RaceReport",
    "racecheck_paths",
    "racecheck_source",
]

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_REQUIRES = re.compile(r"#\s*requires-lock:\s*([A-Za-z_]\w*)")
_UNSYNC = re.compile(r"#\s*unsynchronized:\s*(.+?)\s*$")
_IGNORE = re.compile(r"#\s*racecheck:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")

#: call targets that construct a lock object
LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "named_lock", "named_rlock",
})

#: fully qualified call targets that block the calling thread
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.create_connection",
    "urllib.request.urlopen",
    "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "input",
})

#: method names that block regardless of the receiver
ALWAYS_BLOCKING_METHODS = frozenset({
    "serve_forever", "accept", "recv", "sendall",
})

#: method names that block on receivers of these constructor types
BLOCKING_METHODS_BY_TYPE = {
    "Queue": frozenset({"get", "put", "join"}),
    "LifoQueue": frozenset({"get", "put", "join"}),
    "PriorityQueue": frozenset({"get", "put", "join"}),
    "SimpleQueue": frozenset({"get", "put"}),
    "Event": frozenset({"wait"}),
    "Condition": frozenset({"wait", "wait_for"}),
    "Barrier": frozenset({"wait"}),
    "Thread": frozenset({"join"}),
    "ThreadPoolExecutor": frozenset({"shutdown"}),
}

#: methods exempt from guard checking: the object is not shared yet
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


class _LineDirectives:
    """Parsed trailing-comment directives of one source line."""

    __slots__ = ("guarded_by", "requires", "unsynchronized", "ignore")

    def __init__(self, line):
        match = _GUARDED_BY.search(line)
        self.guarded_by = match.group(1) if match else None
        match = _REQUIRES.search(line)
        self.requires = match.group(1) if match else None
        match = _UNSYNC.search(line)
        self.unsynchronized = match.group(1) if match else None
        self.ignore = None
        match = _IGNORE.search(line)
        if match:
            codes = match.group(1)
            self.ignore = (
                frozenset(code.strip() for code in codes.split(","))
                if codes else frozenset(CODES)
            )


class ClassModel:
    """Everything the checker knows about one class definition."""

    def __init__(self, name, path, node):
        self.name = name
        self.path = path
        self.node = node
        self.locks = {}  # lock attr -> creation lineno
        self.lock_creations = []  # (attr, method name, lineno)
        self.guarded = {}  # field -> guard lock attr
        self.guard_lines = {}  # field -> annotation lineno
        self.unsynchronized = {}  # field -> reason
        self.attr_types = {}  # attr -> constructor class name
        self.methods = {}  # name -> FunctionDef
        self.properties = set()  # names defined with @property

    def qualified(self, lock_attr):
        return "%s.%s" % (self.name, lock_attr)


class ModuleModel:
    """One parsed file: AST, per-line directives and import aliases."""

    def __init__(self, path, source):
        self.path = path
        self.tree = ast.parse(source)
        lines = source.splitlines()
        self.directives = {
            number: _LineDirectives(line)
            for number, line in enumerate(lines, start=1)
            if "#" in line
        }
        self.aliases = _import_aliases(self.tree)
        self.classes = [
            node for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]
        self.functions = [
            node for node in self.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def directive(self, lineno):
        return self.directives.get(lineno)


def _import_aliases(tree):
    """Top-level import name → dotted path (``sleep`` → ``time.sleep``)."""
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    "%s.%s" % (node.module, alias.name)
                )
    return aliases


def _dotted_name(node, aliases):
    """``a.b.c`` for a Name/Attribute chain, alias-expanded, or ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _constructor_class(call, aliases):
    """The class a ``Call`` constructs, or ``None``.

    ``CacheStats()`` → ``CacheStats``; ``queue.Queue()`` → ``Queue``;
    ``GraphStatistics.from_graph(...)`` → ``GraphStatistics`` (classmethod
    factories resolve to the receiving class).
    """
    func = call.func
    if isinstance(func, ast.Name):
        name = aliases.get(func.id, func.id).rsplit(".", 1)[-1]
        return name
    if isinstance(func, ast.Attribute):
        if func.attr[:1].isupper():
            return func.attr
        if isinstance(func.value, ast.Name) and func.value.id[:1].isupper():
            return func.value.id
    return None


def _is_lock_constructor(call, aliases):
    dotted = _dotted_name(call.func, aliases)
    if dotted is None:
        return False
    return dotted.rsplit(".", 1)[-1] in LOCK_CONSTRUCTORS


class _Finding:
    """Internal pre-Diagnostic record, sortable by position."""

    __slots__ = ("code", "path", "lineno", "message")

    def __init__(self, code, path, lineno, message):
        self.code = code
        self.path = path
        self.lineno = lineno
        self.message = message


class RaceReport:
    """The result of one racecheck run."""

    def __init__(self, diagnostics, files, lock_graph, guarded_fields,
                 acknowledged, suppressed):
        self.diagnostics = diagnostics
        self.files = files
        #: static acquisition-order edges {(from, to): "path:line"}
        self.lock_graph = lock_graph
        self.guarded_fields = guarded_fields
        self.acknowledged = acknowledged
        self.suppressed = suppressed

    @property
    def errors(self):
        return sum(1 for d in self.diagnostics if d.is_error)

    @property
    def warnings(self):
        return len(self.diagnostics) - self.errors

    def format_summary(self):
        return (
            "racecheck: %d file(s), %d guarded field(s), "
            "%d acknowledged unsynchronized, %d lock-order edge(s); "
            "%d error(s), %d warning(s), %d suppressed"
            % (len(self.files), self.guarded_fields, self.acknowledged,
               len(self.lock_graph), self.errors, self.warnings,
               self.suppressed)
        )

    def format_graph(self):
        lines = ["static lock-order graph (%d edge(s)):"
                 % len(self.lock_graph)]
        for (source, target) in sorted(self.lock_graph):
            lines.append("  %-28s -> %-28s %s"
                         % (source, target, self.lock_graph[(source, target)]))
        return "\n".join(lines)


class RaceChecker:
    """Multi-file lock-discipline analysis; feed files, then :meth:`check`."""

    def __init__(self):
        self._modules = []
        self._findings = []
        self._models = []  # (module, ClassModel) in scan order
        self._classes = {}  # class name -> ClassModel (None if ambiguous)
        self._edges = {}  # (from node, to node) -> "path:line"
        self._suppressed = 0
        self._direct_locks = {}  # (class name, method) -> set of nodes

    # Input -------------------------------------------------------------------

    def add_source(self, source, path="<source>"):
        """Parse one unit of Python source (raises ``SyntaxError``)."""
        self._modules.append(ModuleModel(path, source))

    def add_file(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            self.add_source(handle.read(), path)

    def add_path(self, path):
        """A file, or a directory walked recursively for ``*.py``."""
        if os.path.isdir(path):
            for directory, _subdirs, files in sorted(os.walk(path)):
                for name in sorted(files):
                    if name.endswith(".py"):
                        self.add_file(os.path.join(directory, name))
        else:
            self.add_file(path)

    # Analysis ----------------------------------------------------------------

    def check(self):
        """Run every pass; returns a :class:`RaceReport`."""
        self._collect_classes()
        self._collect_direct_locks()
        for module in self._modules:
            self._check_module(module)
        self._check_lock_order()
        findings = sorted(
            self._findings,
            key=lambda f: (f.path, f.lineno, f.code),
        )
        diagnostics = [
            Diagnostic.of(f.code, "%s:%d: %s" % (f.path, f.lineno, f.message))
            for f in findings
        ]
        diagnostics.sort(key=lambda d: d.severity)
        guarded = sum(
            len(model.guarded)
            for model in self._classes.values() if model is not None
        )
        acknowledged = sum(
            len(model.unsynchronized)
            for model in self._classes.values() if model is not None
        )
        return RaceReport(
            diagnostics,
            [module.path for module in self._modules],
            dict(self._edges),
            guarded,
            acknowledged,
            self._suppressed,
        )

    # Pass 1: class models ----------------------------------------------------

    def _collect_classes(self):
        for module in self._modules:
            for node in module.classes:
                model = ClassModel(node.name, module.path, node)
                self._scan_class(module, node, model)
                self._models.append((module, model))
                if node.name in self._classes:
                    # ambiguous name across files: disable resolution
                    self._classes[node.name] = None
                else:
                    self._classes[node.name] = model

    def _scan_class(self, module, node, model):
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                model.methods[item.name] = item
                if any(
                    isinstance(dec, ast.Name)
                    and dec.id in ("property", "cached_property")
                    for dec in item.decorator_list
                ):
                    model.properties.add(item.name)
                self._scan_method_fields(module, item, model)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                # class-level fields may carry annotations too
                self._scan_field_directives(module, item, model,
                                            class_level=True)

    def _scan_method_fields(self, module, method, model):
        for stmt in ast.walk(method):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(value, ast.Call):
                    if _is_lock_constructor(value, module.aliases):
                        model.locks.setdefault(attr, stmt.lineno)
                        model.lock_creations.append(
                            (attr, method.name, stmt.lineno)
                        )
                    else:
                        constructed = _constructor_class(
                            value, module.aliases
                        )
                        if constructed is not None:
                            model.attr_types.setdefault(attr, constructed)
                directives = module.directive(stmt.lineno)
                if directives is None:
                    continue
                if directives.guarded_by is not None:
                    model.guarded.setdefault(attr, directives.guarded_by)
                    model.guard_lines.setdefault(attr, stmt.lineno)
                if directives.unsynchronized is not None:
                    model.unsynchronized.setdefault(
                        attr, directives.unsynchronized
                    )

    def _scan_field_directives(self, module, stmt, model, class_level=False):
        directives = module.directive(stmt.lineno)
        if directives is None:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if directives.guarded_by is not None:
                    model.guarded.setdefault(target.id, directives.guarded_by)
                    model.guard_lines.setdefault(target.id, stmt.lineno)
                if directives.unsynchronized is not None:
                    model.unsynchronized.setdefault(
                        target.id, directives.unsynchronized
                    )

    def _resolve_class(self, name):
        if name is None:
            return None
        return self._classes.get(name)

    # Pass 1b: direct lock acquisitions per method ----------------------------

    def _collect_direct_locks(self):
        for module, model in self._models:
            for name, method in model.methods.items():
                acquired = set()
                for node in ast.walk(method):
                    if not isinstance(node, (ast.With, ast.AsyncWith)):
                        continue
                    for item in node.items:
                        resolved = self._resolve_lock_expr(
                            item.context_expr, model, module
                        )
                        if resolved is not None:
                            acquired.add(resolved[1])
                if acquired:
                    self._direct_locks.setdefault(
                        (model.name, name), set()
                    ).update(acquired)

    def _resolve_lock_expr(self, expr, owner, module):
        """``(held_key, graph_node)`` for a with-item, or ``None``.

        Resolves ``self.X`` (own lock), ``self.Y.Z`` (lock of a
        constructor-typed attribute) and ``v.Z`` for locals typed in the
        calling function (handled by the walker, which passes local
        types through ``owner``-independent keys).
        """
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and owner is not None
            and expr.attr in owner.locks
        ):
            return ("self", expr.attr), owner.qualified(expr.attr)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Attribute)
            and isinstance(expr.value.value, ast.Name)
            and expr.value.value.id == "self"
            and owner is not None
        ):
            through = expr.value.attr
            target = self._resolve_class(owner.attr_types.get(through))
            if target is not None and expr.attr in target.locks:
                return (
                    ("attr", through, expr.attr),
                    target.qualified(expr.attr),
                )
        return None

    # Pass 2: per-function checks ---------------------------------------------

    def _check_module(self, module):
        for owner, model in self._models:
            if owner is module:
                self._check_class(module, model)
        for function in module.functions:
            walker = _FunctionWalker(self, module, None, function)
            walker.run()

    def _check_class(self, module, model):
        # C305: guard annotations naming unknown lock attributes
        for field, guard in sorted(model.guarded.items()):
            if guard not in model.locks:
                self._emit(
                    "C305", module, model.guard_lines.get(field, 1),
                    "field %s.%s declares guard %r but the class never "
                    "creates a lock attribute with that name"
                    % (model.name, field, guard),
                )
        for name, method in model.methods.items():
            walker = _FunctionWalker(self, module, model, method)
            walker.run()

    # Pass 3: global lock-order cycles ----------------------------------------

    def _record_edge(self, source, target, module, lineno):
        key = (source, target)
        if key not in self._edges:
            self._edges[key] = "%s:%d" % (module.path, lineno)

    def _check_lock_order(self):
        graph = {}
        for source, target in self._edges:
            graph.setdefault(source, set()).add(target)
            graph.setdefault(target, set())
        for cycle in _find_cycles(graph):
            sites = [
                self._edges.get((a, b), "<derived>")
                for a, b in zip(cycle, cycle[1:])
            ]
            path, lineno = _site_position(sites)
            self._findings.append(_Finding(
                "C302", path, lineno,
                "lock-order inversion: %s (acquisition sites: %s)"
                % (" -> ".join(cycle), ", ".join(sites)),
            ))

    # Emission ----------------------------------------------------------------

    def _emit(self, code, module, lineno, message):
        directives = module.directive(lineno)
        if (
            directives is not None
            and directives.ignore is not None
            and code in directives.ignore
        ):
            self._suppressed += 1
            return
        self._findings.append(_Finding(code, module.path, lineno, message))


def _site_position(sites):
    """``(path, line)`` of the first concrete site in a C302 cycle."""
    for site in sites:
        if ":" in site:
            path, _colon, line = site.rpartition(":")
            if line.isdigit():
                return path, int(line)
    return "<global>", 0


class _FunctionWalker:
    """Walks one function body tracking lexically held locks."""

    def __init__(self, checker, module, owner, function):
        self.checker = checker
        self.module = module
        self.owner = owner
        self.function = function
        self.local_types = {}  # local var -> class name
        self.local_locks = {}  # local var -> creation lineno
        self.local_futures = set()  # locals assigned from .submit(...)
        self.exempt = (
            owner is not None and function.name in _CONSTRUCTION_METHODS
        )

    def run(self):
        held = {}
        directives = self.module.directive(self.function.lineno)
        if (
            directives is not None
            and directives.requires is not None
            and self.owner is not None
        ):
            node = None
            if directives.requires in self.owner.locks:
                node = self.owner.qualified(directives.requires)
            held[("self", directives.requires)] = node
        self._walk_block(self.function.body, held)

    # Statement dispatch ------------------------------------------------------

    def _walk_block(self, statements, held):
        for statement in statements:
            self._walk_statement(statement, held)

    def _walk_statement(self, statement, held):
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            self._track_assignments(statement)
            inner = dict(held)
            for item in statement.items:
                self._check_expression(item.context_expr, held)
                self._enter_with_item(item, held, inner)
            self._walk_block(statement.body, inner)
            return
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested function may run on any thread at any time: check
            # its body with no locks assumed held
            nested = _FunctionWalker(
                self.checker, self.module, self.owner, statement
            )
            nested.local_types = dict(self.local_types)
            nested.run()
            return
        if isinstance(statement, ast.ClassDef):
            return
        self._track_assignments(statement)
        for expression in _statement_expressions(statement):
            self._check_expression(expression, held)
        for body in _statement_blocks(statement):
            self._walk_block(body, held)

    def _enter_with_item(self, item, held, inner):
        expr = item.context_expr
        # C304: `with threading.Lock():` — born and acquired together
        if isinstance(expr, ast.Call) and _is_lock_constructor(
            expr, self.module.aliases
        ):
            self.checker._emit(
                "C304", self.module, expr.lineno,
                "lock created and immediately acquired in %r — a per-call "
                "lock guards nothing" % self.function.name,
            )
            inner[("anon", expr.lineno)] = None
            return
        resolved = self.checker._resolve_lock_expr(
            expr, self.owner, self.module
        )
        if resolved is not None:
            key, node = resolved
            for held_node in held.values():
                if held_node is not None and node is not None:
                    self.checker._record_edge(
                        held_node, node, self.module, expr.lineno
                    )
            inner[key] = node
            return
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.local_locks:
                self.checker._emit(
                    "C304", self.module, self.local_locks[name],
                    "lock %r created in %r and acquired in the same call — "
                    "a per-call lock guards nothing"
                    % (name, self.function.name),
                )
            inner[("local", name)] = None
            return
        # locks of locally typed objects: `with v._lock:`
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
        ):
            target = self.checker._resolve_class(
                self.local_types.get(expr.value.id)
            )
            if target is not None and expr.attr in target.locks:
                inner[("localattr", expr.value.id, expr.attr)] = (
                    target.qualified(expr.attr)
                )
                for held_node in held.values():
                    if held_node is not None:
                        self.checker._record_edge(
                            held_node, target.qualified(expr.attr),
                            self.module, expr.lineno,
                        )
                return
        inner[("anon", expr.lineno)] = None

    def _track_assignments(self, statement):
        """Local name → constructed class / lock / future bookkeeping."""
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if (
                    item.optional_vars is not None
                    and isinstance(item.optional_vars, ast.Name)
                    and isinstance(item.context_expr, ast.Call)
                ):
                    constructed = _constructor_class(
                        item.context_expr, self.module.aliases
                    )
                    if constructed is not None:
                        self.local_types.setdefault(
                            item.optional_vars.id, constructed
                        )
            return
        if not isinstance(statement, ast.Assign):
            return
        if len(statement.targets) != 1:
            return
        target = statement.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = statement.value
        if not isinstance(value, ast.Call):
            return
        if _is_lock_constructor(value, self.module.aliases):
            self.local_locks.setdefault(target.id, statement.lineno)
            return
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "submit"
        ):
            self.local_futures.add(target.id)
            return
        constructed = _constructor_class(value, self.module.aliases)
        if constructed is not None:
            self.local_types.setdefault(target.id, constructed)

    # Expression checks -------------------------------------------------------

    def _check_expression(self, expression, held):
        if expression is None:
            return
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute):
                self._check_attribute(node, held)
            elif isinstance(node, ast.Call):
                self._check_call(node, held)

    def _held_nodes(self, held):
        return [node for node in held.values() if node is not None]

    def _holding_anything(self, held):
        return bool(held)

    def _check_attribute(self, node, held):
        field = node.attr
        receiver = node.value
        # self.field
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and self.owner is not None
        ):
            if field in self.owner.guarded and not self.exempt:
                guard = self.owner.guarded[field]
                if ("self", guard) not in held:
                    self._emit_c301(
                        node, "%s.%s" % (self.owner.name, field), guard,
                        self.owner.name,
                    )
            elif field in self.owner.properties:
                self._expand_callee(self.owner.name, field, held, node.lineno)
            return
        # self.Y.field
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and self.owner is not None
        ):
            through = receiver.attr
            target = self.checker._resolve_class(
                self.owner.attr_types.get(through)
            )
            if target is None:
                return
            if field in target.guarded and not self.exempt:
                guard = target.guarded[field]
                if ("attr", through, guard) not in held:
                    self._emit_c301(
                        node, "%s.%s" % (target.name, field), guard,
                        target.name,
                    )
            elif field in target.properties:
                self._expand_callee(target.name, field, held, node.lineno)
            return
        # v.field for a constructor-typed local
        if isinstance(receiver, ast.Name):
            target = self.checker._resolve_class(
                self.local_types.get(receiver.id)
            )
            if target is None:
                return
            if field in target.guarded:
                guard = target.guarded[field]
                if ("localattr", receiver.id, guard) not in held:
                    self._emit_c301(
                        node, "%s.%s" % (target.name, field), guard,
                        target.name,
                    )
            elif field in target.properties:
                self._expand_callee(target.name, field, held, node.lineno)

    def _emit_c301(self, node, qualified_field, guard, class_name):
        access = (
            "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        )
        self.checker._emit(
            "C301", self.module, node.lineno,
            "%s of %s outside its guard %s.%s (declared '# guarded-by: %s')"
            % (access, qualified_field, class_name, guard, guard),
        )

    def _check_call(self, node, held):
        func = node.func
        # one-hop lock-order expansion through method calls
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and self.owner is not None:
                self._expand_callee(
                    self.owner.name, func.attr, held, node.lineno
                )
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and self.owner is not None
            ):
                target = self.owner.attr_types.get(receiver.attr)
                if target is not None:
                    self._expand_callee(target, func.attr, held, node.lineno)
            elif isinstance(receiver, ast.Name):
                target = self.local_types.get(receiver.id)
                if target is not None:
                    self._expand_callee(target, func.attr, held, node.lineno)
        if not self._holding_anything(held):
            return
        blocked = self._blocking_reason(node)
        if blocked is not None:
            names = ", ".join(sorted(
                node for node in self._held_nodes(held)
            )) or "a lock"
            self.checker._emit(
                "C303", self.module, node.lineno,
                "%s while holding %s" % (blocked, names),
            )

    def _expand_callee(self, class_name, method, held, lineno):
        held_nodes = self._held_nodes(held)
        if not held_nodes:
            return
        acquired = self.checker._direct_locks.get((class_name, method))
        if not acquired:
            return
        for source in held_nodes:
            for target in acquired:
                if source != target:
                    self.checker._record_edge(
                        source, target, self.module, lineno
                    )

    def _blocking_reason(self, call):
        dotted = _dotted_name(call.func, self.module.aliases)
        if dotted is not None and dotted in BLOCKING_CALLS:
            return "blocking call %s()" % dotted
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        if method in ALWAYS_BLOCKING_METHODS:
            return "blocking call .%s()" % method
        receiver = func.value
        # future.result() on a just-submitted task
        if method == "result":
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Attribute)
                and receiver.func.attr == "submit"
            ):
                return "Future.result() on a just-submitted task"
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in self.local_futures
            ):
                return "Future.result() on a just-submitted task"
        receiver_type = None
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and self.owner is not None
        ):
            receiver_type = self.owner.attr_types.get(receiver.attr)
        elif isinstance(receiver, ast.Name):
            receiver_type = self.local_types.get(receiver.id)
        if receiver_type is not None:
            blocking = BLOCKING_METHODS_BY_TYPE.get(receiver_type)
            if blocking and method in blocking:
                return "blocking call %s.%s()" % (receiver_type, method)
        return None


def _statement_expressions(statement):
    """Direct expression children of a statement (bodies excluded)."""
    for _field, value in ast.iter_fields(statement):
        values = value if isinstance(value, list) else [value]
        for child in values:
            if isinstance(child, ast.expr):
                yield child
            elif isinstance(child, ast.ExceptHandler) and child.type:
                yield child.type


def _statement_blocks(statement):
    """Nested statement lists of a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(statement, field, None)
        if block:
            yield block
    for handler in getattr(statement, "handlers", ()) or ():
        yield handler.body


def _find_cycles(graph):
    """One representative cycle per SCC of size > 1, plus self-loops."""
    cycles = [[name, name] for name in graph if name in graph.get(name, ())]
    for component in _strongly_connected(graph):
        if len(component) > 1:
            cycles.append(_component_cycle(graph, component))
    return cycles


def _strongly_connected(graph):
    from repro.locks import _strongly_connected as impl

    return impl(graph)


def _component_cycle(graph, component):
    from repro.locks import _component_cycle as impl

    return impl(graph, component)


def racecheck_source(source, path="<source>"):
    """Check one source string; returns a :class:`RaceReport`."""
    checker = RaceChecker()
    checker.add_source(source, path)
    return checker.check()


def racecheck_paths(paths):
    """Check files/directories; returns a :class:`RaceReport`."""
    checker = RaceChecker()
    for path in paths:
        checker.add_path(path)
    return checker.check()
