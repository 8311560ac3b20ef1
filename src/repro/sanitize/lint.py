"""AST determinism linter: the SIM001–SIM006 and PROTO001–PROTO004 rulepacks.

Walks ``src/``, ``benchmarks/`` and ``tests/`` and reports constructs that
can break the repo's determinism contract (see DESIGN.md "Determinism
contract & sanitizers"):

- **SIM001** — global RNG (``random.*``, ``np.random.*``, unseeded
  ``default_rng()``) anywhere outside ``repro/sim/rng.py``.  All randomness
  must flow through named, seeded ``repro.sim.rng`` streams.
- **SIM002** — wall-clock reads (``time.time/monotonic/perf_counter``,
  ``datetime.now``) inside ``src/repro``.  Simulated components must only
  ever see ``sim.now``.
- **SIM003** — iteration over ``set``s (and ``.pop()`` on them): the order
  is hash-seed dependent, so anything it feeds (scheduling, stream naming,
  completion order) is too.  ``sorted(...)`` first.
- **SIM004** — float ``==``/``!=`` where a side looks like simulated time
  (``now``/``_now``/``*deadline*``): exact comparison of accumulated floats
  is fragile; compare ordering or use an explicit same-instant pragma.
- **SIM005** — a trace hook (a record, a span id or a push metric reached
  through ``trace.scope``) or a fault hook call site inside ``src/repro``
  not dominated by its one enabled-guard branch (``if trace.enabled:`` /
  ``if faults is not None:``).  The hooks-off hot path must cost exactly
  one branch per site.
- **SIM006** — a class in ``repro/sim`` holding per-event state without
  ``__slots__``.

The PROTO0xx rules are *protocol-aware*: they guard the RC transport
contract the runtime monitors (:mod:`repro.verify.monitors`) check
dynamically, at the places where the static shape is already wrong:

- **PROTO001** — a QP ``state``/``_state`` assignment outside
  ``QueuePair.__init__``/``modify()``.  Direct writes skip the legality
  check and the ERROR/RESET flush, the exact bug class PROTO103 catches
  at runtime.
- **PROTO002** — raw ``+``/``-`` arithmetic or ``<``/``>`` ordering on a
  PSN-typed expression (``psn``/``sq_psn``/``expected_psn``) outside the
  :class:`repro.verbs.wr.Psn` helper.  PSNs live in a 24-bit circular
  space; raw integer math silently diverges at the wrap point.
- **PROTO003** — a function that consumes an in-flight WR (pops from
  ``outstanding`` or decrements ``sq_outstanding``) but contains no
  completion-posting machinery: a ``_post_cqe`` or ``push`` call, or a
  stage hand-off (``call_later``/``call_soon``/``spawn``) whose callback
  is a ``self.<method>`` of the same class that itself calls
  ``_post_cqe``.  A completion path that can retire work without ever
  emitting a CQE.
- **PROTO004** — a protocol-monitor hook call (``mon.on_*``,
  ``register_qp``) not dominated by its ``is None`` guard; monitors-off
  runs must cost exactly one branch per site.

Suppression is per-line via ``# sim: allow-<rule>(reason)`` pragmas; a
pragma with no reason, an unknown pragma and a pragma that suppresses
nothing are themselves findings (SIM000), so the allowlist stays reviewed
and honest.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, Optional, Sequence

from repro.sanitize.findings import PRAGMAS, Finding

#: Default lint roots, relative to the repo root.
DEFAULT_ROOTS = ("src", "benchmarks", "tests", "tools")

#: Path fragments never linted (negative-test fixture modules seed
#: deliberate violations).
DEFAULT_EXCLUDES = ("fixtures", ".git", "__pycache__", "egg-info")

#: The one module that implements the RNG streams.
_RNG_MODULE = os.path.join("repro", "sim", "rng.py")

#: Modules that *implement* tracing/telemetry/faults: their internals are
#: the guard, so SIM005 does not apply to them.
_HOOK_IMPL_FRAGMENTS = (
    os.path.join("repro", "sim", "trace.py"),
    os.path.join("repro", "telemetry", ""),
    os.path.join("repro", "faults.py"),
    os.path.join("repro", "sanitize", ""),
    os.path.join("repro", "verify", ""),
)

#: The one module allowed raw PSN arithmetic (it implements the helper).
_PSN_MODULE = os.path.join("repro", "verbs", "wr.py")

#: Attribute / name spellings treated as PSN-typed for PROTO002.
_PSN_FIELDS = frozenset({"psn", "sq_psn", "expected_psn"})

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.today", "datetime.datetime.today",
})

#: Names that mark an expression as simulated time for SIM004.
_TIME_NAMES = frozenset({"now", "_now"})
_TIME_SUFFIXES = ("deadline",)

_PRAGMA_RE = re.compile(r"#\s*sim:\s*([a-zA-Z][a-zA-Z0-9_-]*)\(([^)]*)\)")


def _dotted(node: ast.AST) -> list[str]:
    """Flatten an attribute/call chain into its name parts, bottom-up.

    ``self.sim.trace.scope("h").counter("x").inc()`` yields
    ``["self", "sim", "trace", "scope", "counter", "inc"]``.
    """
    parts: list[str] = []

    def walk(n: ast.AST) -> None:
        if isinstance(n, ast.Attribute):
            walk(n.value)
            parts.append(n.attr)
        elif isinstance(n, ast.Call):
            walk(n.func)
        elif isinstance(n, ast.Name):
            parts.append(n.id)

    walk(node)
    return parts


#: Stage hand-off calls (PROTO003) -> position of the callback argument.
_HANDOFF_ARG = {"call_later": 1, "call_soon": 0, "spawn": 0}


def _posting_methods(cls: ast.ClassDef) -> frozenset[str]:
    """Methods of ``cls`` whose own body calls ``_post_cqe``."""
    return frozenset(
        item.name for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, ast.Call) and "_post_cqe" in _dotted(sub.func)
                for sub in ast.walk(item))
    )


def _hands_off_to(call: ast.Call, parts: list[str],
                  posting: frozenset[str]) -> bool:
    """Is ``call`` a stage hand-off to a ``self.<method>`` in ``posting``?

    ``spawn`` takes the generator call itself (``spawn(self.m(...))``);
    ``call_later``/``call_soon`` take the bound method.
    """
    idx = _HANDOFF_ARG.get(parts[-1]) if parts else None
    if idx is None or len(call.args) <= idx:
        return False
    target = call.args[idx]
    if isinstance(target, ast.Call):
        target = target.func
    return (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self" and target.attr in posting)


def _names_in(node: ast.AST) -> Iterable[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


class _Pragma:
    __slots__ = ("line", "name", "reason", "rule", "used")

    def __init__(self, line: int, name: str, reason: str):
        self.line = line
        self.name = name
        self.reason = reason.strip()
        self.rule = PRAGMAS.get(name)
        self.used = False


def _parse_pragmas(source: str) -> list[_Pragma]:
    """Extract ``# sim: allow-*(reason)`` pragmas from real comment tokens.

    Tokenizing (rather than regexing raw lines) keeps pragma-shaped text
    inside string literals — e.g. the linter's own tests — inert.
    """
    import io
    import tokenize

    pragmas = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            m = _PRAGMA_RE.search(tok.string)
            if m:
                pragmas.append(_Pragma(tok.start[0], m.group(1), m.group(2)))
    return pragmas


class _Scope:
    """Per-function (or module) info: which local names are set-typed."""

    __slots__ = ("set_names",)

    def __init__(self) -> None:
        self.set_names: set[str] = set()


def _is_set_expr(node: ast.AST, scope: _Scope) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in scope.set_names:
        return True
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, norm_path: str):
        self.path = path
        #: Normalized (os.sep) path used for scope decisions.
        self.norm = norm_path
        self.findings: list[Finding] = []
        self._scopes: list[_Scope] = [_Scope()]
        self._enabled_depth = 0  # `if x.enabled:` Ifs currently dominating
        self._notnone_depth = 0  # `if faults is not None:` Ifs dominating
        self._hook_lines: set[int] = set()  # SIM005/PROTO004 dedupe
        self._class_stack: list[ast.ClassDef] = []
        #: Per enclosing class: its methods that call ``_post_cqe``.
        self._posting_stack: list[frozenset[str]] = []
        self._func_stack: list[str] = []

        self.in_src = f"{os.sep}repro{os.sep}" in norm_path or \
            norm_path.startswith(f"repro{os.sep}")
        self.is_rng_module = norm_path.endswith(_RNG_MODULE)
        self.is_psn_module = norm_path.endswith(_PSN_MODULE)
        self.in_sim = f"{os.sep}repro{os.sep}sim{os.sep}" in norm_path
        self.hook_impl = any(
            frag and frag in norm_path for frag in _HOOK_IMPL_FRAGMENTS
        )

    # -- helpers ---------------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str, hint: str = "") -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path, line=getattr(node, "lineno", 0),
            message=message, hint=hint,
        ))

    # -- scope bookkeeping ------------------------------------------------------

    def _collect_set_names(self, node: ast.AST, scope: _Scope) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and _is_set_expr(sub.value, scope):
                scope.set_names.add(sub.targets[0].id)
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                ann = ast.unparse(sub.annotation) if sub.annotation else ""
                if ann.startswith(("set[", "set", "frozenset")) and "Optional" not in ann:
                    scope.set_names.add(sub.target.id)

    def visit_Module(self, node: ast.Module) -> None:
        self._collect_set_names(node, self._scopes[0])
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        scope = _Scope()
        self._collect_set_names(node, scope)
        self._scopes.append(scope)
        self._func_stack.append(node.name)
        if self.in_src:
            self._check_no_cqe_path(node)
        self.generic_visit(node)
        self._func_stack.pop()
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- PROTO003: completion path with no CQE-posting machinery -----------------

    def _check_no_cqe_path(self, node) -> None:
        consumes: Optional[ast.AST] = None
        posts = False
        posting = self._posting_stack[-1] if self._posting_stack else frozenset()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                parts = _dotted(sub.func)
                if parts[-2:] == ["outstanding", "pop"]:
                    consumes = consumes or sub
                if "_post_cqe" in parts or (parts and parts[-1] == "push") \
                        or _hands_off_to(sub, parts, posting):
                    posts = True
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Sub) \
                    and isinstance(sub.target, ast.Attribute) \
                    and sub.target.attr == "sq_outstanding":
                consumes = consumes or sub
        if consumes is not None and not posts:
            self.report(
                "PROTO003", consumes,
                f"`{node.name}` retires in-flight work (outstanding.pop / "
                "sq_outstanding -= 1) but never posts a CQE",
                "every consumed WR must complete: call _post_cqe, or hand "
                "off (call_later/call_soon/spawn) to a self method that "
                "calls it",
            )

    # -- PROTO001 / PROTO002: QP state writes and raw PSN math -------------------

    @staticmethod
    def _is_psn_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _PSN_FIELDS
        if isinstance(node, ast.Attribute):
            return node.attr in _PSN_FIELDS
        return False

    def _in_qp_modify(self) -> bool:
        return bool(
            self._class_stack
            and self._class_stack[-1].name == "QueuePair"
            and self._func_stack
            and self._func_stack[-1] in ("__init__", "modify")
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute) \
                    and target.attr in ("state", "_state") \
                    and "QPState" in set(_names_in(node.value)) \
                    and not self._in_qp_modify():
                self.report(
                    "PROTO001", node,
                    f"direct QP `{target.attr}` assignment outside "
                    "QueuePair.modify()",
                    "go through qp.modify(new_state): it validates the "
                    "transition and runs the ERROR/RESET flush",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.in_src and not self.is_psn_module \
                and isinstance(node.op, (ast.Add, ast.Sub)) \
                and (self._is_psn_expr(node.left) or self._is_psn_expr(node.right)):
            self.report(
                "PROTO002", node,
                f"raw PSN arithmetic `{ast.unparse(node)}`",
                "PSNs are 24-bit circular: use Psn.next/add/delta/wrap",
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.in_src and not self.is_psn_module \
                and isinstance(node.op, (ast.Add, ast.Sub)) \
                and self._is_psn_expr(node.target):
            self.report(
                "PROTO002", node,
                f"raw PSN arithmetic `{ast.unparse(node)}`",
                "PSNs are 24-bit circular: use Psn.next/add/delta/wrap",
            )
        self.generic_visit(node)

    # -- SIM001: global RNG -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        if not self.is_rng_module:
            for alias in node.names:
                if alias.name == "random":
                    self.report(
                        "SIM001", node, "import of the global `random` module",
                        "draw from a named sim.rng.stream(...) instead",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.is_rng_module and node.module in ("random", "numpy.random"):
            self.report(
                "SIM001", node, f"import from `{node.module}`",
                "draw from a named sim.rng.stream(...) instead",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Match exactly the `np.random` / `numpy.random` node so a chain like
        # `np.random.default_rng` reports once, not per attribute level.
        if not self.is_rng_module and node.attr == "random" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            self.report(
                "SIM001", node,
                "numpy's global RNG namespace (`np.random`)",
                "derive a generator from sim.rng.stream(name)",
            )
        self.generic_visit(node)

    # -- statements / expressions ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted(node.func)
        dotted = ".".join(parts)

        # SIM001: unseeded default_rng() anywhere outside the rng module.
        if not self.is_rng_module and parts and parts[-1] == "default_rng" \
                and not node.args and not node.keywords:
            self.report(
                "SIM001", node, "unseeded default_rng() is nondeterministic",
                "seed it, or use sim.rng.stream(name)",
            )

        # SIM002: wall clock inside src/repro.
        if self.in_src and dotted in _WALLCLOCK_CALLS:
            self.report(
                "SIM002", node, f"wall-clock read `{dotted}()` in simulated code",
                "use sim.now; benchmarks may measure host time outside src/repro",
            )

        # SIM003: .pop() on a set-typed receiver.
        if parts and parts[-1] == "pop" and not node.args \
                and isinstance(node.func, ast.Attribute) \
                and _is_set_expr(node.func.value, self._scopes[-1]):
            self.report(
                "SIM003", node, "set.pop() returns an arbitrary element",
                "pop from a deque/list or sort first",
            )

        # SIM005: hook call sites must sit under their enabled-guard.
        if self.in_src and not self.hook_impl:
            self._check_hook_site(node, parts)

        self.generic_visit(node)

    def _check_hook_site(self, node: ast.Call, parts: list[str]) -> None:
        if len(parts) < 2:
            return
        method = parts[-1]
        receiver = parts[:-1]
        # A push metric is reached through ``trace.scope(...)``.
        is_trace = "trace" in receiver and (
            method in ("emit", "new_span", "scope") or "scope" in receiver)
        is_fault = method.startswith("on_") and (
            "faults" in receiver or "injector" in receiver
        )
        is_monitor = (method.startswith("on_") or method == "register_qp") and (
            "_monitor" in receiver or receiver[-1] in ("mon", "monitor")
        )
        if not (is_trace or is_fault or is_monitor):
            return
        if is_monitor:
            if self._notnone_depth == 0 and node.lineno not in self._hook_lines:
                self._hook_lines.add(node.lineno)
                self.report(
                    "PROTO004", node,
                    f"monitor hook `{'.'.join(parts)}(...)` not dominated by "
                    "an `is None` guard branch",
                    "bind `mon = ...._monitor` and wrap the site in a single "
                    "`if mon is not None:` block (one branch when off)",
                )
            return
        guarded = self._notnone_depth if is_fault else self._enabled_depth
        if guarded == 0 and node.lineno not in self._hook_lines:
            self._hook_lines.add(node.lineno)
            kind = "trace" if is_trace else "fault"
            want = "is not None" if is_fault else ".enabled"
            self.report(
                "SIM005", node,
                f"{kind} hook `{'.'.join(parts)}(...)` not dominated by an "
                f"enabled-guard branch",
                f"wrap the site in a single `if <{kind}>{want}:` block",
            )

    def visit_If(self, node: ast.If) -> None:
        test_names = set(_names_in(node.test))
        enabled_guard = "enabled" in test_names
        notnone_guard = any(
            isinstance(s, ast.Constant) and s.value is None
            for s in ast.walk(node.test)
        ) or bool({"faults", "injector"} & test_names)
        self.visit(node.test)
        self._enabled_depth += enabled_guard
        self._notnone_depth += notnone_guard
        for stmt in node.body:
            self.visit(stmt)
        self._enabled_depth -= enabled_guard
        self._notnone_depth -= notnone_guard
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self._scopes[-1]):
            self.report(
                "SIM003", node, "iteration over a set is hash-order dependent",
                "iterate sorted(...) or keep a deque/list",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_inf_sentinel(node: ast.AST) -> bool:
        """``float("inf")`` / ``math.inf``: exact sentinel compares are safe."""
        if isinstance(node, ast.Call) and _dotted(node.func) == ["float"] and \
                node.args and isinstance(node.args[0], ast.Constant) and \
                node.args[0].value == "inf":
            return True
        return isinstance(node, ast.Attribute) and node.attr == "inf"

    def visit_Compare(self, node: ast.Compare) -> None:
        sides = (node.left, *node.comparators)
        if self.in_src and not self.is_psn_module \
                and any(isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE))
                        for op in node.ops) \
                and sum(1 for s in sides if self._is_psn_expr(s)) >= 2:
            self.report(
                "PROTO002", node,
                f"raw PSN ordering compare `{ast.unparse(node)}`",
                "24-bit serial order: use Psn.cmp(a, b) (half-window rule)",
            )
        if self.in_src and \
                any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and \
                not any(self._is_inf_sentinel(s) for s in sides):
            for side in sides:
                if self._is_timeish(side):
                    self.report(
                        "SIM004", node,
                        f"float ==/!= on simulated-time expression "
                        f"`{ast.unparse(side)}`",
                        "compare ordering, or pragma an intentional "
                        "same-instant check",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _is_timeish(node: ast.AST) -> bool:
        for name in _names_in(node):
            if name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES):
                return True
        return False

    # -- SIM006: __slots__ discipline ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.in_sim and self._needs_slots(node):
            self.report(
                "SIM006", node,
                f"sim class `{node.name}` has no __slots__",
                "declare __slots__ (instances are allocated on the hot path)",
            )
        self._class_stack.append(node)
        self._posting_stack.append(_posting_methods(node))
        self.generic_visit(node)
        self._posting_stack.pop()
        self._class_stack.pop()

    @staticmethod
    def _needs_slots(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if "dataclass" in _dotted(deco):
                return False  # dataclasses manage their own layout
        for base in node.bases:
            last = (_dotted(base) or [""])[-1]
            if last in ("Exception", "BaseException") or \
                    last.endswith(("Error", "Exception", "Warning")):
                return False
        if node.name.endswith(("Error", "Exception", "Warning")):
            return False
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return False
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == "__slots__":
                return False
        return True


# -- driver ---------------------------------------------------------------------


def lint_source(
    source: str, path: str = "<string>", rules: Optional[Sequence[str]] = None
) -> list[Finding]:
    """Lint one module's source text; returns suppression-filtered findings."""
    norm = path.replace("/", os.sep)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("SIM000", path, exc.lineno or 0,
                        f"syntax error: {exc.msg}")]
    visitor = _Visitor(path, norm)
    visitor.visit(tree)
    findings = visitor.findings

    pragmas = _parse_pragmas(source)
    for pragma in pragmas:
        if pragma.rule is None:
            findings.append(Finding(
                "SIM000", path, pragma.line,
                f"unknown sanitizer pragma `{pragma.name}`",
                "valid pragmas: " + ", ".join(sorted(PRAGMAS)),
            ))
            pragma.used = True  # don't double-report as unused
        elif not pragma.reason:
            findings.append(Finding(
                "SIM000", path, pragma.line,
                f"pragma `{pragma.name}` carries no reason",
                "write `# sim: " + pragma.name + "(why this is safe)`",
            ))
            pragma.used = True

    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for pragma in pragmas:
            if pragma.rule == finding.rule and pragma.reason and \
                    pragma.line in (finding.line, finding.line - 1):
                pragma.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)

    for pragma in pragmas:
        if not pragma.used:
            kept.append(Finding(
                "SIM000", path, pragma.line,
                f"pragma `{pragma.name}` suppresses nothing",
                "remove it (stale allowlist entries hide regressions)",
            ))

    if rules is not None:
        allowed = set(rules) | {"SIM000"}
        kept = [f for f in kept if f.rule in allowed]
    return kept


def _iter_py_files(roots: Sequence[str], excludes: Sequence[str]) -> Iterable[str]:
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(".py"):
                yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(ex in os.path.join(dirpath, d) for ex in excludes)
            )
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                if name.endswith(".py") and \
                        not any(ex in full for ex in excludes):
                    yield full


def run_lint(
    paths: Optional[Sequence[str]] = None,
    root: str = ".",
    rules: Optional[Sequence[str]] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> list[Finding]:
    """Lint ``paths`` (default: the standard roots under ``root``)."""
    if paths:
        roots = list(paths)
    else:
        roots = [os.path.join(root, r) for r in DEFAULT_ROOTS
                 if os.path.exists(os.path.join(root, r))]
    findings: list[Finding] = []
    for path in _iter_py_files(roots, excludes):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            findings.append(Finding("SIM000", path, 0, f"unreadable: {exc}"))
            continue
        findings.extend(lint_source(source, path, rules=rules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
