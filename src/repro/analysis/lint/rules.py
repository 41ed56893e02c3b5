"""The built-in rule catalogue (codes ``RPR001``..``RPR013``).

Each rule encodes one repo invariant:

========  ======================  ==================================================
code      name                    invariant
========  ======================  ==================================================
RPR001    frozen-view-write       no writes through ``.alive``/``.matrix`` outside a
                                  ``materialize_bool()`` bracket (or ``network.py``)
RPR002    materialize-repack      every ``materialize_bool()`` is paired with a
                                  ``repack()`` reached on *all* paths (``finally``),
                                  and vice versa
RPR003    inplace-on-shared       no in-place numpy mutation (``&=``, ``out=``,
                                  ``.fill``, item assignment) of arrays obtained
                                  from shared template accessors
RPR004    nested-lock             no lock acquired while holding another, unless the
                                  module declares the order in ``LOCK_ORDER``
RPR005    warn-stacklevel         ``warnings.warn`` must pass ``stacklevel``
RPR006    kernel-wallclock        no wall-clock reads inside ``parsec``/``mesh``/
                                  ``engines`` kernels (timing belongs to
                                  ``maspar.cost`` / ``parsec.timing`` / the session)
RPR007    engine-contract         engines registered in ``registry.py`` implement
                                  the compiled-artifact ``run`` entry point and
                                  carry a ``name``
RPR008    silent-except           no bare ``except:``; no ``except Exception``
                                  whose body silently swallows
RPR009    thaw-frozen             no ``setflags(write=True)`` on shared arrays
RPR010    write-through-attached  no writes through arrays attached from a
                                  ``SharedTemplateStore`` segment (taint from
                                  ``attach``/``attach_template`` results)
RPR011    extend-must-not-thaw    ``extend*`` methods grow new state from a frozen
                                  predecessor; no in-place writes to arrays
                                  reachable from the predecessor's parameters
RPR012    socket-lifecycle        sockets/servers opened in ``repro.cluster`` are
                                  closed via context manager, a reachable
                                  ``close``/``shutdown`` path, or lifecycle
                                  registration
RPR013    kernel-bit-arith        word-level bit arithmetic (``np.bitwise_and`` /
                                  ``or``/``xor``/``count``, ``packbits`` /
                                  ``unpackbits``) lives in ``repro/kernels/`` and
                                  ``repro/network/bitset.py``; everyone else calls
                                  the kernel API
========  ======================  ==================================================

The whole-project rules (RPR014 cross-module-lock-cycle, RPR015
blocking-in-async, RPR016 escaping-frozen-ref) live in
:mod:`repro.analysis.lint.rules_flow` — they run over the call-graph /
CFG layer in :mod:`repro.analysis.flow` rather than one module at a
time.  The taint rules below (RPR003/RPR010/RPR011) share that layer's
:mod:`~repro.analysis.flow.taint` engine, so every rule agrees on one
definition of "derived from".

Rules are registered by importing this module (the package ``__init__``
does so); fixture tests in ``tests/test_lint.py`` exercise each rule
with one triggering and one passing snippet.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.flow.taint import TaintSpec, iter_mutations, taint_names
from repro.analysis.lint.framework import (
    Finding,
    LintRule,
    Project,
    SourceModule,
    register_rule,
)

#: Accessors whose results are shared, frozen template state.
_SHARED_ACCESSORS = frozenset({"vector_masks", "unary_fields", "pair_fields"})
_SHARED_ATTRIBUTES = frozenset({"base_matrix", "base_bits"})

#: ndarray methods that mutate in place.
_INPLACE_METHODS = frozenset({"fill", "sort", "partition", "put", "resize", "setflags"})

#: Wall-clock callables banned inside kernels.
_WALLCLOCK_NAMES = frozenset(
    {"time", "perf_counter", "monotonic", "process_time", "thread_time"}
)


def _terminal_name(node: ast.AST) -> "str | None":
    """The rightmost identifier of a Name/Attribute chain, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function/class bodies."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _calls_of(nodes: Iterable[ast.AST], method: str) -> list[ast.Call]:
    return [
        node
        for node in nodes
        if isinstance(node, ast.Call) and _terminal_name(node.func) == method
    ]


@register_rule
class FrozenViewWrite(LintRule):
    """RPR001: the boolean ``alive``/``matrix`` views are frozen truth
    mirrors; writing through them is only legal inside a function (or a
    function nested in one) that establishes boolean mode with
    ``materialize_bool()`` — or inside ``network.py`` itself, which owns
    the representation."""

    code = "RPR001"
    name = "frozen-view-write"
    description = "write through .alive/.matrix outside a materialize_bool() bracket"

    _VIEWS = frozenset({"alive", "matrix"})

    def _is_view_attr(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self._VIEWS

    @staticmethod
    def _owner_classes(module: SourceModule) -> set[ast.ClassDef]:
        """Classes that define ``alive``/``matrix`` as their *own* plain
        attributes (``self.alive = ...`` in ``__init__``) — duck-typed
        stand-ins like SyntheticNetwork, not frozen-view holders."""
        owners = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next(
                (
                    n
                    for n in node.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            for stmt in ast.walk(init):
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Attribute)
                    and t.attr in ("alive", "matrix")
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in stmt.targets
                ):
                    owners.add(node)
                    break
        return owners

    @staticmethod
    def _root_name(node: ast.AST) -> "str | None":
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _write_targets(self, node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield node.target
        elif isinstance(node, ast.Delete):
            yield from node.targets

    def _bracketed(self, module: SourceModule, node: ast.AST) -> bool:
        for func in module.enclosing_functions(node):
            for inner in ast.walk(func):
                if (
                    isinstance(inner, ast.Call)
                    and _terminal_name(inner.func) == "materialize_bool"
                ):
                    return True
        return False

    def _owned(self, module: SourceModule, owners: set, hit: ast.AST) -> bool:
        """True when *hit* is a ``self.alive``/``self.matrix`` write inside
        a class that defines those as its own plain attributes."""
        target = hit.func.value if isinstance(hit, ast.Call) else hit
        if self._root_name(target) != "self":
            return False
        return any(
            ancestor in owners
            for ancestor in module.ancestors(hit)
            if isinstance(ancestor, ast.ClassDef)
        )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if module.located_in("network/network.py"):
            return
        owners = self._owner_classes(module)
        for node in ast.walk(module.tree):
            hits = []
            for target in self._write_targets(node):
                if self._is_view_attr(target):
                    hits.append(target)
                elif isinstance(target, ast.Subscript) and self._is_view_attr(
                    target.value
                ):
                    hits.append(target)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _INPLACE_METHODS
                and self._is_view_attr(node.func.value)
            ):
                hits.append(node)
            for hit in hits:
                if self._owned(module, owners, hit):
                    continue
                if not self._bracketed(module, hit):
                    yield self.finding(
                        module,
                        hit,
                        "write through the frozen '.alive'/'.matrix' boolean view "
                        "outside a materialize_bool() bracket; mutate the packed "
                        "arrays via the network's helpers, or call "
                        "materialize_bool() first and repack() after",
                    )


@register_rule
class MaterializeRepack(LintRule):
    """RPR002: ``materialize_bool()`` flips a network into byte-mutable
    boolean mode; leaving it there desynchronizes the packed truth for
    every later consumer.  A function that materializes must repack on
    all paths (a ``finally`` block), and a bare ``repack()`` with no
    visible ``materialize_bool()`` is the same bug mirrored."""

    code = "RPR002"
    name = "materialize-repack"
    description = "unbalanced materialize_bool()/repack() bracket"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if module.located_in("network/network.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(node))
            materializes = _calls_of(own, "materialize_bool")
            repacks = _calls_of(own, "repack")
            if materializes and not repacks:
                yield self.finding(
                    module,
                    materializes[0],
                    "materialize_bool() without a matching repack() in "
                    f"'{node.name}'; the network is left in boolean mode and its "
                    "packed arrays go stale",
                )
            elif materializes and repacks and not self._any_on_finally(module, repacks):
                yield self.finding(
                    module,
                    repacks[0],
                    f"repack() in '{node.name}' is skipped when the bracketed code "
                    "raises; move it into a try/finally so every path repacks",
                )
            elif repacks and not materializes:
                yield self.finding(
                    module,
                    repacks[0],
                    f"repack() without a visible materialize_bool() in '{node.name}'; "
                    "brackets must open and close in the same function",
                )

    @staticmethod
    def _any_on_finally(module: SourceModule, repacks: list[ast.Call]) -> bool:
        for call in repacks:
            child: ast.AST = call
            for ancestor in module.ancestors(call):
                if isinstance(ancestor, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                    if any(child is stmt or _contains(stmt, child) for stmt in ancestor.finalbody):
                        return True
                child = ancestor
        return False


def _contains(root: ast.AST, node: ast.AST) -> bool:
    return any(candidate is node for candidate in ast.walk(root))


@register_rule
class InplaceOnShared(LintRule):
    """RPR003: arrays handed out by ``vector_masks``/``unary_fields``/
    ``pair_fields``/``base_matrix`` are shared across
    every network of a shape; in-place numpy mutation of them corrupts
    later parses (the arrays are frozen, but ``out=`` and ufunc
    in-place paths can bypass a stale check)."""

    code = "RPR003"
    name = "inplace-on-shared"
    description = "in-place numpy mutation of a shared template accessor result"

    #: Shared taint engine configuration: accessor-call results and the
    #: base attributes are sources; mention-mode propagation with the
    #: parent-Attribute exclusion (``.nbytes``, ``.copy()`` yield fresh
    #: values, not the shared buffer).
    _SPEC = TaintSpec(
        source_calls=_SHARED_ACCESSORS, source_attrs=_SHARED_ATTRIBUTES
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        own = list(_own_nodes(func))
        tainted = taint_names(own, self._SPEC).names
        if not tainted:
            return
        # Shallow roots are this rule's historical contract: deep chains
        # through attached objects are RPR010's domain.
        for node, _kind in iter_mutations(own, tainted, deep_roots=False):
            yield self._report(module, node)

    def _report(self, module: SourceModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "in-place mutation of an array obtained from a shared template "
            "accessor (vector_masks/unary_fields/pair_fields/base_matrix); "
            "copy it first — these arrays are shared across every network "
            "of the shape",
        )


@register_rule
class NestedLock(LintRule):
    """RPR004: acquiring a lock while holding another deadlocks the first
    time two threads disagree on the order.  Nested acquisition is only
    legal when the module pins the order in a ``LOCK_ORDER`` tuple (the
    serve layer's documented discipline)."""

    code = "RPR004"
    name = "nested-lock"
    description = "nested lock acquisition without a declared LOCK_ORDER"

    _LOCKISH = ("lock", "guard", "mutex", "cond")

    def _lock_name(self, expr: ast.AST) -> "str | None":
        if isinstance(expr, ast.Call):
            terminal = _terminal_name(expr.func)
            if terminal == "acquire" and isinstance(expr.func, ast.Attribute):
                return _terminal_name(expr.func.value)
            return None
        terminal = _terminal_name(expr)
        if terminal is not None and any(
            piece in terminal.lower() for piece in self._LOCKISH
        ):
            return terminal
        return None

    def _declared_order(self, module: SourceModule) -> tuple[str, ...]:
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LOCK_ORDER" for t in node.targets
            ):
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    return tuple(
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
        return ()

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        order = self._declared_order(module)
        for node in ast.walk(module.tree):
            inner_name = None
            if isinstance(node, ast.With):
                for item in node.items:
                    inner_name = self._lock_name(item.context_expr)
                    if inner_name:
                        break
            elif isinstance(node, ast.Call):
                inner_name = self._lock_name(node)  # .acquire() form
            if inner_name is None:
                continue
            held = self._held_locks(module, node)
            for outer_name in held:
                if outer_name == inner_name:
                    continue
                if self._ordered(order, outer_name, inner_name):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"'{inner_name}' acquired while holding '{outer_name}' with no "
                    "LOCK_ORDER declaring that order; nested acquisition deadlocks "
                    "the first time two threads disagree",
                )

    def _held_locks(self, module: SourceModule, node: ast.AST) -> list[str]:
        held = []
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    name = self._lock_name(item.context_expr)
                    if name:
                        held.append(name)
        return held

    @staticmethod
    def _ordered(order: tuple[str, ...], outer: str, inner: str) -> bool:
        if outer in order and inner in order:
            return order.index(outer) < order.index(inner)
        return False


@register_rule
class WarnStacklevel(LintRule):
    """RPR005: a ``warnings.warn`` without ``stacklevel`` points the user
    at library internals instead of their own call site."""

    code = "RPR005"
    name = "warn-stacklevel"
    description = "warnings.warn without stacklevel"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        bare_warn_imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "warnings"
            and any(alias.name == "warn" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_warn = (
                isinstance(func, ast.Attribute)
                and func.attr == "warn"
                and isinstance(func.value, ast.Name)
                and func.value.id == "warnings"
            ) or (
                bare_warn_imported
                and isinstance(func, ast.Name)
                and func.id == "warn"
            )
            if is_warn and not any(k.arg == "stacklevel" for k in node.keywords):
                yield self.finding(
                    module,
                    node,
                    "warnings.warn without stacklevel=; the warning will point at "
                    "repro internals instead of the caller",
                )


@register_rule
class KernelWallclock(LintRule):
    """RPR006: kernels must stay deterministic and cost-modelled — timing
    belongs to ``maspar.cost``/``parsec.timing`` and the session layer,
    never inside ``parsec``/``mesh``/``engines`` code."""

    code = "RPR006"
    name = "kernel-wallclock"
    description = "wall-clock read inside a kernel module"

    _KERNEL_DIRS = ("/parsec/", "/mesh/", "/engines/")
    _EXEMPT = ("parsec/timing.py",)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        rel = "/" + module.rel
        if not any(piece in rel for piece in self._KERNEL_DIRS):
            return
        if module.located_in(*self._EXEMPT):
            return
        from_time_imports = {
            alias.asname or alias.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (
                    (func.value.id == "time" and func.attr in _WALLCLOCK_NAMES)
                    or (func.value.id == "datetime" and func.attr in ("now", "utcnow"))
                )
            ) or (isinstance(func, ast.Name) and func.id in from_time_imports)
            if flagged:
                yield self.finding(
                    module,
                    node,
                    "wall-clock read inside a kernel module; kernels are "
                    "deterministic and cost-modelled — record timing in the "
                    "session layer or the machine cost model",
                )


@register_rule
class EngineContract(LintRule):
    """RPR007: every engine the registry exposes must implement the
    compiled-artifact entry point — ``run(network, *, compiled=...,
    filter_limit=..., trace=...)`` — and carry a ``name`` attribute, or
    the session/serve layers break at dispatch time."""

    code = "RPR007"
    name = "engine-contract"
    description = "registered engine missing the compiled-artifact run() contract"

    _REQUIRED_KWARGS = ("compiled", "filter_limit", "trace")

    def check_project(self, project: Project) -> Iterable[Finding]:
        registry = project.find("engines/registry.py")
        if registry is None:
            return
        imports = self._class_modules(registry)
        for node, class_name in self._registered_classes(registry):
            module_path = imports.get(class_name)
            target = project.find(module_path) if module_path else None
            if target is None:
                continue  # registered from outside the linted tree
            class_def = next(
                (
                    n
                    for n in ast.walk(target.tree)
                    if isinstance(n, ast.ClassDef) and n.name == class_name
                ),
                None,
            )
            if class_def is None:
                continue
            yield from self._check_class(registry, node, target, class_def)

    def _check_class(
        self,
        registry: SourceModule,
        registration: ast.AST,
        target: SourceModule,
        class_def: ast.ClassDef,
    ) -> Iterator[Finding]:
        run = next(
            (
                n
                for n in class_def.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name == "run"
            ),
            None,
        )
        has_name = any(
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "name" for t in stmt.targets)
            for stmt in class_def.body
        )
        problems = []
        if run is None:
            problems.append("no run() method")
        else:
            kwonly = {arg.arg for arg in run.args.kwonlyargs}
            missing = [k for k in self._REQUIRED_KWARGS if k not in kwonly]
            if missing:
                problems.append(
                    f"run() missing keyword-only parameter(s) {', '.join(missing)}"
                )
        if not has_name:
            problems.append("no class-level 'name' attribute")
        if problems:
            yield self.finding(
                target,
                class_def,
                f"engine '{class_def.name}' is registered in "
                f"{registry.rel} but does not satisfy the compiled-artifact "
                f"contract: {'; '.join(problems)}",
            )

    @staticmethod
    def _class_modules(registry: SourceModule) -> dict[str, str]:
        """class name -> module path suffix, from the registry's imports."""
        out = {}
        for node in ast.walk(registry.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                suffix = node.module.replace(".", "/") + ".py"
                for alias in node.names:
                    out[alias.asname or alias.name] = suffix
        return out

    @staticmethod
    def _registered_classes(
        registry: SourceModule,
    ) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(registry.tree):
            if not isinstance(node, ast.Call):
                continue
            terminal = _terminal_name(node.func)
            if terminal not in ("register_engine", "setdefault") or len(node.args) != 2:
                continue
            factory = node.args[1]
            if isinstance(factory, ast.Name):
                yield node, factory.id
            elif isinstance(factory, ast.Lambda):
                for inner in ast.walk(factory.body):
                    if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name):
                        yield node, inner.func.id
                        break


@register_rule
class SilentExcept(LintRule):
    """RPR008: a bare ``except:`` (or a broad handler that just passes)
    hides real failures — the serve layer's conservation laws and the
    engines' bit-identity both depend on errors surfacing."""

    code = "RPR008"
    name = "silent-except"
    description = "bare or silently-swallowing broad except"

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, node: "ast.expr | None") -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        return _terminal_name(node) in self._BROAD

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions this handler is for",
                )
            elif self._is_broad(node.type) and self._is_silent(node.body):
                yield self.finding(
                    module,
                    node,
                    "broad except silently swallows the error; handle it, log it, "
                    "or narrow the exception type",
                )


@register_rule
class ThawFrozen(LintRule):
    """RPR009: shared arrays are frozen exactly once, by their owner;
    ``setflags(write=True)`` anywhere else re-opens the shared-mutation
    hole the freeze exists to close."""

    code = "RPR009"
    name = "thaw-frozen"
    description = "setflags(write=True) outside the owning module"

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "setflags"
            ):
                continue
            thaws = any(
                keyword.arg == "write"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            ) or (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is True
            )
            if thaws:
                yield self.finding(
                    module,
                    node,
                    "setflags(write=True) re-thaws a frozen shared array; copy it "
                    "instead of unfreezing the shared instance",
                )


@register_rule
class WriteThroughAttached(LintRule):
    """RPR010: arrays attached from a ``SharedTemplateStore`` segment map
    the owner's memory directly into this process — a write through them
    corrupts the template for *every* attached worker at once, not just
    the writer.  Attached state is read-only by contract: taint flows
    from ``attach()``/``attach_template()`` results, and any write whose
    target roots in a tainted name (item assignment, ``&=``, in-place
    ndarray methods, ``out=``) is flagged.  Copy before mutating."""

    code = "RPR010"
    name = "write-through-attached"
    description = "write through an array attached from SharedTemplateStore"

    #: Same mention-mode engine as RPR003, sourced at attach results.
    _SPEC = TaintSpec(source_calls=frozenset({"attach", "attach_template"}))

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        own = list(_own_nodes(func))
        tainted = taint_names(own, self._SPEC).names
        if not tainted:
            return
        # Deep roots: ``entry[0].base_bits[i] = x`` roots in ``entry`` —
        # the write lands in the attached segment no matter how deep the
        # chain — and a plain attribute store through an attached object
        # also lands in the mapped segment (attr_targets).
        for node, _kind in iter_mutations(
            own, tainted, deep_roots=True, attr_targets=True
        ):
            yield self._report(module, node)

    def _report(self, module: SourceModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "write through an array attached from a SharedTemplateStore "
            "segment; attached template state is shared read-only across "
            "every worker process — copy it before mutating",
        )


@register_rule
class ExtendMustNotThaw(LintRule):
    """RPR011: the streaming core's contract is that ``extend*`` methods
    grow *new* state from a frozen predecessor — ``NetworkTemplate.extend``
    builds the one-word-longer template from the prefix's shape, and
    carries no arrays across since masks became unary-first — and the
    predecessor stays bit-identical throughout (the prefix template
    stays cached for every other holder).  Any in-place write to an
    array reachable from an ``extend*`` function's parameters (item
    assignment, ``&=``, in-place ndarray methods, ``out=``) thaws that
    frozen input and silently corrupts every other holder of it.

    Taint starts at the parameters and flows only through plain alias
    chains (``bits = prev.alive_bits``) and view-preserving calls
    (``.view``, ``asarray``); a constructor or factory call result
    (``template.bind(...)``, ``np.zeros(...)``) is fresh state and is
    free to mutate.  Plain attribute rebinding (``new.masks = ...``) is
    likewise allowed — building the successor is the whole point."""

    code = "RPR011"
    name = "extend-must-not-thaw"
    description = "in-place write to a predecessor's arrays inside an extend* method"

    #: Alias-mode engine: parameters seed the taint, and unlike RPR003/
    #: RPR010 it does *not* flow through general call results —
    #: ``network = template.bind(sent)`` binds fresh state a grower may
    #: mutate.  Only bare alias chains and the view-preserving numpy
    #: calls keep taint, and a name rebound to fresh state sheds it
    #: (parameters shadowed by e.g. ``prev = None``).
    _SPEC = TaintSpec(
        seed_params=True, mode="alias", shed_on_rebind=True, loop_targets=False
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.lstrip("_").startswith("extend"):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: SourceModule, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        own = list(_own_nodes(func))
        tainted = taint_names(own, self._SPEC, func=func).names
        for node, _kind in iter_mutations(own, tainted, deep_roots=True):
            yield self._report(module, node, func.name)

    def _report(self, module: SourceModule, node: ast.AST, func_name: str) -> Finding:
        return self.finding(
            module,
            node,
            f"in-place write to an array reachable from '{func_name}'s parameters; "
            "extend* grows new state from a frozen predecessor — scatter into a "
            "fresh array (np.zeros + fancy-index assignment) instead of thawing "
            "the input",
        )


@register_rule
class SocketLifecycle(LintRule):
    """RPR012: the cluster layer is the only place the repo opens real
    sockets, and every one of them must have a close path that survives
    review: a socket that leaks keeps its port, its FD, and (server
    side) its accept loop alive past the lifecycle that owned it.  An
    opener call (``socket(...)``, ``create_connection``,
    ``create_server``, ``start_server``, ``open_connection``) passes
    only when it is (a) a ``with``/``async with`` context item, (b)
    bound to names on which a ``close``/``wait_closed``/``shutdown``/
    ``abort`` call appears in the same function, (c) bound to a
    ``self.<attr>`` that some method of the same class closes, or (d)
    handed to a lifecycle registrar (a call whose name contains
    ``register`` or ``track``) — either the call's result directly or
    the names it was unpacked into.  Anything else is a leak."""

    code = "RPR012"
    name = "socket-lifecycle"
    description = "socket/server opened in repro.cluster without a close path"

    _OPENERS = frozenset(
        {"socket", "create_connection", "create_server", "start_server",
         "open_connection"}
    )
    _CLOSERS = frozenset({"close", "wait_closed", "shutdown", "abort"})

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if "cluster/" not in module.rel:
            return
        yield from self._visit(module, module.tree, None)

    def _visit(
        self, module: SourceModule, node: ast.AST, cls: "ast.ClassDef | None"
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._visit(module, child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, child, cls)
                yield from self._visit(module, child, cls)
            else:
                yield from self._visit(module, child, cls)

    def _opener_calls(self, expr: ast.AST) -> "list[ast.Call]":
        return [
            node
            for node in ast.walk(expr)
            if isinstance(node, ast.Call)
            and _terminal_name(node.func) in self._OPENERS
        ]

    def _check_function(
        self, module: SourceModule, func: ast.AST, cls: "ast.ClassDef | None"
    ) -> Iterator[Finding]:
        own = list(_own_nodes(func))
        handled: "set[ast.Call]" = set()

        # (a) context-managed openers close themselves.
        for node in own:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    handled.update(self._opener_calls(item.context_expr))

        # (b)/(c)/(d) assigned openers need a reachable close path.
        for node in own:
            if not isinstance(node, ast.Assign):
                continue
            calls = [c for c in self._opener_calls(node.value) if c not in handled]
            if not calls:
                continue
            handled.update(calls)
            names: "set[str]" = set()
            self_attrs: "set[str]" = set()
            for target in node.targets:
                for leaf in self._leaf_targets(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
                    elif (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        self_attrs.add(leaf.attr)
            ok = bool(names) and self._names_closed_or_registered(own, names)
            if not ok and self_attrs and cls is not None:
                ok = self._attrs_closed_in_class(cls, self_attrs)
            if not ok:
                for call in calls:
                    yield self._report(module, call)

        # Bare openers: allowed only when fed straight to a registrar.
        parents: "dict[ast.AST, ast.AST]" = {}
        for parent in ast.walk(func):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in own:
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) in self._OPENERS
                and node not in handled
            ):
                if not self._inside_registrar(node, parents):
                    yield self._report(module, node)

    def _report(self, module: SourceModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "socket/server opened without a close path: use a context "
            "manager, call close()/shutdown() on it in this function, "
            "close the self-attribute elsewhere in the class, or hand it "
            "to a lifecycle registrar",
        )

    def _leaf_targets(self, target: ast.AST) -> Iterator[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._leaf_targets(element)
        elif isinstance(target, ast.Starred):
            yield from self._leaf_targets(target.value)
        else:
            yield target

    def _names_closed_or_registered(
        self, own: "list[ast.AST]", names: "set[str]"
    ) -> bool:
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._CLOSERS
            ):
                root = node.func.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in names:
                    return True
            terminal = _terminal_name(node.func)
            if terminal and ("register" in terminal or "track" in terminal):
                arguments = list(node.args) + [kw.value for kw in node.keywords]
                for argument in arguments:
                    for sub in ast.walk(argument):
                        if isinstance(sub, ast.Name) and sub.id in names:
                            return True
        return False

    def _attrs_closed_in_class(
        self, cls: ast.ClassDef, attrs: "set[str]"
    ) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._CLOSERS
            ):
                target = node.func.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in attrs
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
        return False

    def _inside_registrar(
        self, node: ast.AST, parents: "dict[ast.AST, ast.AST]"
    ) -> bool:
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.Call):
                terminal = _terminal_name(current.func)
                if terminal and ("register" in terminal or "track" in terminal):
                    return True
            current = parents.get(current)
        return False


@register_rule
class KernelBitArith(LintRule):
    """RPR013: word-level bit arithmetic stays inside the kernel core.

    The packed execution core owns one copy of every bitwise primitive
    (``repro.kernels``), and the layout layer
    (``repro/network/bitset.py``) is the only other module allowed to
    touch numpy's bit machinery directly.  A ``np.bitwise_and`` or
    ``np.packbits`` anywhere else is a second, unreviewed kernel: it
    will drift from the canonical one (padding invariants, endianness,
    delta counting) exactly the way the pre-1.8 CYK did.  Call the
    kernel API instead.
    """

    code = "RPR013"
    name = "kernel-bit-arith"
    description = "word-level bit arithmetic outside the kernel core"

    _BANNED = frozenset(
        {
            "bitwise_and",
            "bitwise_or",
            "bitwise_xor",
            "bitwise_count",
            "packbits",
            "unpackbits",
        }
    )
    _ALLOWED_DIRS = ("/kernels/",)
    _ALLOWED_FILES = ("network/bitset.py",)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        rel = "/" + module.rel
        if any(piece in rel for piece in self._ALLOWED_DIRS):
            return
        if module.located_in(*self._ALLOWED_FILES):
            return
        from_numpy_imports = {
            alias.asname or alias.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy"
            for alias in node.names
            if alias.name in self._BANNED
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            used = self._banned_numpy_call(node.func, from_numpy_imports)
            if used:
                yield self.finding(
                    module,
                    node,
                    f"np.{used} outside repro/kernels/ (or the bitset layout "
                    f"layer); word-level bit arithmetic goes through the "
                    f"kernel API (repro.kernels.bitops / the kernel backend)",
                )

    def _banned_numpy_call(
        self, func: ast.AST, from_numpy_imports: "set[str]"
    ) -> "str | None":
        """The banned ufunc a call resolves to, walking np.X(.at/.reduceat)."""
        if isinstance(func, ast.Name) and func.id in from_numpy_imports:
            return func.id
        chain: list[str] = []
        current = func
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name) and current.id in ("np", "numpy"):
            for attr in chain:
                if attr in self._BANNED:
                    return attr
        return None
