"""Every ``src/`` name is on a path the system uses, or it is allow-listed.

A stdlib-``ast`` reachability check over ``src/repro``. The roots are
what a user or the benchmark can run: ``repro.cli.main`` and every
``_cmd_*``, the public methods of ``repro.api.BossSession``, the
``@figure`` methods behind ``repro.experiments.FIGURES`` (and the
codecs ``@DEFAULT_REGISTRY.register`` files by name), the module-level
code of every ``src/`` module, and every name that
``benchmarks/harness/**`` and ``examples/*.py`` reference.

A definition is reached when its name occurs in reached code as a
``Name``, an ``Attribute``, an import alias or an identifier-shaped
string constant. The match is by name alone, so it over-approximates on
purpose: dynamic dispatch (``getattr``, ``emit``, overrides) can make a
dead name look live, never a live name look dead. A method is reached
when its class is and its name is (dunder methods with their class).

Reported: every module-level function, class and method not reached,
and every field of a ``*Config`` dataclass that ``src/`` never reads:
not as ``<receiver>.field`` for any name that holds a config (see
:func:`_config_receivers`), nor as ``self.field`` in the class's own
methods other than ``__post_init__`` (a value that is only validated is
never used).

Reported too: every defaulted parameter (positional-or-keyword or
keyword-only) of a reached function or method that no call in ``src/``,
``benchmarks/harness/**`` or ``examples/*.py`` binds. A call binds a
parameter when the callee's last name matches — for ``__init__``, the
class or any subclass that inherits it; ``super().__init__`` resolves
to the enclosing class's bases and ``functools.partial(f, ...)`` calls
``f`` — and it passes the parameter by keyword, a positional argument
at or past its index, ``*args`` or ``**kwargs``. Forwarding is not
setting: a value that is a bare name of the calling function's own
defaulted parameter binds only once that parameter is bound.

``reachability_allow.txt`` holds the reports that stay, one
``path::qualname — reason`` or ``path::qualname(param=) — reason`` a
line; the test fails on a report missing from it and on an entry that
is now reached, bound or gone.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set

REPO = Path(__file__).resolve().parent.parent
ALLOW_LIST = Path(__file__).with_name("reachability_allow.txt")


def identifiers(node: ast.AST) -> Iterator[str]:
    """Every name ``node`` mentions: names, attributes, import aliases
    and identifier-shaped strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


class Definition:
    """One module-level function or class, or one method."""

    def __init__(self, path: str, node: ast.AST,
                 owner: Optional["Definition"] = None) -> None:
        self.path = path
        self.node = node
        self.name = node.name
        self.owner = owner
        self.methods: List[Definition] = []

    @property
    def qualname(self) -> str:
        if self.owner is None:
            return self.name
        return f"{self.owner.name}.{self.name}"

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def is_dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")

    def code(self) -> Iterator[ast.AST]:
        """What runs once this definition is reached: a function whole;
        a class's decorators, bases and body minus its methods."""
        if not isinstance(self.node, ast.ClassDef):
            yield self.node
            return
        yield from self.node.decorator_list
        yield from self.node.bases
        yield from self.node.keywords
        for statement in self.node.body:
            if not isinstance(statement, _FUNCTIONS):
                yield statement


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _module_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, looking into ``if`` / ``try`` blocks."""
    for statement in body:
        if isinstance(statement, ast.If):
            yield from _module_statements(statement.body)
            yield from _module_statements(statement.orelse)
        elif isinstance(statement, ast.Try):
            for block in (statement.body, statement.orelse,
                          statement.finalbody):
                yield from _module_statements(block)
            for handler in statement.handlers:
                yield from _module_statements(handler.body)
        else:
            yield statement


def _is_module_code(statement: ast.stmt) -> bool:
    """Module-level code that uses names: not a definition, not an
    import (a binding, not a use) and not ``__all__``."""
    if isinstance(statement, _DEFINITIONS + (ast.Import, ast.ImportFrom)):
        return False
    if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            return False
    return True


def _registers(decorator: ast.expr) -> bool:
    """``@figure(...)`` and ``@<registry>.register`` keep the definition
    and dispatch to it by key."""
    if isinstance(decorator, ast.Call):
        return (isinstance(decorator.func, ast.Name)
                and decorator.func.id == "figure")
    return (isinstance(decorator, ast.Attribute)
            and decorator.attr == "register")


def _is_root(definition: Definition, module: str) -> bool:
    name = definition.name
    if any(_registers(d) for d in definition.node.decorator_list):
        return True
    if definition.owner is None:
        return module.endswith("repro/cli.py") and (
            name == "main" or name.startswith("_cmd_"))
    return (module.endswith("repro/api.py")
            and definition.owner.name == "BossSession"
            and not name.startswith("_"))


def _last_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names_config(annotation: ast.AST) -> bool:
    return any(name.endswith("Config") for name in identifiers(annotation))


def _config_receivers(trees: Dict[str, ast.Module]) -> Set[str]:
    """Names that hold a ``*Config``: parameters and functions annotated
    with one, and what is assigned a ``*Config(...)`` call or another
    such name (``self._config = XConfig() if c is None else c``)."""
    receivers: Set[str] = set()
    assignments: List[ast.Assign] = []
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.arg) and sub.annotation is not None:
                if _names_config(sub.annotation):
                    receivers.add(sub.arg)
            elif isinstance(sub, _FUNCTIONS) and sub.returns is not None:
                if _names_config(sub.returns):
                    receivers.add(sub.name)
            elif isinstance(sub, ast.Assign):
                assignments.append(sub)

    def holds_config(value: ast.AST) -> bool:
        if isinstance(value, ast.IfExp):
            return holds_config(value.body) or holds_config(value.orelse)
        if isinstance(value, ast.BoolOp):
            return any(holds_config(v) for v in value.values)
        if isinstance(value, ast.Call):
            return (_last_name(value.func) or "").endswith("Config")
        return _last_name(value) in receivers

    grew = True
    while grew:
        grew = False
        for assignment in assignments:
            if not holds_config(assignment.value):
                continue
            for target in assignment.targets:
                name = _last_name(target)
                if name is not None and name not in receivers:
                    receivers.add(name)
                    grew = True
    return receivers


def _config_reads(trees: Dict[str, ast.Module]) -> Dict[str, Set[str]]:
    """Field names loaded through a config-holding receiver anywhere,
    and per ``*Config`` class the ``self.<field>`` loads in its methods."""
    receivers = _config_receivers(trees)
    reads: Dict[str, Set[str]] = {"": set()}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Load)
                    and _last_name(sub.value) in receivers):
                reads[""].add(sub.attr)
            if (isinstance(sub, ast.ClassDef)
                    and sub.name.endswith("Config")):
                own = reads.setdefault(sub.name, set())
                for method in sub.body:
                    if (not isinstance(method, _FUNCTIONS)
                            or method.name == "__post_init__"):
                        continue
                    own.update(
                        a.attr for a in ast.walk(method)
                        if isinstance(a, ast.Attribute)
                        and isinstance(a.ctx, ast.Load)
                        and isinstance(a.value, ast.Name)
                        and a.value.id == "self")
    return reads


def _defaulted(definition: Definition) -> Dict[str, Optional[int]]:
    """Each parameter with a default, by name, mapped to the index a
    call's positional argument binds it at (``None``: keyword-only)."""
    args = definition.node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    drop = 0
    if definition.owner is not None and not any(
            _last_name(d) == "staticmethod"
            for d in definition.node.decorator_list):
        drop = 1
    found: Dict[str, Optional[int]] = {
        arg.arg: index - drop
        for index, arg in enumerate(positional)
        if index >= max(first, len(args.posonlyargs))
    }
    found.update((arg.arg, None) for arg, default
                 in zip(args.kwonlyargs, args.kw_defaults)
                 if default is not None)
    return found


def _init_targets(definitions: List[Definition]) -> Dict[str, List[Definition]]:
    """Class name → the ``__init__`` a call of that name runs: its own,
    or the first one up its ``src/`` bases."""
    classes: Dict[str, List[Definition]] = {}
    for definition in definitions:
        if isinstance(definition.node, ast.ClassDef):
            classes.setdefault(definition.name, []).append(definition)

    def effective(cls: Definition, seen: Set[str]) -> List[Definition]:
        for method in cls.methods:
            if method.name == "__init__":
                return [method]
        for base in cls.node.bases:
            name = _last_name(base)
            if name is None or name in seen:
                continue
            for parent in classes.get(name, ()):
                found = effective(parent, seen | {name})
                if found:
                    return found
        return []

    return {name: [init for cls in group for init in effective(cls, {name})]
            for name, group in classes.items()}


def _calls(tree: ast.AST, inits: Dict[str, List[Definition]],
           functions: Dict[str, List[Definition]]) -> Iterator[tuple]:
    """``(call, callees, enclosing function)`` for every call in
    ``tree``; ``functools.partial(f, ...)`` is a call of ``f`` and
    ``super().__init__(...)`` one of the enclosing class's bases."""

    def visit(node: ast.AST, cls: Optional[ast.ClassDef],
              function: Optional[ast.AST]) -> Iterator[tuple]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child, function)
                continue
            if isinstance(child, _FUNCTIONS):
                yield from visit(child, cls, function or child)
                continue
            if isinstance(child, ast.Call):
                call, callee = child, child.func
                if (_last_name(callee) == "partial" and child.args
                        and not isinstance(child.args[0], ast.Starred)):
                    callee = child.args[0]
                    call = ast.Call(func=callee, args=child.args[1:],
                                    keywords=child.keywords)
                if (isinstance(callee, ast.Attribute)
                        and callee.attr == "__init__"
                        and isinstance(callee.value, ast.Call)
                        and _last_name(callee.value.func) == "super"):
                    bases = cls.bases if cls else []
                    targets = [init for base in bases
                               for init in inits.get(_last_name(base), ())]
                else:
                    name = _last_name(callee)
                    targets = (functions.get(name, []) + inits.get(name, [])
                               if name else [])
                if targets:
                    yield call, targets, function
            yield from visit(child, cls, function)

    yield from visit(tree, None, None)


def _parameter_reports(definitions: List[Definition],
                       trees: Dict[str, ast.Module],
                       external: List[ast.Module]) -> List[str]:
    """Every defaulted parameter no call outside ``tests/`` binds.

    A value that is a bare name of the calling function's own defaulted
    parameter forwards it: that binding counts once the caller's
    parameter is itself bound (least fixpoint)."""
    functions: Dict[str, List[Definition]] = {}
    owned: Dict[ast.AST, Definition] = {}
    for definition in definitions:
        for entry in [definition] + definition.methods:
            if isinstance(entry.node, _FUNCTIONS):
                owned[entry.node] = entry
                if entry.name != "__init__":
                    functions.setdefault(entry.name, []).append(entry)
    inits = _init_targets(definitions)
    defaults = {entry: _defaulted(entry) for entry in owned.values()}

    bound: Set[tuple] = set()
    forwarded: List[tuple] = []
    sources = [(tree, True) for tree in trees.values()]
    sources += [(tree, False) for tree in external]
    for tree, internal in sources:
        for call, targets, function in _calls(tree, inits, functions):
            caller = owned.get(function) if internal else None
            given = {k.arg: k.value for k in call.keywords}
            starred = [i for i, a in enumerate(call.args)
                       if isinstance(a, ast.Starred)]
            for target in targets:
                for name, index in defaults[target].items():
                    if None in given or (
                            index is not None and starred
                            and starred[0] <= index):
                        bound.add((target, name))
                        continue
                    value = given.get(name)
                    if value is None and index is not None and (
                            index < len(call.args)):
                        value = call.args[index]
                    if value is None:
                        continue
                    if (caller is not None and isinstance(value, ast.Name)
                            and value.id in defaults[caller]):
                        forwarded.append(((caller, value.id),
                                          (target, name)))
                    else:
                        bound.add((target, name))
    grew = True
    while grew:
        grew = False
        for source, target in forwarded:
            if source in bound and target not in bound:
                bound.add(target)
                grew = True
    return [f"{entry.key}({name}=)"
            for entry, names in defaults.items() for name in names
            if (entry, name) not in bound]


def report(modules: Dict[str, str], external: Iterable[str]) -> List[str]:
    """Unreached definitions, unread ``*Config`` fields and defaulted
    parameters that no call outside ``tests/`` binds.

    ``modules`` maps a display path to the source of one ``src/``
    module; ``external`` holds the sources whose every name is a root.
    """
    trees = {path: ast.parse(source) for path, source in modules.items()}
    external_trees = [ast.parse(source) for source in external]
    definitions: List[Definition] = []
    by_name: Dict[str, List[Definition]] = {}
    names: Set[str] = set()
    pending: deque = deque()
    reached: Set[Definition] = set()

    def mention(nodes: Iterable[ast.AST]) -> None:
        for node in nodes:
            for name in identifiers(node):
                if name not in names:
                    names.add(name)
                    pending.append(name)

    def reach(definition: Definition) -> None:
        if definition in reached:
            return
        reached.add(definition)
        mention(definition.code())
        for method in definition.methods:
            if method.is_dunder or method.name in names:
                reach(method)

    roots: List[Definition] = []
    for path, tree in trees.items():
        for statement in _module_statements(tree.body):
            if not isinstance(statement, _DEFINITIONS):
                if _is_module_code(statement):
                    mention([statement])
                continue
            definition = Definition(path, statement)
            definitions.append(definition)
            if isinstance(statement, ast.ClassDef):
                for child in statement.body:
                    if isinstance(child, _DEFINITIONS):
                        definition.methods.append(
                            Definition(path, child, definition))
            for entry in [definition] + definition.methods:
                by_name.setdefault(entry.name, []).append(entry)
                if _is_root(entry, path):
                    roots.append(entry)
    for tree in external_trees:
        mention([tree])
    for root in roots:
        if root.owner is not None:
            reach(root.owner)
        reach(root)
    while pending:
        for definition in by_name.get(pending.popleft(), ()):
            if definition.owner is None or definition.owner in reached:
                reach(definition)

    found = []
    for definition in definitions:
        if definition not in reached:
            found.append(definition.key)
            continue
        found.extend(method.key for method in definition.methods
                     if method not in reached)
    live = [d for d in definitions if d in reached]
    for definition in live:
        definition.methods = [m for m in definition.methods if m in reached]
    found.extend(_parameter_reports(live, trees, external_trees))
    reads = _config_reads(trees)
    for path, tree in trees.items():
        for node in _module_statements(tree.body):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                found.extend(
                    f"{path}::{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                    and field.target.id not in reads[""] | reads[node.name])
    return sorted(found)


def repository_report() -> List[str]:
    modules = {
        path.relative_to(REPO).as_posix(): path.read_text()
        for path in sorted((REPO / "src").rglob("*.py"))
    }
    external = [
        path.read_text()
        for pattern in ("benchmarks/harness/**/*.py", "examples/*.py")
        for path in sorted(REPO.glob(pattern))
    ]
    return report(modules, external)


def allow_list() -> Dict[str, str]:
    entries = {}
    for number, line in enumerate(ALLOW_LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, reason = line.partition(" — ")
        assert sep and reason.strip(), (
            f"{ALLOW_LIST.name}:{number}: expected 'path::qualname — reason'"
        )
        entries[key.strip()] = reason.strip()
    return entries


def test_every_src_name_is_reached_or_allow_listed():
    found = set(repository_report())
    allowed = allow_list()
    unlisted = sorted(found - set(allowed))
    stale = sorted(set(allowed) - found)
    assert not unlisted, (
        "reachable or set only from tests (delete, or allow-list with a "
        "reason):\n"
        + "\n".join(unlisted)
    )
    assert not stale, (
        "allow-listed but now reached or gone (drop the line):\n"
        + "\n".join(stale)
    )


SCRATCH = '''
def unused():
    return 1

def used():
    return 2

def dispatch(obj):
    return getattr(obj, "used")()
'''


def test_an_unreferenced_function_is_reported():
    assert "scratch.py::unused" in report(
        {"scratch.py": SCRATCH}, ["from scratch import dispatch"])


def test_a_name_used_only_through_getattr_is_not_reported():
    assert report({"scratch.py": SCRATCH},
                  ["from scratch import dispatch"]) == ["scratch.py::unused"]


PARAMETERS = '''
def unset(a, flag=False):
    return a, flag

def outer(x, width=4):
    return inner(x, size=width)

def inner(x, size=8):
    return x * size

def spread(x, scale=1.0):
    return x * scale

class Base:
    def __init__(self, depth=2):
        self.depth = depth

class Child(Base):
    pass

def main(options):
    unset(1)
    outer(2)
    spread(3, **options)
    return Child(depth=5)
'''


def _scratch_parameters():
    return [line for line in report({"scratch.py": PARAMETERS},
                                    ["from scratch import main"])
            if line.endswith("=)")]


def test_an_unset_defaulted_parameter_is_reported():
    assert "scratch.py::unset(flag=)" in _scratch_parameters()


def test_forwarding_an_unset_parameter_sets_nothing():
    found = _scratch_parameters()
    assert "scratch.py::outer(width=)" in found
    assert "scratch.py::inner(size=)" in found


def test_a_parameter_bound_through_kwargs_is_not_reported():
    assert "scratch.py::spread(scale=)" not in _scratch_parameters()


def test_an_inherited_init_bound_through_a_subclass_is_not_reported():
    assert _scratch_parameters() == [
        "scratch.py::inner(size=)", "scratch.py::outer(width=)",
        "scratch.py::unset(flag=)"]
