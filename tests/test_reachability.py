"""Every ``src/`` name is on a path the system uses, or it is allow-listed.

A stdlib-``ast`` reachability check over ``src/repro``. The roots are
what a user or the benchmark can run: ``repro.cli.main`` and every
``_cmd_*``, the public methods of ``repro.api.BossSession``, the
``@figure`` methods behind ``repro.experiments.FIGURES`` (and the
codecs ``@DEFAULT_REGISTRY.register`` files by name), the module-level
code of every ``src/`` module, and every name that
``benchmarks/harness/**`` references. ``examples/*.py`` are not roots:
an example shows what the system reaches, so the only allow-listed
definitions it may name are the "Pending ROADMAP item 8" group.

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
never used). Every other frozen dataclass's field is reported when no
``src/`` or ``benchmarks/harness/**`` code loads an attribute of its
name outside a ``__post_init__``.

Reported too: every module-level assignment whose name no ``src/`` code
outside that statement and no ``benchmarks/harness/**`` code names;
imports and ``__all__`` name nothing.

And every defaulted parameter (positional-or-keyword or keyword-only)
of a reached function or method that no call in ``src/`` or
``benchmarks/harness/**`` binds. A frozen dataclass without its own
``__init__`` has the one ``@dataclass`` generates: its fields in order,
base-dataclass fields first, less ``ClassVar`` and ``field(init=False)``
ones (mutable dataclasses are records and accumulators and have none).
A call binds a parameter when the callee's last name matches — for
``__init__``, the class or any subclass that inherits it (an inherited
dataclass field is the declaring base's); ``super().__init__`` resolves
to the enclosing class's bases, ``functools.partial(f, ...)`` calls
``f`` and ``dataclasses.replace(obj, f=...)`` calls every frozen
dataclass with a field ``f`` (``obj``'s class alone when ``obj`` is a
constructor call) — and it passes the parameter by keyword, a
positional argument at or past its index, ``*args`` or ``**kwargs``.
Forwarding is not setting; a relay binds only once what it forwards is
bound:

(a) a call passing the caller's own ``*args`` / ``**kwargs`` forwards
    them item by item: ``p`` is bound once some call binds the
    caller's ``**kwargs`` with key ``p`` (any other ``**mapping`` still
    binds everything);
(b) a value that is a bare name of any of the caller's parameters —
    required and keyword-only ones too — forwards it; a required
    parameter is bound once some call passes it a bound value;
(c) a call inside a definition this check reports as unreached binds
    nothing;
(d) an argument spelled as the parameter's default binds nothing.

``reachability_allow.txt`` holds the reports that stay, one
``path::qualname — reason`` or ``path::qualname(param=) — reason`` a
line; the test fails on a report missing from it and on an entry that
is now reached, bound or gone.
"""

from __future__ import annotations

import ast
from collections import Counter, deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set

REPO = Path(__file__).resolve().parent.parent
ALLOW_LIST = Path(__file__).with_name("reachability_allow.txt")


def _names_of(sub: ast.AST) -> Iterator[str]:
    """The name one node holds, if any."""
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


def identifiers(node: ast.AST) -> Iterator[str]:
    """Every name ``node`` mentions: names, attributes, import aliases
    and identifier-shaped strings."""
    for sub in ast.walk(node):
        yield from _names_of(sub)


class Definition:
    """One module-level function or class, or one method."""

    def __init__(self, path: str, node: ast.AST,
                 owner: Optional["Definition"] = None) -> None:
        self.path = path
        self.node = node
        self.name = node.name
        self.owner = owner
        self.methods: List[Definition] = []
        # A generated dataclass ``__init__``: field → default, and each
        # inherited field → the base ``__init__`` that declares it.
        self.fields: Dict[str, Optional[ast.expr]] = {}
        self.inherited: Dict[str, Definition] = {}

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


def _assigns_all(statement: ast.AST) -> bool:
    if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets)
    return False


def _is_module_code(statement: ast.stmt) -> bool:
    """Module-level code that uses names: not a definition, not an
    import (a binding, not a use) and not ``__all__``."""
    if isinstance(statement, _DEFINITIONS + (ast.Import, ast.ImportFrom)):
        return False
    return not _assigns_all(statement)


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


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and _last_name(d.func) == "dataclass"
               and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in d.keywords)
               for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> Iterator[tuple]:
    """``(name, default)`` per field ``node`` declares, in order: not a
    ``ClassVar``, not ``field(init=False)``; ``default`` is ``None`` for
    a required field."""
    for statement in node.body:
        if (not isinstance(statement, ast.AnnAssign)
                or not isinstance(statement.target, ast.Name)
                or "ClassVar" in identifiers(statement.annotation)):
            continue
        default = statement.value
        if (isinstance(default, ast.Call)
                and _last_name(default.func) == "field"):
            options = {k.arg: k.value for k in default.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" in options:
                default = options["default"]
            elif "default_factory" not in options:
                default = None
        yield statement.target.id, default


def _dataclass_inits(definitions: List[Definition]) -> None:
    """Give every frozen dataclass without its own ``__init__`` the one
    ``@dataclass`` generates: base-dataclass fields first, then its own.
    ``inherited`` maps a field to the ``__init__`` of the class that
    declares it, so a subclass call binds the base's field."""
    classes = {d.name: d for d in definitions
               if isinstance(d.node, ast.ClassDef)
               and _is_frozen_dataclass(d.node)
               and not any(m.name == "__init__" for m in d.methods)}
    made: Dict[str, Definition] = {}

    def make(cls: Definition) -> Definition:
        if cls.name in made:
            return made[cls.name]
        order: Dict[str, Optional[ast.expr]] = {}
        inherited: Dict[str, Definition] = {}
        for base in cls.node.bases:
            parent = classes.get(_last_name(base))
            if parent is not None and parent is not cls:
                parent_init = make(parent)
                order.update(parent_init.fields)
                for name in parent_init.fields:
                    inherited[name] = parent_init.inherited.get(
                        name, parent_init)
        order.update(_fields(cls.node))
        args = [ast.arg(arg=name) for name in ["self"] + list(order)]
        defaults = list(order.values())
        while defaults and defaults[0] is None:
            defaults.pop(0)
        node = ast.FunctionDef(
            name="__init__", decorator_list=[], body=[], returns=None,
            args=ast.arguments(posonlyargs=[], args=args, vararg=None,
                               kwonlyargs=[], kw_defaults=[], kwarg=None,
                               defaults=defaults))
        init = Definition(cls.path, node, cls)
        init.fields = order
        init.inherited = inherited
        cls.methods.append(init)
        made[cls.name] = init
        return init

    for cls in classes.values():
        make(cls)


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


def _loaded_attributes(trees: Iterable[ast.Module]) -> Set[str]:
    """Every attribute name loaded outside a ``__post_init__`` (a value
    that is only validated is never used)."""
    loaded: Set[str] = set()
    stack: List[ast.AST] = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return loaded


def _signature(definition: Definition) -> tuple:
    """``(parameters, *args name, **kwargs name)``: each parameter by
    name mapped to ``(index, default)`` — the index a call's positional
    argument binds it at (``None``: keyword-only) and its default
    expression (``None``: required)."""
    args = definition.node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults))
    defaults += args.defaults
    drop = 0
    if definition.owner is not None and not any(
            _last_name(d) == "staticmethod"
            for d in definition.node.decorator_list):
        drop = 1
    parameters: Dict[str, tuple] = {
        arg.arg: (index - drop, default)
        for index, (arg, default) in enumerate(zip(positional, defaults))
        if index >= drop
    }
    parameters.update((arg.arg, (None, default)) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults))
    return (parameters, args.vararg and args.vararg.arg,
            args.kwarg and args.kwarg.arg)


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
           functions: Dict[str, List[Definition]],
           generated: Dict[str, Definition],
           dead: Set[ast.AST]) -> Iterator[tuple]:
    """``(call, callees, enclosing function)`` for every call in
    ``tree`` outside the ``dead`` definitions; ``functools.partial(f,
    ...)`` is a call of ``f``, ``super().__init__(...)`` one of the
    enclosing class's bases, and ``replace(obj, f=...)`` one of every
    ``generated`` dataclass ``__init__`` with a field ``f`` (of
    ``obj``'s class alone when ``obj`` is a constructor call)."""

    def visit(node: ast.AST, cls: Optional[ast.ClassDef],
              function: Optional[ast.AST]) -> Iterator[tuple]:
        for child in ast.iter_child_nodes(node):
            if child in dead:
                continue
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
                if _last_name(callee) == "replace" and call.args:
                    first = call.args[0]
                    given = {k.arg for k in call.keywords if k.arg}
                    if (isinstance(first, ast.Call)
                            and _last_name(first.func) in generated):
                        targets = [generated[_last_name(first.func)]]
                    else:
                        targets = [init for init in generated.values()
                                   if given & set(init.fields)]
                    call = ast.Call(func=callee, args=[],
                                    keywords=call.keywords)
                elif (isinstance(callee, ast.Attribute)
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
                       external: List[ast.Module],
                       dead: Set[ast.AST]) -> List[str]:
    """Every defaulted parameter no call outside ``tests/`` binds.

    A call binds nothing from inside a ``dead`` definition, nor with an
    argument spelled as the parameter's default. A value that is a bare
    name of any of the calling function's own parameters forwards it,
    and so do its own ``*args`` and ``**kwargs``, item by item: the
    binding counts once what it forwards is itself bound
    (least fixpoint). Keys: a parameter's name, ``"*"`` / ``"**"`` for
    every item of ``*args`` / ``**kwargs``, ``"*<i>"`` for one item and
    ``"**<key>"`` for one key."""
    functions: Dict[str, List[Definition]] = {}
    owned: Dict[ast.AST, Definition] = {}
    for definition in definitions:
        for entry in [definition] + definition.methods:
            if isinstance(entry.node, _FUNCTIONS):
                owned[entry.node] = entry
                if entry.name != "__init__":
                    functions.setdefault(entry.name, []).append(entry)
    inits = _init_targets(definitions)
    generated = {entry.owner.name: entry for entry in owned.values()
                 if entry.fields}
    signatures = {entry: _signature(entry) for entry in owned.values()}
    sources = [(tree, True) for tree in trees.values()]
    sources += [(tree, False) for tree in external]
    keys = {sub.arg for tree, _ in sources for sub in ast.walk(tree)
            if isinstance(sub, ast.keyword) and sub.arg}
    bound: Set[tuple] = set()
    forwarded: List[tuple] = []

    def bind(key: tuple, *waits: tuple) -> None:
        target, name = key
        key = (target.inherited.get(name, target), name)
        if waits:
            forwarded.append((waits, key))
        else:
            bound.add(key)

    for tree, internal in sources:
        for call, targets, function in _calls(
                tree, inits, functions, generated, dead):
            caller = owned.get(function) if internal else None
            mine, varargs, kwargs = (signatures[caller] if caller
                                     else ({}, None, None))

            def relay(value: ast.expr) -> tuple:
                if isinstance(value, ast.Name) and value.id in mine:
                    return ((caller, value.id),)
                return ()

            given = {k.arg: k.value for k in call.keywords if k.arg}
            spread = [k.value for k in call.keywords if k.arg is None]
            relayed = bool(spread) and isinstance(spread[0], ast.Name) and (
                spread[0].id == kwargs)
            starred = [i for i, a in enumerate(call.args)
                       if isinstance(a, ast.Starred)]
            split = starred[0] if starred else len(call.args)
            relayed_star = bool(starred) and isinstance(
                call.args[split].value, ast.Name) and (
                call.args[split].value.id == varargs)
            for target in targets:
                theirs, their_varargs, their_kwargs = signatures[target]
                for name, (index, default) in theirs.items():
                    value = given.get(name)
                    if value is None and index is not None and index < split:
                        value = call.args[index]
                    if value is not None:
                        if default is None or (
                                ast.dump(value) != ast.dump(default)):
                            bind((target, name), *relay(value))
                    elif index is not None and starred:
                        bind((target, name), *(
                            ((caller, f"*{index - split}"), (caller, "*"))
                            if relayed_star else ()))
                    elif spread:
                        bind((target, name), *(
                            ((caller, "**" + name), (caller, "**"))
                            if relayed else ()))
                if their_varargs:
                    width = sum(index is not None
                                for index, _ in theirs.values())
                    for index in range(width, split):
                        bind((target, f"*{index - width}"),
                             *relay(call.args[index]))
                    if starred:
                        bind((target, "*"),
                             *(((caller, "*"),) if relayed_star else ()))
                if their_kwargs:
                    for name, value in given.items():
                        if name not in theirs:
                            bind((target, "**" + name), *relay(value))
                    if spread and not relayed:
                        bind((target, "**"))
                    elif relayed:
                        for name in keys - set(theirs) - set(given):
                            bind((target, "**" + name),
                                 (caller, "**" + name), (caller, "**"))
                        bind((target, "**"), (caller, "**"))
    grew = True
    while grew:
        grew = False
        for waits, key in forwarded:
            if key not in bound and any(w in bound for w in waits):
                bound.add(key)
                grew = True
    return [f"{entry.key}({name}=)"
            for entry, (parameters, _, _) in signatures.items()
            for name, (_, default) in parameters.items()
            if default is not None and name not in entry.inherited
            and (entry, name) not in bound]


def _uses(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier, outside imports and
    ``__all__``."""
    counts: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _assigns_all(
                node):
            continue
        counts.update(_names_of(node))
        stack.extend(ast.iter_child_nodes(node))
    return counts


def _constant_reports(trees: Dict[str, ast.Module],
                      external: List[ast.Module]) -> List[str]:
    """Every module-level assignment whose name no ``src/`` code outside
    that statement and no external source names."""
    counts: Counter = Counter()
    for tree in list(trees.values()) + external:
        counts.update(_uses(tree))
    found = []
    for path, tree in trees.items():
        for statement in _module_statements(tree.body):
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif (isinstance(statement, ast.AnnAssign)
                  and statement.value is not None):
                targets = [statement.target]
            else:
                continue
            if _assigns_all(statement):
                continue
            own = _uses(statement)
            found.extend(
                f"{path}::{name.id}"
                for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
                and counts[name.id] == own[name.id])
    return found


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
    _dataclass_inits(definitions)
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
    dead = {entry.node for definition in definitions
            for entry in [definition] + definition.methods
            if entry not in reached}
    live = [d for d in definitions if d in reached]
    for definition in live:
        definition.methods = [m for m in definition.methods if m in reached]
    found.extend(_parameter_reports(live, trees, external_trees, dead))
    reads = _config_reads(trees)
    loaded = _loaded_attributes(list(trees.values()) + external_trees)
    for path, tree in trees.items():
        for node in _module_statements(tree.body):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.endswith("Config"):
                read = reads[""] | reads[node.name]
            elif _is_frozen_dataclass(node):
                read = loaded
            else:
                continue
            found.extend(f"{path}::{node.name}.{field.target.id}"
                         for field in node.body
                         if isinstance(field, ast.AnnAssign)
                         and field.target.id not in read)
    found.extend(_constant_reports(trees, external_trees))
    return sorted(found)


def repository_report() -> List[str]:
    modules = {
        path.relative_to(REPO).as_posix(): path.read_text()
        for path in sorted((REPO / "src").rglob("*.py"))
    }
    external = [path.read_text()
                for path in sorted(REPO.glob("benchmarks/harness/**/*.py"))]
    return report(modules, external)


PENDING_ITEM_8 = "# Pending ROADMAP item 8"


def allow_list() -> Dict[str, str]:
    """Allow-listed key → the heading of its group (the comment line
    after a bare ``#``)."""
    entries = {}
    heading = ""
    lines = ALLOW_LIST.read_text().splitlines()
    for number, line in enumerate(lines, 1):
        if line.startswith("#"):
            if number > 1 and lines[number - 2] == "#":
                heading = line
            continue
        if not line.strip():
            continue
        key, sep, reason = line.partition(" — ")
        assert sep and reason.strip(), (
            f"{ALLOW_LIST.name}:{number}: expected 'path::qualname — reason'"
        )
        entries[key.strip()] = heading
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


def test_examples_name_no_allow_listed_definition():
    """An example uses what the system reaches: it may name an
    allow-listed definition only from the "Pending ROADMAP item 8"
    group (the decompressor ``custom_decompressor.py`` shows)."""
    barred = {key.rpartition("::")[2].rpartition(".")[2]: key
              for key, heading in allow_list().items()
              if "(" not in key and not heading.startswith(PENDING_ITEM_8)}
    found = sorted(
        f"{path.name}: {barred[name]}"
        for path in sorted(REPO.glob("examples/*.py"))
        for name in set(identifiers(ast.parse(path.read_text())))
        if name in barred)
    assert not found, (
        "examples name allow-listed definitions (use what the system "
        "reaches):\n" + "\n".join(found))


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

def relay(x, **kwargs):
    return tuned(x, **kwargs)

def tuned(x, gain=1, bias=0):
    return x * gain + bias

class Writer:
    def __init__(self, strict=True):
        self.scheduler = make_scheduler(strict=strict)

def make_scheduler(*, strict):
    return Scheduler(strict=strict)

class Scheduler:
    def __init__(self, strict=True):
        self.strict = strict

def oracle():
    return probe(1, rate=2)

def probe(x, rate=1):
    return x * rate

def fetch(x, pattern="sequential"):
    return x, pattern

def main(options):
    unset(1)
    outer(2)
    spread(3, **options)
    relay(4, gain=2)
    Writer()
    probe(5)
    fetch(6, pattern="sequential")
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
        "scratch.py::Scheduler.__init__(strict=)",
        "scratch.py::Writer.__init__(strict=)",
        "scratch.py::fetch(pattern=)", "scratch.py::inner(size=)",
        "scratch.py::outer(width=)", "scratch.py::probe(rate=)",
        "scratch.py::tuned(bias=)", "scratch.py::unset(flag=)"]


def test_a_kwargs_relay_binds_only_the_keys_its_callers_pass():
    found = _scratch_parameters()
    assert "scratch.py::tuned(bias=)" in found
    assert "scratch.py::tuned(gain=)" not in found


def test_a_required_parameter_relays_an_unset_default():
    found = _scratch_parameters()
    assert "scratch.py::Writer.__init__(strict=)" in found
    assert "scratch.py::Scheduler.__init__(strict=)" in found


def test_a_call_in_an_unreached_definition_binds_nothing():
    assert "scratch.py::probe(rate=)" in _scratch_parameters()


def test_passing_the_default_binds_nothing():
    assert "scratch.py::fetch(pattern=)" in _scratch_parameters()



RECORDS = '''
from dataclasses import dataclass, field, replace

LIMIT = 4
UNUSED = 7
__all__ = ["LIMIT", "UNUSED"]

@dataclass(frozen=True)
class Base:
    depth: int = 2

@dataclass(frozen=True)
class Child(Base):
    width: int = 1

@dataclass(frozen=True)
class Knobs:
    size: int = 8
    rate: float = 1.0
    checked: int = 3
    derived: int = field(init=False, default=0)

    def __post_init__(self):
        if self.checked < 0:
            raise ValueError(self.checked)

@dataclass
class Tally:
    hits: int = 0

def main():
    knobs = replace(Knobs(), rate=2.0)
    tally = Tally()
    tally.hits += 1
    return (Child(depth=3).depth + knobs.size * knobs.rate + LIMIT
            + knobs.derived)
'''


def _scratch_records():
    return report({"records.py": RECORDS,
                   "relay.py": "from records import UNUSED\n"},
                  ["from records import main, UNUSED"])


def test_a_frozen_dataclass_field_set_only_by_tests_is_reported():
    found = _scratch_records()
    assert "records.py::Knobs.__init__(size=)" in found
    assert "records.py::Child.__init__(width=)" in found


def test_replace_binds_the_fields_it_names():
    assert "records.py::Knobs.__init__(rate=)" not in _scratch_records()


def test_a_subclass_call_binds_an_inherited_dataclass_field():
    found = _scratch_records()
    assert "records.py::Base.__init__(depth=)" not in found
    assert "records.py::Child.__init__(depth=)" not in found


def test_a_mutable_dataclass_field_is_not_reported():
    assert not [line for line in _scratch_records() if "Tally" in line]


def test_a_field_read_only_in_post_init_is_reported():
    found = _scratch_records()
    assert "records.py::Knobs.checked" in found
    assert "records.py::Knobs.size" not in found


def test_a_constant_named_only_by_imports_and_all_is_reported():
    found = _scratch_records()
    assert "records.py::UNUSED" in found
    assert "records.py::LIMIT" not in found


def test_the_record_rules_report_exactly():
    assert _scratch_records() == [
        "records.py::Child.__init__(width=)",
        "records.py::Child.width",
        "records.py::Knobs.__init__(checked=)",
        "records.py::Knobs.__init__(size=)",
        "records.py::Knobs.checked",
        "records.py::UNUSED"]
