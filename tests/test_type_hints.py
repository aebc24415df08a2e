"""Every annotation in ``repro`` resolves: ``typing.get_type_hints`` on
each function, class and method the package defines.

Modules use ``from __future__ import annotations``, so an annotation
naming a type its module never imports stays a string until something
resolves it — and then raises ``NameError``.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro
import repro.core.result

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

#: ``build_trace`` imports ``SearchResult`` only under ``TYPE_CHECKING``
#: (the observability layer must not import the core at run time).
LOCALNS = {
    "repro.observability.profiler.build_trace": vars(repro.core.result),
}


def _defined(module):
    """(qualified name, object) for every function, class and method
    ``module`` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    for qualname, obj in _defined(module):
        try:
            typing.get_type_hints(obj, localns=LOCALNS.get(qualname))
        except NameError as error:
            pytest.fail(f"{qualname}: {error}")
