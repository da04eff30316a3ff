"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes ``from package.one_module import x`` pay for all of them:
importing the bench harness used to load all seventeen experiment
drivers, and through them the chaos, fan-out, consensus and dstore
packages and numpy.  A package that instead does ::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "submodule": ("Name", "other_name"), ...})

keeps ``from package import Name``, ``package.Name``, ``dir(package)``
and ``from package import *`` (through its ``__all__``) working as
before, but imports ``package.submodule`` only when one of its names is
first asked for.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports, from each submodule in ``exports``, the names listed
    for it."""
    origin = {name: submodule for submodule, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        # bound from now on: the next access never reaches this function
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
