"""Lazy re-export namespaces (PEP 562).

A package ``__init__`` that only re-exports names from its leaf modules
would import every leaf the moment anything under the package is
touched; a daemon then pays at start-up for modules its role never
runs. Such an ``__init__`` keeps its ``from ... import ...`` lines under
``if TYPE_CHECKING:`` and binds
``__getattr__, __dir__ = lazy_exports(__name__, {leaf module: names})``:
a leaf is imported on the first access to one of its names, and the
resolved object is cached in the package's globals, so ``__getattr__``
runs once per name.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""
    owner = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owner[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
