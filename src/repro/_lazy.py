"""PEP 562 package facades: one export table, resolved on first use.

A package ``__init__`` declares ``name -> defining submodule`` once and
takes its ``__all__``, ``__getattr__`` and ``__dir__`` from it::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "ScheduleCache": "store",
        ...
    })

so importing one submodule of the package no longer executes all of its
siblings.  Resolved values are cached on the package, after which
attribute access is an ordinary module-dict hit.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package`` for ``exports``,
    a mapping of public name to the submodule (relative to ``package``)
    that defines it; ``__all__`` keeps the mapping's order."""
    namespace = vars(sys.modules[package])

    def resolve(name: str) -> object:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module(f"{package}.{exports[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    # An export named like the submodule that defines it (``assign_paths``)
    # cannot wait for first use: importing the submodule binds the
    # *module* over the name and ``__getattr__`` is never asked.
    for name, module in exports.items():
        if name == module:
            resolve(name)

    return list(exports), resolve, lambda: sorted({*namespace, *exports})
