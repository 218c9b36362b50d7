"""Load-on-use re-exports for the package inits (PEP 562).

A package init lists what it re-exports in one table, ``{module: names}``,
and installs the ``__getattr__`` built here.  Nothing is imported until a
name is first read: then its module is imported and the name is bound on
the package, so later reads never reach the hook.  ``__all__`` comes from
the same table, and ``from package import *`` resolves every name of it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence


def export_names(table: Mapping[str, Sequence[str]]) -> List[str]:
    """Every re-exported name of ``table``, in table order."""
    return [name for names in table.values() for name in names]


def lazy_getattr(package: str, table: Mapping[str, Sequence[str]]) -> Callable:
    """The module ``__getattr__`` of ``package`` for ``table``'s names."""
    owners: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
