"""PEP 562 lazy re-exports for the package ``__init__`` files.

A package declares what it re-exports as ``{module: names}`` and takes the
module-level ``__getattr__``, ``__dir__`` and ``__all__`` from :func:`attach`.
A name's module is imported on the first access of the name, so importing a
package costs only the modules its caller actually touches — a
``repro-campaign run`` process never loads the transient engine, the NMOS
experiment or the sparse solver stack it does not execute.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def attach(package: str, exports: Mapping[str, Sequence[str]]
           ) -> tuple[Callable[[str], object], Callable[[], list[str]],
                      list[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module, relative to ``package`` as in a ``from ...
    import`` statement (``".mesh"``, ``"..errors"``), to the names it
    provides; the module ``"."`` provides the package's own submodules.  An
    entry ``"stats as solver_stats"`` re-exports ``stats`` under another
    name.  A resolved name is bound on the package, so later lookups are
    plain attribute reads.
    """
    origins: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            origins[alias or attr] = (module, attr)

    def __getattr__(name: str) -> object:
        try:
            module, attr = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if module == ".":
            value = importlib.import_module(f".{attr}", package)
        else:
            value = getattr(importlib.import_module(module, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return __getattr__, __dir__, list(origins)
