"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package ``__init__`` that re-exports its public names with ``from
.sub import name`` executes every submodule (and everything those
import) the first time *any* of them is imported, because Python
imports the package before the submodule. :func:`lazy_exports` keeps
the names and drops that cost: the ``__init__`` holds a ``{name: home
module}`` table and resolves a name the first time someone asks for it.

Usage, at the bottom of a package ``__init__``::

    if TYPE_CHECKING:  # what type checkers and IDEs read
        from repro.pkg.sub import Thing

    __getattr__, __dir__, __all__ = lazy_exports(
        globals(), {"Thing": "repro.pkg.sub"}
    )

The rule this serves: a package ``__init__`` re-exports lazily; a
module imports what it uses, from the module that defines it.
"""
from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` is ``namespace`` and whose public names are the keys
    of ``exports``, each mapped to the module that defines it.

    A resolved name is stored in ``namespace``, so ``__getattr__`` runs
    once per name; an unknown name raises :class:`AttributeError`
    naming the package (``from package import submodule`` relies on
    that to fall back to importing the submodule).
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        home = exports.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
