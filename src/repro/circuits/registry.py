"""Registry mapping circuit names and aliases to testbench classes.

:func:`register_circuit` is a class decorator for
:class:`~repro.circuits.base.AnalogCircuit` testbenches.  The class's
``name`` attribute becomes the canonical registry key; short aliases
(``"sal"``, ``"fia"``, ...) ride along::

    @register_circuit(aliases=("sal",))
    class StrongArmLatch(AnalogCircuit):
        name = "strongarm_latch"

Registration happens at module import; the built-in circuits self-register
when their modules load, and the lookup functions lazily import those
modules so ``from repro.circuits.registry import get_circuit`` works on its
own.  The multiprocessing sharding layer keys worker-side reconstruction on
these names (:func:`registered_class`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.circuits.base import AnalogCircuit

_REGISTRY: Dict[str, Type[AnalogCircuit]] = {}
_BUILTINS_LOADED = False


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_circuit(
    cls: Optional[Type[AnalogCircuit]] = None,
    *,
    aliases: Sequence[str] = (),
):
    """Class decorator registering an :class:`AnalogCircuit` testbench.

    Usable bare (``@register_circuit``) or with aliases
    (``@register_circuit(aliases=("sal",))``).  The class's ``name``
    attribute is the canonical key.
    """

    def decorate(circuit_cls: Type[AnalogCircuit]) -> Type[AnalogCircuit]:
        name = getattr(circuit_cls, "name", None)
        if not name or name == AnalogCircuit.name:
            raise ValueError(
                f"{circuit_cls.__name__} must define a distinct `name` "
                "attribute to be registered"
            )
        keys = [_normalize(key) for key in (name, *aliases)]
        # Validate every key before inserting any, so a conflicting alias
        # cannot leave the registry half-mutated.
        for key in keys:
            existing = _REGISTRY.get(key)
            if existing is not None and _normalize(existing.name) != keys[0]:
                raise ValueError(
                    f"circuit name {key!r} already registered for "
                    f"{existing.name!r}"
                )
        for key in keys:
            _REGISTRY[key] = circuit_cls
        return circuit_cls

    if cls is not None:
        return decorate(cls)
    return decorate


def _ensure_builtins() -> None:
    """Import the modules that self-register the built-in circuits."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Mark loaded only on success: a failed import should surface again on
    # the next lookup instead of leaving a silently empty registry.
    # (Re-entrant lookups during the imports are safe — sys.modules makes
    # the nested imports no-ops.)
    import repro.circuits  # noqa: F401
    _BUILTINS_LOADED = True


def registered_class(name: str) -> Optional[Type[AnalogCircuit]]:
    """The registered testbench class for ``name`` (or alias), else ``None``."""
    _ensure_builtins()
    return _REGISTRY.get(_normalize(name))


def available_circuits() -> List[str]:
    """Canonical circuit names, in registration order (aliases excluded)."""
    _ensure_builtins()
    return list(dict.fromkeys(_normalize(cls.name) for cls in _REGISTRY.values()))


def get_circuit(name: str) -> AnalogCircuit:
    """Instantiate a circuit by name or alias."""
    cls = registered_class(name)
    if cls is None:
        raise KeyError(
            f"unknown circuit {name!r}; available: {available_circuits()}"
        )
    return cls()
