"""Registry mapping circuit names to testbench classes and netlist factories.

Two registration styles:

* :func:`register_circuit` — a class decorator for
  :class:`~repro.circuits.base.AnalogCircuit` testbenches.  The class's
  ``name`` attribute becomes the canonical registry key; short aliases
  (``"sal"``, ``"fia"``, ...) ride along::

      @register_circuit(aliases=("sal",))
      class StrongArmLatch(AnalogCircuit):
          name = "strongarm_latch"

* :func:`register_circuit_factory` — for *parameterized* builders (e.g. the
  ``common_source_ladder`` SPICE netlist used by the trimming tests),
  where the registry stores a callable instead of a class and
  :func:`get_circuit` forwards keyword arguments to it::

      register_circuit_factory(
          "common_source_ladder", common_source_ladder, kind="netlist"
      )
      ladder = get_circuit("common_source_ladder", stages=8)

Registration happens at module import; the built-in circuits self-register
when their modules load, and the lookup functions lazily import those
modules so ``from repro.circuits.registry import get_circuit`` works on its
own.  The multiprocessing sharding layer keys worker-side reconstruction on
these names (:func:`registered_class`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.circuits.base import AnalogCircuit

#: Registry kinds: full testbenches (sizing parameters + metrics) vs plain
#: SPICE netlists (solver benchmarks, kernel tests).
TESTBENCH = "testbench"
NETLIST = "netlist"


@dataclass(frozen=True)
class CircuitEntry:
    """One registered circuit: how to build it and how it is named."""

    name: str
    factory: Callable[..., Any]
    kind: str = TESTBENCH
    aliases: Tuple[str, ...] = ()
    cls: Optional[Type[AnalogCircuit]] = field(default=None)

    def build(self, **kwargs: Any) -> Any:
        return self.factory(**kwargs)


_REGISTRY: Dict[str, CircuitEntry] = {}
_BUILTINS_LOADED = False


def _normalize(name: str) -> str:
    return name.strip().lower()


def _register_entry(entry: CircuitEntry) -> None:
    keys = [_normalize(key) for key in (entry.name, *entry.aliases)]
    # Validate every key before inserting any, so a conflicting alias
    # cannot leave the registry half-mutated.
    for key in keys:
        existing = _REGISTRY.get(key)
        if existing is not None and existing.name != entry.name:
            raise ValueError(
                f"circuit name {key!r} already registered for "
                f"{existing.name!r}"
            )
    for key in keys:
        _REGISTRY[key] = entry


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
        _register_entry(
            CircuitEntry(
                name=_normalize(name),
                factory=circuit_cls,
                kind=TESTBENCH,
                aliases=tuple(_normalize(alias) for alias in aliases),
                cls=circuit_cls,
            )
        )
        return circuit_cls

    if cls is not None:
        return decorate(cls)
    return decorate


def register_circuit_factory(
    name: str,
    factory: Callable[..., Any],
    *,
    aliases: Sequence[str] = (),
    kind: str = NETLIST,
) -> Callable[..., Any]:
    """Register a parameterized circuit builder under ``name``.

    ``kind`` distinguishes full testbenches from plain SPICE netlists;
    :func:`get_circuit` forwards keyword arguments to the factory, so
    benchmarks can request e.g. ``get_circuit("cs_ladder", stages=8)``.
    """
    _register_entry(
        CircuitEntry(
            name=_normalize(name),
            factory=factory,
            kind=kind,
            aliases=tuple(_normalize(alias) for alias in aliases),
        )
    )
    return factory


def _ensure_builtins() -> None:
    """Import the modules that self-register the built-in circuits."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Mark loaded only on success: a failed import should surface again on
    # the next lookup instead of leaving a silently empty registry.
    # (Re-entrant lookups during the imports are safe — sys.modules makes
    # the nested imports no-ops.)
    import repro.circuits  # noqa: F401  (testbench classes)
    import repro.spice.examples  # noqa: F401  (netlist factories)
    _BUILTINS_LOADED = True


def registered_entry(name: str) -> Optional[CircuitEntry]:
    """The registry entry for ``name`` (or alias), else ``None``."""
    _ensure_builtins()
    return _REGISTRY.get(_normalize(name))


def registered_class(name: str) -> Optional[Type[AnalogCircuit]]:
    """The registered testbench class for ``name``, else ``None``.

    Factory entries return ``None`` — the sharding layer uses this to
    decide whether a worker process can rebuild the exact circuit type.
    """
    entry = registered_entry(name)
    return entry.cls if entry is not None else None


def available_circuits(kind: str = TESTBENCH) -> List[str]:
    """Canonical circuit names of the given kind (aliases excluded)."""
    _ensure_builtins()
    seen: Dict[str, None] = {}
    for entry in _REGISTRY.values():
        if entry.kind == kind:
            seen.setdefault(entry.name)
    return list(seen)


def get_circuit(name: str, **kwargs: Any) -> Any:
    """Instantiate a circuit by name or alias.

    Keyword arguments are forwarded to the registered class or factory
    (parameterized netlists like ``common_source_ladder`` accept e.g.
    ``stages=8``).
    """
    entry = registered_entry(name)
    if entry is None:
        raise KeyError(
            f"unknown circuit {name!r}; available: "
            f"{available_circuits() + available_circuits(NETLIST)}"
        )
    return entry.build(**kwargs)
