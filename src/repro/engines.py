"""The repository's single engine registry.

Every engine is an :class:`~repro.joins.base.EngineProtocol` — the join
algorithms of :mod:`repro.joins` and the TrieJax model of :mod:`repro.core`
implement ``execute`` themselves, mirroring how the paper feeds one
CTJ-compiled plan to software LFTJ/CTJ and the TrieJax accelerator alike
(conf_asplos_KalinskyKE20, Section 3.2)::

    engine = create_engine("ctj")
    execution = engine.execute(query, database, plan=plan)

:data:`ENGINE_FACTORIES` maps each name to its engine class (the class
declares its capabilities and cost model), and :func:`create_engine` /
:func:`register_engine` resolve and extend it.  This is the *only* engine
table in the repository: the CLI, :class:`repro.api.Session`,
:class:`repro.service.QueryService`, the evaluation harness and the
``perf/`` benchmark all resolve engine names here.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core import TrieJaxAccelerator
from repro.joins import (
    CachedTrieJoin,
    EngineProtocol,
    GenericJoin,
    LeapfrogTrieJoin,
    NaiveJoin,
    PairwiseJoin,
)

#: Factories for every registered engine, by name: the built-in engines'
#: classes, each constructed with its defaults.
ENGINE_FACTORIES: Dict[str, Callable[[], EngineProtocol]] = {
    "naive": NaiveJoin,
    "lftj": LeapfrogTrieJoin,
    "ctj": CachedTrieJoin,
    "generic": GenericJoin,
    "pairwise": PairwiseJoin,
    "triejax": TrieJaxAccelerator,
}


def engine_names() -> Tuple[str, ...]:
    """Currently registered engine names, sorted for stable choice lists."""
    return tuple(sorted(ENGINE_FACTORIES))


def register_engine(
    name: str, factory: Callable[[], EngineProtocol], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` in the shared registry.

    Registration is visible to every consumer (CLI, Session, service,
    harness) because they all resolve names through this module.
    """
    if name in ENGINE_FACTORIES and not replace:
        raise KeyError(f"engine {name!r} already registered (pass replace=True)")
    ENGINE_FACTORIES[name] = factory


def create_engine(name: str) -> EngineProtocol:
    """Instantiate the engine registered under ``name``."""
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; registered engines: {', '.join(engine_names())}"
        ) from None
    return factory()
