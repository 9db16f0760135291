"""The engine registry's historical import path.

The registry lives in :mod:`repro.engines`, below both :mod:`repro.api` and
:mod:`repro.service` so neither package has to import the other for it;
this module re-exports every public name for existing callers.
"""

from repro.engines import (
    AcceleratorEngine,
    CostModel,
    ENGINE_FACTORIES,
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    SoftwareEngine,
    create_engine,
    engine_names,
    register_engine,
)

__all__ = [
    "AcceleratorEngine",
    "CostModel",
    "ENGINE_FACTORIES",
    "EngineCapabilities",
    "EngineExecution",
    "EngineProtocol",
    "SoftwareEngine",
    "create_engine",
    "engine_names",
    "register_engine",
]
