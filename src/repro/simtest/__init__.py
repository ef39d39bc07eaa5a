"""Deterministic simulation & fault-injection harness for the serve stack.

Layers (each usable on its own):

* :mod:`repro.simtest.clock` — ``Clock``/``SystemClock``/``SimClock``;
  virtual time with deterministic timers, injected throughout
  :mod:`repro.serve`, :mod:`repro.service.metrics`, and
  :mod:`repro.verify.fuzz`.
* :mod:`repro.simtest.faults` — seeded ``FaultPlan``/``FaultInjector``
  with named injection points wired into the client transport, router
  proxy leg, supervisor health checker, and ``ScriptCache``.
* :mod:`repro.simtest.events` — the byte-identical-per-seed event log.
* :mod:`repro.simtest.scenario` — an in-process simulated cluster (real
  ``DiffServer``/``Router``/client objects and the real engine, no
  sockets) replaying scripted request+fault timelines under ``SimClock``
  with declarative invariants and fault-plan shrinking.
* :mod:`repro.simtest.scenarios` — the named scenario matrix behind
  ``repro-diff simtest``.

The production modules import only :mod:`repro.simtest.clock` (stdlib-only,
no back-references), while the scenario layer imports the production
modules — so ``scenario``/``scenarios`` are re-exported lazily here to keep
the package import acyclic.
"""

from .clock import SYSTEM_CLOCK, Clock, SimClock, SystemClock, Timer
from .events import EventLog
from .faults import INJECTION_POINTS, Fault, FaultInjector, FaultPlan

__all__ = [
    "Clock",
    "SystemClock",
    "SimClock",
    "Timer",
    "SYSTEM_CLOCK",
    "EventLog",
    "INJECTION_POINTS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "shrink_plan",
    "SCENARIOS",
    "build_scenario",
    "run_matrix",
]

_LAZY = {
    "Scenario": "scenario",
    "ScenarioResult": "scenario",
    "run_scenario": "scenario",
    "shrink_plan": "scenario",
    "SCENARIOS": "scenarios",
    "build_scenario": "scenarios",
    "run_matrix": "scenarios",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
