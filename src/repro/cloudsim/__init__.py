"""Discrete-time cloud data-center simulator (CloudSim substitute).

This subpackage reimplements, in Python, the slice of the CloudSim toolkit
that the Megh paper relies on: power-aware hosts replaying CPU-utilization
traces at a fixed observation interval, live-migration timing, and SLA
(downtime / overload) accounting.
"""

from repro.cloudsim.pm import PhysicalMachine
from repro.cloudsim.vm import VirtualMachine
from repro.cloudsim.power import (
    LinearPowerModel,
    PowerModel,
    SpecPowerModel,
    HP_PROLIANT_G4,
    HP_PROLIANT_G5,
)
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.soa import DatacenterArrays
from repro.cloudsim.migration import Migration, MigrationEngine
from repro.cloudsim.network import (
    FatTreeTopology,
    FlatNetwork,
    NetworkTopology,
    StarNetwork,
)
from repro.cloudsim.sla import SlaAccountant
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.simulation import Simulation, SimulationResult
from repro.cloudsim.metrics import StepMetrics, MetricsCollector
from repro.cloudsim.events import Event, EventKind, EventLog
from repro.cloudsim.faults import FaultEvent, FaultInjector, FaultTolerantScheduler
from repro.cloudsim.precopy import PrecopyModel, PrecopyOutcome
from repro.cloudsim.validation import (
    InvariantViolation,
    check_invariants,
    find_violations,
)

__all__ = [
    "PhysicalMachine",
    "VirtualMachine",
    "PowerModel",
    "LinearPowerModel",
    "SpecPowerModel",
    "HP_PROLIANT_G4",
    "HP_PROLIANT_G5",
    "Datacenter",
    "DatacenterArrays",
    "Migration",
    "MigrationEngine",
    "NetworkTopology",
    "FlatNetwork",
    "StarNetwork",
    "FatTreeTopology",
    "SlaAccountant",
    "UtilizationMonitor",
    "Simulation",
    "SimulationResult",
    "StepMetrics",
    "MetricsCollector",
    "Event",
    "EventKind",
    "EventLog",
    "FaultEvent",
    "FaultInjector",
    "FaultTolerantScheduler",
    "PrecopyModel",
    "PrecopyOutcome",
    "InvariantViolation",
    "check_invariants",
    "find_violations",
]
