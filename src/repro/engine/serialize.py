"""``SimulationResult`` ↔ dict/JSON round-trip.

The engine's cache and worker pipes move results as plain dicts, so the
conversion must be *exact*: every stored float survives bit-for-bit
(JSON's shortest-round-trip float repr guarantees this), every SLA
window entry is preserved, and the nested configuration dataclasses are
rebuilt field by field (keys of retired fields are ignored, so payloads
written before a field was removed still load).  Derived quantities
(totals, means, windowed fractions) are recomputed from the restored
state, never stored — a round-tripped result therefore answers every
query identically to the original.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict

from repro.cloudsim.metrics import MetricsCollector, StepMetrics
from repro.cloudsim.simulation import SimulationResult
from repro.cloudsim.sla import SlaAccountant
from repro.config import CostConfig, DatacenterConfig, SimulationConfig
from repro.errors import SerializationError

#: Payload schema version; bump on layout changes so stale cache entries
#: are rejected instead of mis-parsed.
RESULT_SCHEMA_VERSION = 1

_STEP_FIELDS = (
    "step",
    "energy_cost_usd",
    "sla_cost_usd",
    "num_migrations_started",
    "num_migrations_rejected",
    "num_active_hosts",
    "scheduler_seconds",
    "mean_host_utilization",
    "num_overloaded_hosts",
)


def _plain(value: Any) -> Any:
    """Collapse numpy scalars to builtins (exactly) for JSON encoding."""
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _step_to_dict(step: StepMetrics) -> Dict[str, Any]:
    return {name: _plain(getattr(step, name)) for name in _STEP_FIELDS}


def _step_from_dict(data: Dict[str, Any]) -> StepMetrics:
    return StepMetrics(**{name: data[name] for name in _STEP_FIELDS})


def _sla_to_dict(sla: SlaAccountant) -> Dict[str, Any]:
    return {
        "beta": sla.beta,
        "window_seconds": sla.window_seconds,
        "interval_seconds": sla.interval_seconds,
        "hosts": {
            str(pm_id): {
                "active_seconds": record.active_seconds,
                "overload_seconds": record.overload_seconds,
            }
            for pm_id, record in sla.hosts.items()
        },
        "vms": {
            str(vm_id): {
                "window_steps": record.window_steps,
                "requested_seconds": record.requested_seconds,
                "migration_downtime_seconds": record.migration_downtime_seconds,
                "overload_downtime_seconds": record.overload_downtime_seconds,
                "window": [list(entry) for entry in record.window_entries()],
            }
            for vm_id, record in sla.vms.items()
        },
    }


def _sla_from_dict(data: Dict[str, Any]) -> SlaAccountant:
    accountant = SlaAccountant(
        beta=data["beta"],
        window_seconds=data["window_seconds"],
        interval_seconds=data["interval_seconds"],
    )
    for pm_id, host in data["hosts"].items():
        accountant.restore_host_record(
            int(pm_id),
            active_seconds=host["active_seconds"],
            overload_seconds=host["overload_seconds"],
        )
    for vm_id, vm in data["vms"].items():
        accountant.restore_vm_record(
            int(vm_id),
            requested_seconds=vm["requested_seconds"],
            migration_downtime_seconds=vm["migration_downtime_seconds"],
            overload_downtime_seconds=vm["overload_downtime_seconds"],
            window=[(entry[0], entry[1]) for entry in vm["window"]],
        )
    return accountant


def _config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    return {
        "interval_seconds": config.interval_seconds,
        "num_steps": config.num_steps,
        "seed": config.seed,
        "costs": vars(config.costs).copy(),
        "datacenter": vars(config.datacenter).copy(),
    }


def _declared_fields(cls: Any, data: Dict[str, Any]) -> Dict[str, Any]:
    return {field.name: data[field.name] for field in fields(cls)}


def _config_from_dict(data: Dict[str, Any]) -> SimulationConfig:
    return SimulationConfig(
        interval_seconds=data["interval_seconds"],
        num_steps=data["num_steps"],
        seed=data["seed"],
        costs=CostConfig(**_declared_fields(CostConfig, data["costs"])),
        datacenter=DatacenterConfig(
            **_declared_fields(DatacenterConfig, data["datacenter"])
        ),
    )


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a :class:`SimulationResult` into a JSON-compatible dict."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "scheduler_name": result.scheduler_name,
        "num_pms": result.num_pms,
        "num_vms": result.num_vms,
        "steps": [_step_to_dict(step) for step in result.metrics.steps],
        "sla": _sla_to_dict(result.sla),
        "config": _config_to_dict(result.config),
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output."""
    try:
        schema = data["schema"]
        if schema != RESULT_SCHEMA_VERSION:
            raise SerializationError(
                f"unsupported result schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        metrics = MetricsCollector(
            steps=[_step_from_dict(step) for step in data["steps"]]
        )
        return SimulationResult(
            scheduler_name=data["scheduler_name"],
            metrics=metrics,
            sla=_sla_from_dict(data["sla"]),
            config=_config_from_dict(data["config"]),
            num_pms=data["num_pms"],
            num_vms=data["num_vms"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SerializationError(
            f"malformed result payload: {exc!r}"
        ) from exc


def result_to_json(result: SimulationResult) -> str:
    """Serialize a result to a JSON string (floats round-trip exactly)."""
    try:
        return json.dumps(result_to_dict(result), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"result is not JSON-serializable: {exc}"
        ) from exc


def result_from_json(text: str) -> SimulationResult:
    """Deserialize a result from :func:`result_to_json` output."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SerializationError(f"invalid result JSON: {exc}") from exc
    return result_from_dict(data)
