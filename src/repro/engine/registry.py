"""Builder/scheduler registries and picklable spec-carrying callables.

Workers rebuild every simulation from names, never from shipped
callables.  Two registries map names to constructors:

* **builders** — ``fn(seed=..., **params) -> Simulation``;
* **schedulers** — ``fn(simulation, **params) -> Scheduler``.

Names containing a colon are resolved as ``module:attribute`` dotted
paths instead, so tests and downstream code can reference their own
constructors without registering them first.

:class:`BuilderSpec` and :class:`SchedulerSpec` wrap registry entries in
frozen, picklable callables with the harness's native signatures
(``builder(seed) -> Simulation`` and ``factory(simulation) ->
Scheduler``), so the same objects drive the legacy serial paths *and*
carry enough structure for the engine to derive :class:`JobSpec`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.jobs import JobSpec, freeze_params, thaw_params
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cloudsim.simulation import Simulation

BUILDER_REGISTRY: Dict[str, Callable[..., Any]] = {}
SCHEDULER_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_builder(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register ``fn`` as a simulation builder under ``name``."""
    if name in BUILDER_REGISTRY:
        raise ConfigurationError(f"builder {name!r} already registered")
    BUILDER_REGISTRY[name] = fn
    return fn


def register_scheduler(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register ``fn`` as a scheduler constructor under ``name``."""
    if name in SCHEDULER_REGISTRY:
        raise ConfigurationError(f"scheduler {name!r} already registered")
    SCHEDULER_REGISTRY[name] = fn
    return fn


def _resolve_dotted(name: str) -> Callable[..., Any]:
    module_name, _, attribute = name.partition(":")
    try:
        module = import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import module {module_name!r} for {name!r}: {exc}"
        ) from exc
    try:
        return getattr(module, attribute)
    except AttributeError as exc:
        raise ConfigurationError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from exc


def resolve_builder(name: str) -> Callable[..., Any]:
    """Look up a builder by registry name or ``module:attr`` path."""
    if ":" in name:
        return _resolve_dotted(name)
    try:
        return BUILDER_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown builder {name!r}; registered: "
            f"{sorted(BUILDER_REGISTRY)} (or use a 'module:attr' path)"
        ) from None


def resolve_scheduler(name: str) -> Callable[..., Any]:
    """Look up a scheduler constructor by registry name or dotted path."""
    if ":" in name:
        return _resolve_dotted(name)
    try:
        return SCHEDULER_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; registered: "
            f"{sorted(SCHEDULER_REGISTRY)} (or use a 'module:attr' path)"
        ) from None


@dataclass(frozen=True)
class BuilderSpec:
    """Picklable ``builder(seed) -> Simulation`` backed by the registry."""

    name: str
    params: Tuple = ()

    @classmethod
    def create(cls, name: str, **params: Any) -> "BuilderSpec":
        """Build a spec callable with canonicalized parameters."""
        return cls(name=name, params=freeze_params(params))

    def __call__(self, seed: int):
        """Build a fresh simulation for ``seed``."""
        return resolve_builder(self.name)(
            seed=seed, **thaw_params(self.params)
        )


@dataclass(frozen=True)
class SchedulerSpec:
    """Picklable ``factory(simulation) -> Scheduler`` backed by the registry."""

    name: str
    params: Tuple = ()

    @classmethod
    def create(cls, name: str, **params: Any) -> "SchedulerSpec":
        """Build a spec callable with canonicalized parameters."""
        return cls(name=name, params=freeze_params(params))

    def __call__(self, simulation):
        """Construct a fresh scheduler for ``simulation``."""
        return resolve_scheduler(self.name)(
            simulation, **thaw_params(self.params)
        )


def job_spec(
    builder: BuilderSpec,
    scheduler: SchedulerSpec,
    seed: int,
    num_steps: Optional[int] = None,
    tag: str = "",
) -> JobSpec:
    """Derive the declarative :class:`JobSpec` for a (builder, factory) pair."""
    return JobSpec(
        builder=builder.name,
        scheduler=scheduler.name,
        seed=int(seed),
        num_steps=None if num_steps is None else int(num_steps),
        builder_params=builder.params,
        scheduler_params=scheduler.params,
        tag=tag or f"{scheduler.name}@seed{seed}",
    )


def execute_spec(spec: JobSpec):
    """Run one job in the current process and return its result.

    Mirrors :func:`repro.harness.runner.run_scheduler`: the simulation is
    rebuilt from the seed, reset, and run for the spec's horizon.  This
    is the single execution path shared by serial runs and workers — the
    engine's ``jobs=1`` / ``jobs=N`` equivalence rests on it.
    """
    builder = resolve_builder(spec.builder)
    # Registry dispatch is dynamic; the annotation keeps the built
    # simulation's type visible to readers and mypy.  Worker
    # determinism is checked at runtime: TestParallelExecution in
    # tests/engine/test_pool.py.
    simulation: Simulation = builder(seed=spec.seed, **spec.builder_kwargs())
    constructor = resolve_scheduler(spec.scheduler)
    scheduler = constructor(simulation, **spec.scheduler_kwargs())
    simulation.reset()
    return simulation.run(scheduler, num_steps=spec.num_steps)


# ----------------------------------------------------------------------
# Default registrations: the builders and schedulers the harness,
# benchmarks, and CLI compose their experiments from.
# ----------------------------------------------------------------------


def _build_planetlab(seed: int = 0, **params: Any):
    """Registry wrapper for :func:`build_planetlab_simulation`."""
    from repro.harness.builders import build_planetlab_simulation

    return build_planetlab_simulation(seed=seed, **params)


def _build_google(seed: int = 0, **params: Any):
    """Registry wrapper for :func:`build_google_simulation`."""
    from repro.harness.builders import build_google_simulation

    return build_google_simulation(seed=seed, **params)


def _build_churn(seed: int = 0, **params: Any):
    """Registry wrapper for :func:`build_churn_service` (service mode).

    The returned :class:`~repro.service.loop.ServiceSimulation` follows
    the builder protocol (``reset()`` / ``run(scheduler, num_steps)``),
    so specs and checkpoints can reference it by name.
    """
    from repro.service.builders import build_churn_service

    return build_churn_service(seed=seed, **params)


def _make_megh(simulation, seed: int = 0, config: Optional[Mapping[str, Any]] = None):
    """Megh agent sized to the simulation; ``config`` maps MeghConfig fields."""
    from repro.config import MeghConfig
    from repro.core.agent import MeghScheduler

    megh_config = MeghConfig(**dict(config)) if config else None
    return MeghScheduler.from_simulation(
        simulation, config=megh_config, seed=seed
    )


def _make_madvm(simulation, seed: int = 0, **kwargs: Any):
    """MadVM agent sized to the simulation."""
    from repro.baselines.madvm import MadVMScheduler

    return MadVMScheduler.from_simulation(simulation, seed=seed, **kwargs)


def _make_mmt(simulation, detector: str = "THR", **kwargs: Any):
    """MMT scheduler with the named overload detector."""
    del simulation  # MMT sizes itself from the observation, not the fleet
    from repro.baselines.mmt.scheduler import MMTScheduler

    return MMTScheduler(detector, **kwargs)


def _make_noop(simulation):
    """Never-migrate baseline."""
    del simulation
    from repro.baselines.noop import NoMigrationScheduler

    return NoMigrationScheduler()


def _make_random(simulation, seed: int = 0, migrations_per_step: int = 1):
    """Random-migration baseline."""
    del simulation
    from repro.baselines.random_policy import RandomScheduler

    return RandomScheduler(
        migrations_per_step=migrations_per_step, seed=seed
    )


register_builder("planetlab", _build_planetlab)
register_builder("google", _build_google)
register_builder("churn", _build_churn)
register_scheduler("megh", _make_megh)
register_scheduler("madvm", _make_madvm)
register_scheduler("mmt", _make_mmt)
register_scheduler("noop", _make_noop)
register_scheduler("random", _make_random)


def spec_mmt_factories(
    detectors: Sequence[str] = ("THR", "IQR", "MAD", "LR", "LRR"),
    thr_threshold: float = 0.7,
) -> Dict[str, SchedulerSpec]:
    """Spec-carrying equivalent of :func:`repro.harness.runner.mmt_factories`."""
    factories: Dict[str, SchedulerSpec] = {}
    for detector in detectors:
        if detector == "THR":
            factories["THR-MMT"] = SchedulerSpec.create(
                "mmt", detector="THR", utilization_threshold=thr_threshold
            )
        else:
            factories[f"{detector}-MMT"] = SchedulerSpec.create(
                "mmt", detector=detector
            )
    return factories


def spec_paper_factories(
    megh_config=None,
    include_madvm: bool = False,
    seed: int = 0,
) -> Dict[str, SchedulerSpec]:
    """Spec-carrying Table-2/3 line-up (five MMT variants, Megh, MadVM).

    ``megh_config`` is a :class:`repro.config.MeghConfig` (or field
    mapping); it is flattened into the Megh job's parameters so it also
    contributes to the cache key.
    """
    import dataclasses

    factories = spec_mmt_factories()
    megh_params: Dict[str, Any] = {"seed": seed}
    if megh_config is not None:
        if dataclasses.is_dataclass(megh_config):
            megh_params["config"] = dataclasses.asdict(megh_config)
        else:
            megh_params["config"] = dict(megh_config)
    factories["Megh"] = SchedulerSpec.create("megh", **megh_params)
    if include_madvm:
        factories["MadVM"] = SchedulerSpec.create("madvm", seed=seed)
    return factories
