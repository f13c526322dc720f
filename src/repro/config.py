"""Configuration dataclasses shared across the library.

All experiment-level knobs live here so that a single frozen config object
fully determines a simulation run.  Defaults follow Section 6.1 of the
paper: electricity at 0.18675 USD/kWh, VM price 1.2 USD/h, SLA paybacks of
16.7 % and 33.3 %, overload threshold beta = 70 %, migration CPU threshold
alpha = 30 %, discount gamma = 0.5, Boltzmann Temp0 = 3 and epsilon = 0.01,
and a per-step migration cap of 2 % of the VMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Observation interval used by the PlanetLab and Google traces (seconds).
DEFAULT_INTERVAL_SECONDS = 300.0

#: Standard local electricity price used by the paper (USD per kWh).
DEFAULT_ENERGY_PRICE_USD_PER_KWH = 0.18675

#: Hourly price a user pays for one VM instance (USD, Section 6.1).
DEFAULT_VM_PRICE_USD_PER_HOUR = 1.2


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class CostConfig:
    """Parameters of the operation-cost model (Sections 3.2 and 3.3).

    Attributes:
        energy_price_usd_per_kwh: cost of consuming 1 kWh (``c_p`` up to
            unit conversion).
        vm_price_usd_per_hour: what a user pays per VM-hour; SLA paybacks
            are fractions of this.
        payback_minor: fraction of the user's money refunded when the
            downtime percentage falls in ``(minor_threshold, major_threshold]``.
        payback_major: fraction refunded when downtime exceeds
            ``major_threshold``.
        minor_downtime_threshold: lower edge of the minor violation band,
            as a fraction (paper: 0.05 % -> 0.0005).
        major_downtime_threshold: edge above which the major payback
            applies (paper: 0.10 % -> 0.001).
        sla_billing_window_seconds: trailing window over which the
            downtime percentage is evaluated (real SLAs settle per
            billing period; the paper's cumulative-from-start reading is
            approximated by setting this to the experiment length).
    """

    energy_price_usd_per_kwh: float = DEFAULT_ENERGY_PRICE_USD_PER_KWH
    vm_price_usd_per_hour: float = DEFAULT_VM_PRICE_USD_PER_HOUR
    payback_minor: float = 0.167
    payback_major: float = 0.333
    minor_downtime_threshold: float = 0.0005
    major_downtime_threshold: float = 0.001
    sla_billing_window_seconds: float = 7200.0

    def __post_init__(self) -> None:
        _require(self.energy_price_usd_per_kwh >= 0, "energy price must be >= 0")
        _require(self.vm_price_usd_per_hour >= 0, "VM price must be >= 0")
        _require(
            0 <= self.payback_minor <= self.payback_major <= 1,
            "paybacks must satisfy 0 <= minor <= major <= 1",
        )
        _require(
            0
            <= self.minor_downtime_threshold
            <= self.major_downtime_threshold
            <= 1,
            "downtime thresholds must satisfy 0 <= minor <= major <= 1",
        )
        _require(
            self.sla_billing_window_seconds > 0,
            "SLA billing window must be > 0",
        )

    @property
    def energy_price_usd_per_watt_second(self) -> float:
        """``c_p`` of Eq. (1): USD for 1 W drawn during 1 s."""
        return self.energy_price_usd_per_kwh / (1000.0 * 3600.0)


@dataclass(frozen=True)
class DatacenterConfig:
    """Parameters of the physical substrate and its SLA thresholds.

    Attributes:
        overload_threshold: ``beta`` — utilization fraction above which a
            host counts as overloaded (paper: 0.70).
        migration_cpu_threshold: ``alpha`` — during migration, delivered
            CPU below ``alpha * demand`` counts as downtime (paper: 0.30).
        sleep_idle_hosts: put hosts with no VMs to sleep (zero power).
        migration_overhead_fraction: fraction of the migrating VM's CPU
            demand lost to the migration process while it is in flight.
            CloudSim charges 10 % by default; we follow that.
    """

    overload_threshold: float = 0.70
    migration_cpu_threshold: float = 0.30
    sleep_idle_hosts: bool = True
    migration_overhead_fraction: float = 0.10

    def __post_init__(self) -> None:
        _require(0 < self.overload_threshold <= 1, "beta must be in (0, 1]")
        _require(
            0 <= self.migration_cpu_threshold <= 1, "alpha must be in [0, 1]"
        )
        _require(
            0 <= self.migration_overhead_fraction < 1,
            "migration overhead must be in [0, 1)",
        )


@dataclass(frozen=True)
class MeghConfig:
    """Hyper-parameters of the Megh agent (Algorithms 1 and 2).

    Attributes:
        gamma: discount factor of the infinite-horizon MDP (paper: 0.5).
        initial_temperature: ``Temp0`` of Boltzmann exploration (paper: 3).
        temperature_decay: ``epsilon`` — temperature decays by
            ``exp(-epsilon)`` per step (paper: 0.01).
        min_temperature: floor below which the temperature stops decaying,
            keeping the softmax numerically well behaved.
        delta: initial scale of the inverse operator ``B_0 = (1/delta) I``;
            the paper sets ``delta = d`` which is selected when this is None.
        max_migration_fraction: at most this fraction of VMs may be
            migrated per step (paper: 2 %).
        cost_scale: divisor applied to the per-step cost before it enters
            the LSTD update, keeping Q differences on the same scale as
            the Boltzmann temperature.  ``None`` (default) normalizes
            adaptively by the running mean per-step cost.  Purely a
            numerical normalization; does not change the argmin.
        baseline_subtraction: subtract the running mean cost before the
            update, making the learning signal zero-mean (standard RL
            variance reduction; ablatable).
        consolidate_underloaded: also propose consolidation moves away
            from lightly loaded hosts (in addition to mandatory moves off
            overloaded hosts).
        underload_threshold: hosts below this utilization are
            consolidation sources.
        candidate_destinations: number of candidate destination hosts
            scored per migrating VM; ``0`` scores every host.
        max_candidate_vms: per-step cap on VMs whose actions are scored
            (overloaded-host VMs first); ``0`` scores every candidate.
            Together with ``candidate_destinations`` this bounds Megh's
            per-step work, which is what keeps it real-time at scale.
        migration_margin: hysteresis, in normalized-cost units — a
            consolidation move is executed only when its Q beats the
            VM's stay-put Q by this margin.  Prevents ties between
            equally good homes from producing endless ping-pong
            migrations once the temperature has decayed.  Moves off
            *overloaded* hosts are exempt (relief is mandatory).
    """

    gamma: float = 0.5
    initial_temperature: float = 3.0
    temperature_decay: float = 0.01
    min_temperature: float = 1e-3
    delta: float | None = None
    max_migration_fraction: float = 0.02
    cost_scale: float | None = None
    baseline_subtraction: bool = True
    consolidate_underloaded: bool = True
    underload_threshold: float = 0.20
    candidate_destinations: int = 6
    max_candidate_vms: int = 32
    migration_margin: float = 0.01
    destination_headroom: float = 0.40

    def __post_init__(self) -> None:
        _require(0 <= self.gamma < 1, "gamma must be in [0, 1)")
        _require(self.initial_temperature > 0, "Temp0 must be > 0")
        _require(self.temperature_decay >= 0, "epsilon must be >= 0")
        _require(self.min_temperature > 0, "min temperature must be > 0")
        _require(
            self.delta is None or self.delta > 0, "delta must be > 0 or None"
        )
        _require(
            0 < self.max_migration_fraction <= 1,
            "migration cap must be in (0, 1]",
        )
        _require(
            self.cost_scale is None or self.cost_scale > 0,
            "cost scale must be > 0 or None",
        )
        _require(
            0 <= self.underload_threshold <= 1,
            "underload threshold must be in [0, 1]",
        )
        _require(
            self.candidate_destinations >= 0,
            "candidate destinations must be >= 0",
        )
        _require(
            self.max_candidate_vms >= 0,
            "max candidate VMs must be >= 0",
        )
        _require(
            self.migration_margin >= 0,
            "migration margin must be >= 0",
        )
        _require(
            0 < self.destination_headroom <= 1,
            "destination headroom must be in (0, 1]",
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level simulation parameters.

    Attributes:
        interval_seconds: ``tau`` — seconds between observations (300 s).
        num_steps: number of discrete steps to simulate.
        seed: master seed; every stochastic component derives its stream
            from it, making runs reproducible.
        costs: cost-model parameters.
        datacenter: substrate parameters.
    """

    interval_seconds: float = DEFAULT_INTERVAL_SECONDS
    num_steps: int = 288
    seed: int = 42
    costs: CostConfig = field(default_factory=CostConfig)
    datacenter: DatacenterConfig = field(default_factory=DatacenterConfig)

    def __post_init__(self) -> None:
        _require(self.interval_seconds > 0, "interval must be > 0")
        _require(self.num_steps > 0, "num_steps must be > 0")

    @property
    def total_seconds(self) -> float:
        """Wall-clock span covered by the simulation."""
        return self.interval_seconds * self.num_steps
