"""Runtime numerical contracts: Sherman–Morrison drift audit and toggles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agent import MeghScheduler
from repro.core.contracts import (
    ContractConfig,
    NumericalContractError,
    ShermanMorrisonAuditor,
    contracts_enabled,
    require_finite,
)
from repro.core.dense import DenseLstd
from repro.core.lstd import SparseLstd
from repro.errors import ConfigurationError
from repro.harness.runner import run_scheduler


def drive(lstd, auditor, updates=50, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(updates):
        a = int(rng.integers(0, lstd.dimension))
        b = int(rng.integers(0, lstd.dimension))
        lstd.update(a, b, float(rng.normal()))
        auditor.after_update(a, b)


class TestConfig:
    def test_defaults_valid(self):
        config = ContractConfig()
        assert config.audit_every >= 1
        assert config.tolerance > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"audit_every": 0},
            {"tolerance": 0.0},
            {"max_audit_dimension": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ContractConfig(**kwargs)

    def test_toggle_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert contracts_enabled() is False
        assert contracts_enabled(default=True) is True
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled() is True
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        assert contracts_enabled() is False

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1", True), ("TRUE", True), (" yes ", True), ("On", True),
            ("0", False), ("False", False), ("no", False), ("OFF", False),
            ("", False),
        ],
    )
    def test_toggle_accepted_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_CONTRACTS", raw)
        assert contracts_enabled(default=not expected) is expected

    @pytest.mark.parametrize("raw", ["enable", "tru", "2", "y", "disabled"])
    def test_toggle_rejects_unknown_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CONTRACTS", raw)
        with pytest.raises(ConfigurationError, match="REPRO_CONTRACTS"):
            contracts_enabled()


class TestRequireFinite:
    def test_passes_through_finite(self):
        assert require_finite("x", 1.25) == 1.25

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_raises_on_non_finite(self, bad):
        with pytest.raises(NumericalContractError):
            require_finite("cost", bad)


class TestShermanMorrisonAudit:
    def test_clean_incremental_inverse_passes(self):
        lstd = SparseLstd(dimension=10, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10_000)
        )
        drive(lstd, auditor, updates=80)
        assert auditor.audit() == []
        assert auditor.last_drift is not None
        assert auditor.last_drift < 1e-9

    def test_corrupted_inverse_is_caught(self):
        lstd = SparseLstd(dimension=8, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10_000)
        )
        drive(lstd, auditor, updates=40)
        lstd.B.set(2, 3, lstd.B.get(2, 3) + 1e-3)  # deliberate corruption
        with pytest.raises(NumericalContractError, match="drift"):
            auditor.audit()

    def test_periodic_audit_fires_on_schedule(self):
        lstd = SparseLstd(dimension=6, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10)
        )
        drive(lstd, auditor, updates=35)
        assert auditor.audits_run == 3

    def test_record_only_mode_collects_instead_of_raising(self):
        lstd = SparseLstd(dimension=6, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd,
            ContractConfig(audit_every=10_000, raise_on_violation=False),
        )
        drive(lstd, auditor, updates=20)
        lstd.B.set(0, 0, lstd.B.get(0, 0) + 1.0)
        violations = auditor.audit()
        assert violations and auditor.violations

    def test_skipped_updates_stay_consistent(self):
        # gamma=0 with a == a' makes the denominator 1 + B[a,a]; driving
        # B[a,a] toward -1 exercises the skip path without blowing up.
        lstd = SparseLstd(dimension=4, gamma=0.0)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10_000)
        )
        drive(lstd, auditor, updates=60, seed=3)
        assert auditor.audit() == []

    def test_dense_lstd_supported(self):
        lstd = DenseLstd(dimension=7, gamma=0.4)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10_000)
        )
        drive(lstd, auditor, updates=50, seed=5)
        assert auditor.audit() == []

    def test_sparse_and_dense_agree_under_audit(self):
        sparse = SparseLstd(dimension=6, gamma=0.5)
        dense = DenseLstd(dimension=6, gamma=0.5)
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = int(rng.integers(0, 6))
            b = int(rng.integers(0, 6))
            cost = float(rng.normal())
            sparse.update(a, b, cost)
            dense.update(a, b, cost)
        np.testing.assert_allclose(
            sparse.B.to_dense(), dense.B, atol=1e-10
        )

    def test_large_dimension_disables_dense_mirror(self):
        lstd = SparseLstd(dimension=50, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(max_audit_dimension=10)
        )
        assert auditor.dense_mirror_active is False
        drive(lstd, auditor, updates=20)
        assert auditor.audit() == []  # finiteness/shape checks still run
        assert auditor.last_drift is None

    def test_non_finite_theta_is_caught(self):
        lstd = SparseLstd(dimension=5, gamma=0.5)
        auditor = ShermanMorrisonAuditor(
            lstd, ContractConfig(audit_every=10_000)
        )
        lstd.z[0] = float("nan")
        with pytest.raises(NumericalContractError, match="finite"):
            auditor.audit()


class TestAgentIntegration:
    def test_agent_enables_auditor_under_test_config(self):
        # tests/conftest.py sets REPRO_CONTRACTS=1 for the whole suite.
        scheduler = MeghScheduler(num_vms=4, num_pms=3)
        assert scheduler.auditor is not None
        assert scheduler.auditor.dense_mirror_active

    def test_agent_contracts_opt_out(self):
        scheduler = MeghScheduler(num_vms=4, num_pms=3, contracts=False)
        assert scheduler.auditor is None

    def test_agent_run_observes_updates_and_stays_clean(
        self, tiny_simulation
    ):
        config = ContractConfig(audit_every=5, tolerance=1e-8)
        scheduler = MeghScheduler.from_simulation(
            tiny_simulation, seed=0, contracts=config
        )
        run_scheduler(tiny_simulation, scheduler, num_steps=15)
        assert scheduler.auditor is not None
        assert scheduler.auditor.updates_observed > 0
        assert scheduler.auditor.violations == []
        # End-of-run audit against a fresh solve still passes.
        assert scheduler.auditor.audit() == []
