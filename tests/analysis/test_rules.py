"""Per-rule positive/negative fixtures for the MEGH rule set.

Fixture sources intentionally violate the rules; this module itself is
never linted by meghlint (the default lint paths are src/ and
benchmarks/), so the snippets live in plain strings.
"""

from __future__ import annotations

import pytest

from repro.analysis import LintConfig, lint_source
from repro.analysis.diagnostics import Severity
from repro.analysis.rules import RULE_REGISTRY, all_rule_ids, build_rules


def findings(source: str, rule_id: str):
    result = lint_source(source, config=LintConfig(select=[rule_id]))
    return result.diagnostics


class TestRegistry:
    def test_all_rules_registered(self):
        assert all_rule_ids() == [
            "MEGH001",
            "MEGH002",
            "MEGH003",
            "MEGH004",
            "MEGH005",
            "MEGH006",
            "MEGH007",
            "MEGH008",
            "MEGH009",
        ]

    def test_every_rule_has_summary_and_severity(self):
        for rule_class in RULE_REGISTRY.values():
            assert rule_class.summary
            assert isinstance(rule_class.severity, Severity)

    def test_build_rules_rejects_unknown_ids(self):
        with pytest.raises(ValueError, match="MEGH999"):
            build_rules(select=["MEGH999"])


class TestMegh001UnseededRandomness:
    def test_flags_numpy_global_rng(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        hits = findings(source, "MEGH001")
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "process-global RNG" in hits[0].message

    def test_flags_stdlib_random_calls(self):
        source = "import random\nrandom.seed(3)\ny = random.random()\n"
        assert len(findings(source, "MEGH001")) == 2

    def test_flags_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        hits = findings(source, "MEGH001")
        assert len(hits) == 1
        assert "without a seed" in hits[0].message

    def test_flags_from_random_import(self):
        source = "from random import shuffle\n"
        assert len(findings(source, "MEGH001")) == 1

    def test_resolves_import_aliases_for_global_rng_calls(self):
        source = (
            "import random as rnd\n"
            "import numpy.random as npr\n"
            "from numpy.random import rand\n"
            "from random import shuffle\n"
            "rnd.shuffle([1])\n"
            "npr.rand(2)\n"
            "rand(2)\n"
            "shuffle([1])\n"
        )
        hits = findings(source, "MEGH001")
        # The bare ``shuffle`` call is reported once, at its import.
        assert sorted(hit.line for hit in hits) == [4, 5, 6, 7]

    def test_allows_seeded_generator(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "x = rng.random()\n"
            "y = rng.choice([1, 2])\n"
        )
        assert findings(source, "MEGH001") == []

    def test_allows_methods_on_injected_generator(self):
        source = (
            "class A:\n"
            "    def roll(self):\n"
            "        return self._rng.random()\n"
        )
        assert findings(source, "MEGH001") == []


class TestMegh002WallClock:
    def test_flags_time_time(self):
        source = "import time\nstart = time.time()\n"
        hits = findings(source, "MEGH002")
        assert len(hits) == 1
        assert "wall clock" in hits[0].message

    def test_flags_datetime_now(self):
        source = (
            "import datetime\n"
            "stamp = datetime.datetime.now()\n"
            "day = datetime.date.today()\n"
        )
        assert len(findings(source, "MEGH002")) == 2

    def test_allows_perf_counter(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert findings(source, "MEGH002") == []


class TestMegh003FloatEquality:
    def test_flags_equality_with_float_literal(self):
        source = "def f(x):\n    return x == 0.0\n"
        hits = findings(source, "MEGH003")
        assert len(hits) == 1
        assert hits[0].severity is Severity.WARNING

    def test_flags_inequality_and_signed_literals(self):
        source = "def f(x):\n    return x != -1.0\n"
        assert len(findings(source, "MEGH003")) == 1

    def test_allows_integer_comparison(self):
        source = "def f(n):\n    return n == 0\n"
        assert findings(source, "MEGH003") == []

    def test_allows_ordering_comparisons(self):
        source = "def f(x):\n    return x <= 0.0 or x > 1.0\n"
        assert findings(source, "MEGH003") == []


class TestMegh004MutableDefaults:
    def test_flags_list_dict_set_defaults(self):
        source = "def f(a=[], b={}, c=set()):\n    return a, b, c\n"
        assert len(findings(source, "MEGH004")) == 3

    def test_flags_keyword_only_defaults(self):
        source = "def f(*, cache=dict()):\n    return cache\n"
        assert len(findings(source, "MEGH004")) == 1

    def test_allows_none_and_tuples(self):
        source = "def f(a=None, b=(), c=0):\n    return a, b, c\n"
        assert findings(source, "MEGH004") == []


class TestMegh005SeedPlumbing:
    def test_flags_scheduler_without_seed_parameter(self):
        source = (
            "import numpy as np\n"
            "class GreedyScheduler:\n"
            "    def __init__(self, beta):\n"
            "        self._rng = np.random.default_rng(12)\n"
        )
        hits = findings(source, "MEGH005")
        assert len(hits) == 1
        assert "GreedyScheduler" in hits[0].message

    def test_allows_seed_parameter(self):
        source = (
            "import numpy as np\n"
            "class GreedyScheduler:\n"
            "    def __init__(self, seed=0):\n"
            "        self._rng = np.random.default_rng(seed)\n"
        )
        assert findings(source, "MEGH005") == []

    def test_allows_rng_built_in_seeded_classmethod(self):
        source = (
            "import numpy as np\n"
            "class FaultInjector:\n"
            "    def __init__(self, events):\n"
            "        self.events = events\n"
            "    @classmethod\n"
            "    def sample(cls, seed=0):\n"
            "        rng = np.random.default_rng(seed)\n"
            "        return cls([rng.random()])\n"
        )
        assert findings(source, "MEGH005") == []

    def test_private_classes_exempt(self):
        source = (
            "import numpy as np\n"
            "class _Probe:\n"
            "    def __init__(self):\n"
            "        self._rng = np.random.default_rng(7)\n"
        )
        assert findings(source, "MEGH005") == []


class TestMegh006SwallowedExceptions:
    def test_flags_bare_except(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 2\n"
        )
        hits = findings(source, "MEGH006")
        assert len(hits) == 1
        assert "bare" in hits[0].message

    def test_flags_broad_swallow(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        run()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert len(findings(source, "MEGH006")) == 1

    def test_allows_specific_handler_with_action(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        run()\n"
            "    except ValueError:\n"
            "        raise RuntimeError('bad input')\n"
        )
        assert findings(source, "MEGH006") == []

    def test_allows_broad_handler_that_acts(self):
        source = (
            "def f(log):\n"
            "    try:\n"
            "        run()\n"
            "    except Exception as error:\n"
            "        log.warning('run failed: %s', error)\n"
            "        raise\n"
        )
        assert findings(source, "MEGH006") == []


class TestMegh007AdHocParallelism:
    def path_findings(self, source: str, path: str):
        result = lint_source(
            source, path=path, config=LintConfig(select=["MEGH007"])
        )
        return result.diagnostics

    def test_flags_multiprocessing_import(self):
        hits = findings("import multiprocessing\n", "MEGH007")
        assert len(hits) == 1
        assert "ExecutionEngine" in hits[0].message

    def test_flags_multiprocessing_submodule(self):
        assert len(findings("import multiprocessing.pool\n", "MEGH007")) == 1
        assert len(
            findings("from multiprocessing import Pool\n", "MEGH007")
        ) == 1

    def test_flags_concurrent_futures(self):
        assert len(findings("import concurrent.futures\n", "MEGH007")) == 1
        assert len(
            findings(
                "from concurrent.futures import ProcessPoolExecutor\n",
                "MEGH007",
            )
        ) == 1
        assert len(
            findings("from concurrent import futures\n", "MEGH007")
        ) == 1

    def test_engine_package_exempt(self):
        source = "import multiprocessing\n"
        assert (
            self.path_findings(source, "src/repro/engine/pool.py") == []
        )
        assert len(self.path_findings(source, "src/repro/cli.py")) == 1

    def test_allows_threading_and_unrelated_imports(self):
        assert findings("import threading\nimport json\n", "MEGH007") == []
        assert (
            findings("from concurrent import interpreters\n", "MEGH007")
            == []
        )


class TestMegh008FullDimensionScan:
    CORE_PATH = "src/repro/core/lstd.py"

    @staticmethod
    def path_findings(source: str, path: str):
        result = lint_source(
            source, path=path, config=LintConfig(select=["MEGH008"])
        )
        return result.diagnostics

    def test_flags_range_dimension_loop_in_core(self):
        source = (
            "def theta(self):\n"
            "    for i in range(self.dimension):\n"
            "        self.q_value(i)\n"
        )
        hits = self.path_findings(source, self.CORE_PATH)
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "O(d)" in hits[0].message

    def test_flags_bare_dimension_name(self):
        source = (
            "def scan(dimension):\n"
            "    for i in range(dimension):\n"
            "        print(i)\n"
        )
        assert len(self.path_findings(source, self.CORE_PATH)) == 1

    def test_flags_range_with_start_and_step(self):
        source = (
            "def scan(m):\n"
            "    for i in range(0, m.dimension, 2):\n"
            "        print(i)\n"
        )
        assert len(self.path_findings(source, self.CORE_PATH)) == 1

    def test_non_core_paths_exempt(self):
        source = (
            "def scan(m):\n"
            "    for i in range(m.dimension):\n"
            "        print(i)\n"
        )
        assert self.path_findings(source, "src/repro/harness/run.py") == []
        assert findings(source, "MEGH008") == []

    def test_allows_sparse_support_iteration(self):
        source = (
            "def theta(self):\n"
            "    for j in self.z:\n"
            "        rows = self.B.rows_with_column(j)\n"
            "    for i in range(10):\n"
            "        pass\n"
        )
        assert self.path_findings(source, self.CORE_PATH) == []

    def test_suppression_comment_is_honoured(self):
        source = (
            "def dense_scan(self):\n"
            "    for i in range(self.dimension):  "
            "# meghlint: ignore[MEGH008] -- deliberate dense ablation\n"
            "        print(i)\n"
        )
        assert self.path_findings(source, self.CORE_PATH) == []


class TestMegh009PerEntityFleetLoops:
    CLOUDSIM_PATH = "src/repro/cloudsim/sharing.py"

    @staticmethod
    def path_findings(source: str, path: str):
        result = lint_source(
            source, path=path, config=LintConfig(select=["MEGH009"])
        )
        return result.diagnostics

    def test_flags_vm_loop_in_cloudsim(self):
        source = (
            "def share(self):\n"
            "    for vm in self.datacenter.vms:\n"
            "        vm.deliver()\n"
        )
        hits = self.path_findings(source, self.CLOUDSIM_PATH)
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "'vms'" in hits[0].message

    def test_flags_private_pm_loop(self):
        source = (
            "def totals(self):\n"
            "    for pm in self._pms:\n"
            "        pm.total()\n"
        )
        assert len(self.path_findings(source, self.CLOUDSIM_PATH)) == 1

    def test_unwraps_iteration_wrappers(self):
        source = (
            "def scan(dc):\n"
            "    for i, vm in enumerate(dc.vms):\n"
            "        print(i, vm)\n"
            "    for pm in sorted(dc.pms):\n"
            "        print(pm)\n"
        )
        assert len(self.path_findings(source, self.CLOUDSIM_PATH)) == 2

    def test_flags_dict_view_iteration(self):
        source = (
            "def summary(self):\n"
            "    return [r.f for r in self.vms.values()]\n"
        )
        assert len(self.path_findings(source, self.CLOUDSIM_PATH)) == 1

    def test_flags_comprehensions(self):
        source = "def demand(dc):\n    return sum(v.mips for v in dc.vms)\n"
        assert len(self.path_findings(source, self.CLOUDSIM_PATH)) == 1

    def test_other_iterables_allowed(self):
        source = (
            "def work(self, ids):\n"
            "    for vm_id in ids:\n"
            "        print(vm_id)\n"
            "    for row in self.arrays.host_of:\n"
            "        print(row)\n"
        )
        assert self.path_findings(source, self.CLOUDSIM_PATH) == []

    def test_non_cloudsim_paths_exempt(self):
        source = (
            "def scan(dc):\n"
            "    for vm in dc.vms:\n"
            "        print(vm)\n"
        )
        assert self.path_findings(source, "src/repro/harness/run.py") == []
        assert findings(source, "MEGH009") == []

    def test_reference_oracle_exempt(self):
        # The loop-based oracle lives with the tests, outside the rule's
        # scope; a cloudsim module has no exemption by name.
        source = (
            "def share(self):\n"
            "    for pm in self._pms:\n"
            "        pm.total()\n"
        )
        path = "tests/oracles/reference_datacenter.py"
        assert self.path_findings(source, path) == []
        old_path = "src/repro/cloudsim/reference.py"
        assert len(self.path_findings(source, old_path)) == 1

    def test_suppression_comment_is_honoured(self):
        source = (
            "def rebind(self):\n"
            "    for vm in self._vms:  "
            "# meghlint: ignore[MEGH009] -- one-time binding\n"
            "        vm.bind()\n"
        )
        assert self.path_findings(source, self.CLOUDSIM_PATH) == []

    def test_flags_agent_hot_paths(self):
        # The decide() pipeline went array-native; entity loops there
        # are as hot as the simulator's.
        source = (
            "def scan(self, datacenter):\n"
            "    for pm in datacenter.pms:\n"
            "        print(pm)\n"
        )
        for path in (
            "src/repro/core/agent.py",
            "src/repro/core/candidates.py",
        ):
            hits = self.path_findings(source, path)
            assert len(hits) == 1, path
            assert "'pms'" in hits[0].message

    def test_other_core_modules_stay_exempt(self):
        # Only the candidate/decide hot-path modules are covered; the
        # rest of repro/core has no fleet objects to walk.
        source = (
            "def scan(self, datacenter):\n"
            "    for pm in datacenter.pms:\n"
            "        print(pm)\n"
        )
        assert self.path_findings(source, "src/repro/core/lstd.py") == []

    def test_agent_scalar_oracle_suppression_fires(self):
        # The retained scalar generator in the real agent module keeps a
        # reasoned suppression on its per-PM loop — and it must fire
        # (the self-lint test rejects stale suppressions).
        source = (
            "def feasible(self, datacenter):\n"
            "    for pm in datacenter.pms:  "
            "# meghlint: ignore[MEGH009] -- scalar differential oracle "
            "retained as the spec\n"
            "        print(pm)\n"
        )
        assert self.path_findings(source, "src/repro/core/agent.py") == []
