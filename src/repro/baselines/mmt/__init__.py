"""The MMT dynamic-consolidation family (Beloglazov & Buyya).

Three pluggable stages: overload *detection* (THR, IQR, MAD, LR, LRR),
VM *selection* (minimum migration time), and *placement* (power-aware
best-fit decreasing).
"""

from repro.baselines.mmt.detection import (
    IqrDetector,
    LocalRegressionDetector,
    MadDetector,
    OverloadDetector,
    RobustLocalRegressionDetector,
    ThresholdDetector,
    make_detector,
)
from repro.baselines.mmt.selection import MinimumMigrationTimeSelection
from repro.baselines.mmt.placement import power_aware_best_fit
from repro.baselines.mmt.scheduler import MMTScheduler

__all__ = [
    "OverloadDetector",
    "ThresholdDetector",
    "IqrDetector",
    "MadDetector",
    "LocalRegressionDetector",
    "RobustLocalRegressionDetector",
    "make_detector",
    "MinimumMigrationTimeSelection",
    "power_aware_best_fit",
    "MMTScheduler",
]
