"""Baseline schedulers the paper compares Megh against.

* the MMT dynamic-consolidation family (THR/IQR/MAD/LR/LRR detection,
  minimum-migration-time selection, power-aware best-fit placement)
  following Beloglazov & Buyya;
* MadVM, the approximate-MDP value-iteration scheduler;
* offline-trained tabular Q-learning;
* trivial no-op and random schedulers for calibration.
"""

from repro.baselines.noop import NoMigrationScheduler
from repro.baselines.random_policy import RandomScheduler
from repro.baselines.madvm import MadVMScheduler
from repro.baselines.qlearning import QLearningScheduler
from repro.baselines.mmt.scheduler import MMTScheduler

__all__ = [
    "NoMigrationScheduler",
    "RandomScheduler",
    "MadVMScheduler",
    "QLearningScheduler",
    "MMTScheduler",
]
