"""Seeded-in defects: five more spellings of an unseeded RNG factory."""

import random

import numpy as np
import numpy.random as npr
from numpy.random import default_rng


def build():
    return (
        np.random.RandomState(),
        np.random.PCG64(),
        random.Random(),
        npr.default_rng(),
        default_rng(),
    )
