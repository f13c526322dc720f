"""Seeded MEGH021 defects at the C ABI boundary.

Three ways to hand the kernel a pointer it must not trust: a declared
buffer constructed with the wrong element type, a declared buffer
rebound to a view, and a raw ``.ctypes`` read on an uncontracted
parameter.
"""

import numpy as np


class Kernel:
    def setup(self):
        # Defect 1: '_cmb_idx' is declared int64 but built float64.
        self._cmb_idx = np.zeros(64, dtype=np.float64)
        # Defect 2: '_scratch_a_val' rebound to a view — not an owning buffer.
        self._scratch_a_val = self._vals_flat[:32]

    def marshal(self, batch):
        # Defect 3: no witnessed construction path for 'batch'.
        return batch.ctypes.data
