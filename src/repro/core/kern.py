"""meghkern — the deferred rank-k Sherman–Morrison flush engine and the
compiled kernel library.

:class:`PendingUpdates` stages up to ``window`` rank-1 updates of a
:class:`~repro.core.sparse.SparseMatrix` without touching a float:
enqueue stores the normalized right factor and marks the rows it may
touch dirty.  A read flushes exactly the rows it touches, replaying the
staged updates in submission order from the row's watermark, and a
full window flushes every dirty row.  The replay is bit-identical to
the eager scatter: Megh's left factor is a column of ``B``, so the
weight an update applies to row ``i`` is ``B[i, a]``, an entry of row
``i`` read after every earlier staged update; extra dirty rows read
weight 0 and skip; and both backends prune by one rule,
``|v| <= PRUNE_EPSILON``.  A direct write settles its row first
(:meth:`PendingUpdates.settle_row`).  A flush preserves the matrix's
logical value, so it bumps :attr:`PendingUpdates.mutations`, never
``SparseMatrix.mutations`` (MEGH011 checks the pairing).

:class:`CKernel` loads the library, compiled on demand from
``kernel.c`` with the system compiler (``-ffp-contract=off
-fno-fast-math``, so no fused multiply-add changes a rounding) and
cached on disk (``REPRO_KERNEL_CACHE``).  Its entry points:
``megh_flush_rows`` replays rows straight into the matrix's slot
tables, ``megh_combine_rows`` fuses a learning step's row combine,
``megh_plan_candidates`` builds Megh's candidate plan
(:class:`~repro.core.candidates.CandidateIndex`) and ``megh_plan_mmt``
MMT's placement pass
(:class:`~repro.baselines.mmt.placement.CompiledPlacement`), each
array for array its eager path's.  Every int64 block they share with
Python is declared once below (``S_*``, ``A_*``, ``ST_*``, ``NEED_*``,
``P_*``, ``M_*``) and reaches the C as enums.

``REPRO_KERNEL`` selects the backend: ``auto`` (default; compiled when
a compiler is available, eager otherwise), ``c`` (require it) or
``off`` (eager, no deferral, ``kernel.c`` never read).  The eager path
is both the fallback and the reference the library is tested against.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sparse imports us)
    from repro.core.sparse import SparseMatrix

__all__ = [
    "CKernel",
    "DEFAULT_WINDOW",
    "KernelUnavailableError",
    "PendingUpdates",
    "carve",
    "make_backend",
    "make_pending",
    "resolve_mode",
]

#: Maximum staged rank before an automatic full flush (read by
#: :func:`make_pending` at call time).
DEFAULT_WINDOW = 128

#: Largest window a per-row one-byte watermark can address.
_MAX_WINDOW = 255

_VALID_MODES = ("auto", "c", "off")


class KernelUnavailableError(ConfigurationError):
    """Raised when ``REPRO_KERNEL=c`` but no compiled kernel can be built."""


def resolve_mode() -> str:
    """Read ``REPRO_KERNEL`` (validated; default ``auto``).

    Read per call — i.e. per matrix construction — so tests can flip the
    variable with ``monkeypatch.setenv`` without re-importing anything.
    """
    raw = os.environ.get("REPRO_KERNEL", "auto")
    mode = raw.strip().lower() or "auto"
    if mode not in _VALID_MODES:
        raise ConfigurationError(
            f"REPRO_KERNEL={raw!r} invalid; expected one of {_VALID_MODES}"
        )
    return mode


# ----------------------------------------------------------------------
# The compiled backend
# ----------------------------------------------------------------------

# Every index of the library's int64 blocks is declared here once, as a
# plain int.  The C source sees the same names as enums, which
# :func:`_compiled_text` emits from these declarations ahead of
# ``kernel.c``, so the two sides cannot disagree.  A block's members
# are numbered 0 .. n - 1; a ``*_FIELDS`` or ``*_SLOTS`` name comes
# last and is the block's length.

#: Slot-table block of one :class:`~repro.core.sparse.SparseMatrix`,
#: read and written in place by the kernel and the eager path: the
#: table pointers, then the pool and slot bump allocators and the
#: layout counters.  Row i lives at ``pool[off[s] .. off[s] + len[s])``
#: of slot ``s = slot_of[i]`` (capacity ``cap[s]``); slot 0 is the null
#: slot, so ``slot_of[i] == 0`` means the row is the implicit diagonal
#: ``diag[i]``.
S_DIAG = 0
S_SLOT_OF = 1
S_SLOT_ROW = 2
S_OFF = 3
S_LEN = 4
S_CAP = 5
S_POOL_IDX = 6
S_POOL_VAL = 7
S_POOL_TOP = 8
S_POOL_CAP = 9
S_SLOT_TOP = 10
S_SLOT_CAP = 11
S_MIN_CAP = 12
S_RELOCATIONS = 13
S_COMPACTIONS = 14
S_FIELDS = 15

#: Argument block of ``megh_flush_rows``: one persistent array of
#: :class:`CKernel` carrying every scalar and buffer pointer, so a call
#: converts two ctypes arguments instead of about twenty (the hot path
#: flushes one or two rows thousands of times a second).
A_STORE = 0
A_N_ROWS = 1
A_ROW_BEGIN = 2
A_ROWS = 3
A_STARTS = 4
A_N_UPDATES = 5
A_PIVOTS = 6
A_SCALES = 7
A_UPD_OFFSETS = 8
A_COLS = 9
A_VALS = 10
A_CHG_ROWS = 11
A_CHG_COLS = 12
A_CHG_CAP = 13
A_SCRATCH_A_IDX = 14
A_SCRATCH_A_VAL = 15
A_SCRATCH_B_IDX = 16
A_SCRATCH_B_VAL = 17
A_SCRATCH_CAP = 18
A_PIV_SORTED = 19
A_PIV_ORDER = 20
A_CAND = 21
A_STATS = 22
A_SLOTS = 23

#: Stats block every ``megh_flush_rows`` call writes.
ST_APPLIED = 0
ST_SKIPPED = 1
ST_NNZ_DELTA = 2
ST_CHANGES = 3
ST_NEED = 4
ST_NEED_SIZE = 5
ST_FIELDS = 6

#: Why a flush stopped early (``ST_NEED``): the caller grows what is
#: named by ``ST_NEED_SIZE`` and calls again from the returned row.
NEED_NONE = 0
NEED_SCRATCH = 1
NEED_CHANGES = 2
NEED_SLOT = 3
NEED_POOL = 4

#: Argument block of ``megh_plan_candidates``: one array per
#: :class:`~repro.core.candidates.CandidateIndex` carrying the fleet's
#: array pointers, a pointer to each region of its flag bytes and int64
#: scratch (carved in Python), the config caps and the output pointers.
P_NUM_VMS = 0
P_NUM_PMS = 1
P_HOST_OF = 2
P_VM_RAM = 3
P_VM_DEMAND = 4
P_VM_MIPS = 5
P_PM_VM_COUNT = 6
P_UTIL = 7
P_RAM_FREE = 8
P_PM_DEMAND = 9
P_BUDGET = 10
P_BUDGET_FULL = 11
P_VM_ACTIVE = 12
P_OVERLOADED = 13
P_SEEN = 14
P_BUCKET = 15
P_BY_HOST = 16
P_UNDER = 17
P_UNDER_SORTED = 18
P_LEVEL = 19
P_DESTS = 20
P_TOP = 21
P_CONSOLIDATE = 22
P_MAX_VMS = 23
P_MAX_DESTS = 24
P_VM_IDS = 25
P_SOURCES = 26
P_MANDATORY = 27
P_OFFSETS = 28
P_DEST_PM = 29
P_ACTIONS = 30
P_ACTION_CAP = 31
P_N_ACTIONS = 32
P_SLOTS = 33

#: Argument block of ``megh_plan_mmt``: one array per
#: :class:`~repro.baselines.mmt.placement.CompiledPlacement` carrying
#: the fleet's VM vectors, a pointer to each region of its int64,
#: double and flag buffers (carved in Python), the output pairs and the
#: step's input counts.  ``M_MODELS`` holds 12 doubles a power model.
M_NUM_VMS = 0
M_NUM_PMS = 1
M_HOST_OF = 2
M_VM_RAM = 3
M_VM_DEMAND = 4
M_VM_MIPS = 5
M_MODEL_OF = 6
M_BOUNDS = 7
M_BY_HOST = 8
M_RELIEF = 9
M_HOSTS = 10
M_ORDER = 11
M_TOUCHED = 12
M_PM_MIPS = 13
M_RAM_FREE = 14
M_PM_DEMAND = 15
M_WAKE = 16
M_BEFORE = 17
M_PEND_MIPS = 18
M_PEND_RAM = 19
M_MODELS = 20
M_EXCLUDED = 21
M_ASLEEP = 22
M_EVACUATED = 23
M_OUT = 24
M_N_RELIEF = 25
M_N_HOSTS = 26
M_SLOTS = 27

#: The layout blocks' name prefixes, in the order the prelude emits them.
_LAYOUT_PREFIXES = ("S_", "A_", "ST_", "NEED_", "P_", "M_")


def carve(
    args: np.ndarray,
    buffer: np.ndarray,
    address: int,
    regions: Sequence[Tuple[int, int]],
) -> List[np.ndarray]:
    """Hand each region of ``buffer`` to C as its own argument slot.

    ``regions`` lists ``(slot, length)`` pairs in buffer order; slot
    ``slot`` of ``args`` gets its region's address (``address`` is
    ``buffer.ctypes.data``).  Returns the regions as views, so an offset
    into the buffer is computed here, never in C.
    """
    views: List[np.ndarray] = []
    offset = 0
    for slot, length in regions:
        args[slot] = address + buffer.itemsize * offset
        views.append(buffer[offset : offset + length])
        offset += length
    return views


#: Compile flags.  ``-ffp-contract=off`` and ``-fno-fast-math`` are
#: load-bearing: a fused multiply-add or a fast-math rewrite would change
#: roundings and break bit-identity with the eager path.  Under them
#: ``-O3 -march=native`` only change speed, never an FP result.
_CFLAGS = (
    "-O3",
    "-march=native",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-fast-math",
)


def _kernel_cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kern")


def _find_compiler() -> Optional[str]:
    for name in ("gcc", "cc", "clang"):
        for prefix in os.environ.get("PATH", "").split(os.pathsep):
            candidate = os.path.join(prefix, name)
            if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                return candidate
    return None


#: ``/proc/cpuinfo`` keys naming the CPU an ``-march=native`` build
#: targets (``Features`` is the aarch64 spelling of ``flags``).
_CPUINFO_KEYS = ("model name", "flags", "Features")


@functools.lru_cache(maxsize=None)
def _toolchain_identity(compiler: str) -> str:
    """What a cached ``.so`` depends on besides its source and flags.

    ``-march=native`` bakes the build host's instruction set into the
    object, so a cache directory shared between machines must never hand
    one CPU's build to another, and an in-place compiler upgrade must
    rebuild.  The identity is the resolved compiler path with its size
    and mtime, ``platform.machine()``, and the first processor's
    ``/proc/cpuinfo`` lines for :data:`_CPUINFO_KEYS` where that file
    exists.  Computed once per process from file metadata: no process
    is spawned.
    """
    resolved = os.path.realpath(compiler)
    stat = os.stat(resolved)
    parts = [
        resolved, str(stat.st_size), str(stat.st_mtime_ns), platform.machine()
    ]
    seen: Dict[str, str] = {}
    try:
        with open(
            "/proc/cpuinfo", encoding="utf-8", errors="replace"
        ) as handle:
            for line in handle:
                if not line.strip() and seen:
                    break  # end of the first processor's block
                key = line.split(":", 1)[0].strip()
                if key in _CPUINFO_KEYS and key not in seen:
                    seen[key] = line.strip()
    except OSError:
        pass  # no /proc (macOS, BSD): the machine name has to do
    parts.extend(seen[key] for key in _CPUINFO_KEYS if key in seen)
    return "\n".join(parts)


#: The library's C body, shipped as package data beside this module and
#: read only when the library is built.
_KERNEL_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "kernel.c"
)


def _compiled_text() -> str:
    """The exact text the library is built from (see :func:`_text_at`)."""
    return _text_at(_KERNEL_SOURCE)


@functools.lru_cache(maxsize=None)
def _text_at(source: str) -> str:
    """A prelude with one C ``enum`` per layout block, emitted from the
    declarations above, then ``#line 1 "kernel.c"`` and the file at
    ``source``, so the compiler's messages name the file's own lines.

    Read once a process.  Raises :class:`KernelUnavailableError` naming
    the file when it cannot be read; ``auto`` mode falls back to the
    eager path as after a failed compile.
    """
    try:
        with open(source, encoding="utf-8") as handle:
            body = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise KernelUnavailableError(
            f"REPRO_KERNEL: cannot read the kernel source {source}: {error}"
        ) from error
    declared = globals()
    prelude = "".join(
        "enum { %s };\n" % ", ".join(
            f"{name} = {value}"
            for name, value in declared.items()
            if name.startswith(prefix)
        )
        for prefix in _LAYOUT_PREFIXES
    )
    return prelude + '#line 1 "kernel.c"\n' + body


def _library_digest(compiler: str, text: str) -> str:
    """Cache key of the compiled kernel: text, flags, toolchain, CPU."""
    return _digest_of(text, _toolchain_identity(compiler))


@functools.lru_cache(maxsize=None)
def _digest_of(text: str, identity: str) -> str:
    """:func:`_library_digest` of a toolchain identity, once a process."""
    key = "\0".join((text, " ".join(_CFLAGS), identity))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


#: The compiled library at a path, loaded once per process.
_load_library = functools.lru_cache(maxsize=None)(ctypes.CDLL)


def _compiled_library_path() -> str:
    """Compile (once, cached on disk) and return the .so path.

    The cache entry is named by :func:`_library_digest`, so a build is
    reused only for the same text, flags, compiler and CPU.  Tries
    ``_CFLAGS`` first, then once more without ``-march=native`` for
    toolchains that reject it (the flag never changes FP results, only
    speed).  Raises :class:`KernelUnavailableError` when no compiler is
    available, the source cannot be read or every attempt fails;
    ``auto`` mode catches this and falls back.  A cache directory that cannot be created (say,
    ``REPRO_KERNEL_CACHE`` at or under a regular file) raises a plain
    :class:`ConfigurationError` instead, which no mode falls back from.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "REPRO_KERNEL: no C compiler (gcc/cc/clang) on PATH"
        )
    text = _compiled_text()
    digest = _library_digest(compiler, text)
    cache_dir = _kernel_cache_dir()
    library = os.path.join(cache_dir, f"megh_kern_{digest}.so")
    if os.path.exists(library):
        return library
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as error:
        # Not a fallback case: a misplaced cache is a configuration
        # error even in ``auto`` mode, reported as one line by the CLI.
        raise ConfigurationError(
            f"REPRO_KERNEL_CACHE: cannot use {cache_dir!r} as the kernel "
            f"cache directory: {error}"
        ) from error
    # Per-process staging files, renamed into place atomically: a second
    # cold builder (e.g. an engine worker) must never truncate the source
    # this process is compiling.  The staged source keeps its ``.c``
    # suffix so the compiler still reads it as C.
    source = os.path.join(cache_dir, f"megh_kern_{digest}.c")
    staging_source = os.path.join(
        cache_dir, f"megh_kern_{digest}.{os.getpid()}.c"
    )
    staging = f"{library}.tmp.{os.getpid()}"
    with open(staging_source, "w", encoding="utf-8") as handle:
        handle.write(text)
    flag_sets = (
        _CFLAGS,
        tuple(flag for flag in _CFLAGS if flag != "-march=native"),
    )
    stderr = ""
    try:
        for flags in flag_sets:
            command = [compiler, *flags, "-o", staging, staging_source]
            try:
                result = subprocess.run(
                    command, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as error:
                raise KernelUnavailableError(
                    f"REPRO_KERNEL: compiler invocation failed: {error}"
                ) from error
            if result.returncode == 0:
                os.replace(staging, library)
                os.replace(staging_source, source)
                return library
            stderr = result.stderr
    finally:
        if os.path.exists(staging_source):
            os.remove(staging_source)
    raise KernelUnavailableError(
        "REPRO_KERNEL: compilation failed:\n" + stderr
    )


class CKernel:
    """ctypes wrapper around the compiled grouped flush kernel.

    Holds reusable scratch/output buffers (grow-on-demand, grown when a
    kernel call stops and names what ran short) so a flush allocates
    nothing on the hot path.  The kernel reads and writes the matrix's
    slot tables itself; Python only marshals row ids and watermarks and
    applies the column-index changes the kernel reports.
    """

    name = "c"

    def __init__(self) -> None:
        library = _compiled_library_path()
        try:
            self._lib = _load_library(library)
            self._flush = self._lib.megh_flush_rows
            self._combine = self._lib.megh_combine_rows
            #: ``megh_plan_candidates(args, underload_threshold)``: the
            #: candidate plan's compiled path, marshaled by CandidateIndex.
            self.plan_candidates = self._lib.megh_plan_candidates
            #: ``megh_plan_mmt(args, threshold)``, by CompiledPlacement.
            self.plan_mmt = self._lib.megh_plan_mmt
        except (OSError, AttributeError) as error:  # AttributeError: symbol missing
            raise KernelUnavailableError(
                f"REPRO_KERNEL: cannot load {library}: {error}"
            ) from error
        self._flush.restype = ctypes.c_int64
        self._flush.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self.plan_candidates.restype = ctypes.c_int64
        self.plan_candidates.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self.plan_mmt.restype = ctypes.c_int64
        self.plan_mmt.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self._combine.restype = ctypes.c_int64
        self._combine.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        # Row-combine output buffers (grow-on-demand; see combine_rows).
        self._cmb_idx = np.empty(256, dtype=np.int64)
        self._cmb_val = np.empty(256, dtype=np.float64)
        self._cmb_sz = 256
        self._cmb_entries = np.empty(2, dtype=np.float64)
        self._cmb_idx_ptr = self._cmb_idx.ctypes.data
        self._cmb_val_ptr = self._cmb_val.ctypes.data
        self._cmb_ent_ptr = self._cmb_entries.ctypes.data
        # Argument block (layout ``A_*``): one persistent int64 array
        # carrying every scalar and buffer pointer.
        # Pointer slots are refreshed only when a buffer is (re)allocated,
        # so a hot two-row flush updates a few integer slots and converts
        # two ctypes arguments.
        self._args = np.zeros(A_SLOTS, dtype=np.int64)
        self._args_ptr = self._args.ctypes.data
        self._stats = np.zeros(ST_FIELDS, dtype=np.int64)
        self._args[A_STATS] = self._stats.ctypes.data
        self._chg_rows = np.empty(0, dtype=np.int64)
        self._chg_cols = np.empty(0, dtype=np.int64)
        self._grow_changes(256)
        self._scratch_a_idx = np.empty(0, dtype=np.int64)
        self._scratch_a_val = np.empty(0, dtype=np.float64)
        self._scratch_b_idx = np.empty(0, dtype=np.int64)
        self._scratch_b_val = np.empty(0, dtype=np.float64)
        self._grow_scratch(256)
        # Batch-call candidate mask scratch (sized by the staged window).
        self._piv_sorted = np.empty(0, dtype=np.int64)
        self._piv_order = np.empty(0, dtype=np.int64)
        self._cand = np.empty(0, dtype=np.uint8)
        self._mask_sz = 0
        self._grow_mask(256)
        # Identity caches: pointer slots for the staged update arrays
        # and the row/watermark vectors are refreshed only when those
        # arrays are replaced.
        self._pend_src: Tuple[object, ...] = ()
        self._rows_src: Optional[object] = None
        self._starts_src: Optional[object] = None

    # ------------------------------------------------------------------
    # Buffer growth (pointer slots refreshed with every reallocation)
    # ------------------------------------------------------------------
    def _grow_changes(self, size: int) -> None:
        size = max(size, 2 * int(self._chg_rows.shape[0]))
        self._chg_rows = np.empty(size, dtype=np.int64)
        self._chg_cols = np.empty(size, dtype=np.int64)
        args = self._args
        args[A_CHG_ROWS] = self._chg_rows.ctypes.data
        args[A_CHG_COLS] = self._chg_cols.ctypes.data
        args[A_CHG_CAP] = size

    def _grow_scratch(self, size: int) -> None:
        size = max(size, 2 * int(self._scratch_a_idx.shape[0]))
        self._scratch_a_idx = np.empty(size, dtype=np.int64)
        self._scratch_a_val = np.empty(size, dtype=np.float64)
        self._scratch_b_idx = np.empty(size, dtype=np.int64)
        self._scratch_b_val = np.empty(size, dtype=np.float64)
        args = self._args
        args[A_SCRATCH_A_IDX] = self._scratch_a_idx.ctypes.data
        args[A_SCRATCH_A_VAL] = self._scratch_a_val.ctypes.data
        args[A_SCRATCH_B_IDX] = self._scratch_b_idx.ctypes.data
        args[A_SCRATCH_B_VAL] = self._scratch_b_val.ctypes.data
        args[A_SCRATCH_CAP] = size

    def _grow_mask(self, size: int) -> None:
        size = max(size, 2 * self._mask_sz)
        self._mask_sz = size
        self._piv_sorted = np.empty(size, dtype=np.int64)
        self._piv_order = np.empty(size, dtype=np.int64)
        self._cand = np.empty(size, dtype=np.uint8)
        args = self._args
        args[A_PIV_SORTED] = self._piv_sorted.ctypes.data
        args[A_PIV_ORDER] = self._piv_order.ctypes.data
        args[A_CAND] = self._cand.ctypes.data

    def combine_rows(
        self,
        matrix: "SparseMatrix",
        row_a: int,
        row_b: int,
        gamma: float,
        pivot: int,
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Fused learning-step combine: ``row_a - gamma * row_b``.

        Reads the two *settled* rows (``flush_rows`` first) straight
        from ``matrix``'s slot tables -- implicit-diagonal rows included
        -- and returns the sorted-unique, zero-free ``(columns, values)``
        of the combination plus the two column-``pivot`` entries the
        denominator needs: one C call instead of ~10 small-array NumPy
        ops.  Bit-identical to the NumPy construction in
        ``SparseLstd.update`` (see the C comment).  The returned arrays
        are views into reusable scratch: valid until the next
        ``combine_rows`` call, which is exactly the staging path's
        copy-on-enqueue lifetime.
        """
        store = matrix._store_ptr
        n = self._combine(
            store, row_a, row_b, gamma, pivot, self._cmb_sz,
            self._cmb_idx_ptr, self._cmb_val_ptr, self._cmb_ent_ptr,
        )
        if n < 0:
            size = max(-n, 2 * self._cmb_sz)
            self._cmb_sz = size
            self._cmb_idx = np.empty(size, dtype=np.int64)
            self._cmb_val = np.empty(size, dtype=np.float64)
            self._cmb_idx_ptr = self._cmb_idx.ctypes.data
            self._cmb_val_ptr = self._cmb_val.ctypes.data
            n = self._combine(
                store, row_a, row_b, gamma, pivot, self._cmb_sz,
                self._cmb_idx_ptr, self._cmb_val_ptr, self._cmb_ent_ptr,
            )
        entries = self._cmb_entries
        return (
            self._cmb_idx[:n],
            self._cmb_val[:n],
            float(entries[0]),
            float(entries[1]),
        )

    def replay_rows(
        self,
        matrix: "SparseMatrix",
        rows: np.ndarray,
        starts: np.ndarray,
        pending: "PendingUpdates",
    ) -> Tuple[int, int]:
        """Flush ``rows`` (watermarks in ``starts``) in one kernel call.

        The kernel installs every flushed row in ``matrix``'s slot
        tables itself.  What runs in Python is the column-index update
        for the columns a row gained or lost, and, when the kernel
        stops because a scratch buffer, the slot table or the pool is
        full, growing it and calling again from that row.  The flush is
        representation preserving (the logical matrix value is the same
        with the pendings staged or applied), so ``matrix.mutations`` is
        deliberately untouched.  Returns ``(applied, skipped)``.
        """
        from repro.core.sparse import PRUNE_EPSILON

        n_rows = int(rows.shape[0])
        n_updates = pending._n
        args = self._args
        if n_rows > 4 and n_updates > self._mask_sz:
            self._grow_mask(n_updates)
        old_src = self._pend_src
        upd_offsets = pending._upd_offsets
        if (
            len(old_src) != 5
            or old_src[0] is not pending._pivots
            or old_src[1] is not pending._scales
            or old_src[2] is not upd_offsets
            or old_src[3] is not pending._cols_flat
            or old_src[4] is not pending._vals_flat
        ):
            self._pend_src = (
                pending._pivots,
                pending._scales,
                upd_offsets,
                pending._cols_flat,
                pending._vals_flat,
            )
            args[A_PIVOTS] = pending._pivots.ctypes.data
            args[A_SCALES] = pending._scales.ctypes.data
            args[A_UPD_OFFSETS] = upd_offsets.ctypes.data
            args[A_COLS] = pending._cols_flat.ctypes.data
            args[A_VALS] = pending._vals_flat.ctypes.data
        args[A_STORE] = matrix._store_ptr
        if rows is not self._rows_src:
            self._rows_src = rows
            args[A_ROWS] = rows.ctypes.data
        if starts is not self._starts_src:
            self._starts_src = starts
            args[A_STARTS] = starts.ctypes.data
        args[A_N_ROWS] = n_rows
        args[A_N_UPDATES] = n_updates
        args[A_ROW_BEGIN] = 0
        applied = skipped = 0
        while True:
            done = self._flush(self._args_ptr, PRUNE_EPSILON)
            stats = self._stats.tolist()
            applied += stats[ST_APPLIED]
            skipped += stats[ST_SKIPPED]
            matrix._nnz += stats[ST_NNZ_DELTA]
            if stats[ST_CHANGES]:
                self._apply_column_changes(matrix, stats[ST_CHANGES])
            if done == n_rows:
                return applied, skipped
            need, size = stats[ST_NEED], stats[ST_NEED_SIZE]
            if need == NEED_SCRATCH:
                self._grow_scratch(size)
            elif need == NEED_CHANGES:
                self._grow_changes(size)
            else:
                matrix._repack(1 if need == NEED_SLOT else 0, size)
            args[A_ROW_BEGIN] = done

    def _apply_column_changes(
        self, matrix: "SparseMatrix", changes: int
    ) -> None:
        """Apply the kernel's column-index delta (``~j`` = removed)."""
        matrix_cols = matrix._cols
        support_cache = matrix._support_cache
        for i, j in zip(
            self._chg_rows[:changes].tolist(),
            self._chg_cols[:changes].tolist(),
        ):
            if j >= 0:
                rows_of_column = matrix_cols.get(j)
                if rows_of_column is None:
                    matrix_cols[j] = {i}
                else:
                    rows_of_column.add(i)
                support_cache.pop(j, None)
            else:
                j = ~j
                rows_of_column = matrix_cols.get(j)
                if rows_of_column is not None:
                    rows_of_column.discard(i)
                    if not rows_of_column:
                        del matrix_cols[j]


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array, by one sort and a mask.

    The same values and dtype as ``np.unique(values)``, without its
    NumPy 2.x call to ``np.ma.is_masked``: the first ``np.unique`` of a
    process imports ``numpy.ma`` (about 15 ms and 0.6 MB of RSS), which
    would otherwise land inside Megh's first timed ``decide()``.
    """
    ordered = np.sort(values)
    if ordered.shape[0] < 2:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def make_backend(mode: str) -> Optional[CKernel]:
    """Instantiate the backend for ``mode`` (``None`` means eager)."""
    if mode == "off":
        return None
    try:
        return CKernel()
    except KernelUnavailableError:
        if mode == "c":
            raise
        return None


def make_pending(
    mode: str, dimension: int
) -> Optional["PendingUpdates"]:
    """Build the staging engine for a new matrix (``None`` when eager)."""
    if mode not in _VALID_MODES:
        raise ConfigurationError(
            f"kernel mode {mode!r} invalid; expected one of {_VALID_MODES}"
        )
    backend = make_backend(mode)
    if backend is None:
        return None
    return PendingUpdates(backend, dimension, window=DEFAULT_WINDOW)


class PendingUpdates:
    """Staged rank-k update set for one :class:`SparseMatrix`.

    Enqueue is integer-only bookkeeping (buffering the already
    normalized right-factor arrays plus one vectorized dirty-row
    scatter); every float operation is deferred to a row's first read or
    the window-triggered full flush.  Any change to the staging state —
    enqueue, per-row flush, full flush — bumps :attr:`mutations` so
    stale derived state is detectable (MEGH011 checks this pairing
    against the declared invariant table).
    """

    def __init__(
        self,
        backend: CKernel,
        dimension: int,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if not 1 <= window <= _MAX_WINDOW:
            raise ConfigurationError(
                f"pending window must be in [1, {_MAX_WINDOW}]"
            )
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        self.backend = backend
        self.window = window
        #: Staging-state change counter (enqueues and flushes).
        self.mutations = 0
        self._n = 0
        self._pivots = np.empty(window, dtype=np.int64)
        self._scales = np.empty(window, dtype=np.float64)
        self._upd_offsets = np.zeros(window + 1, dtype=np.int64)
        self._cols_flat = np.empty(max(64, window), dtype=np.int64)
        self._vals_flat = np.empty(max(64, window), dtype=np.float64)
        #: Distinct rows marked dirty this window, in marking order (the
        #: shared prediction/flush superset — see :meth:`enqueue`).
        self._pend_rows = np.empty(max(64, window), dtype=np.int64)
        self._pend_rows_n = 0
        #: Rows with unapplied staged contributions.
        self._dirty = np.zeros(dimension, dtype=bool)
        self._dirty_count = 0
        #: Row -> first staged update not yet applied to it (nonzero only
        #: for rows flushed mid-window; one byte a row, hence
        #: :data:`_MAX_WINDOW`).  Batched flushes gather their watermarks
        #: from it with one fancy index.
        self._watermark = np.zeros(dimension, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- integer bookkeeping, never a float operand; one byte a row keeps it small at d ~ 10^6
        #: Clean rows whose watermark :meth:`settle_row` advanced this
        #: window (cleared with the rest at the window's reset).
        self._advanced: List[int] = []
        # Reusable single-row / row-pair marshaling buffers (the learning
        # step flushes exactly the two rows it is about to read).
        self._one_row = np.empty(1, dtype=np.int64)
        self._one_start = np.empty(1, dtype=np.int64)
        self._two_rows = np.empty(2, dtype=np.int64)
        self._two_starts = np.empty(2, dtype=np.int64)
        # Profiling counters (read by benchmarks/bench_core_lstd.py).
        self.enqueued = 0
        self.row_flushes = 0
        self.full_flushes = 0
        self.applied = 0
        self.skipped = 0
        self.enqueue_seconds = 0.0
        self.flush_seconds = 0.0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of staged rank-1 updates."""
        return self._n

    @property
    def has_pending(self) -> bool:
        """True when any row still has unapplied contributions."""
        return self._dirty_count > 0

    def is_dirty(self, i: int) -> bool:
        """Whether row ``i`` has unapplied staged contributions."""
        return bool(self._dirty[i])

    def enqueue(
        self,
        matrix: "SparseMatrix",
        pivot: int,
        scale: float,
        columns: np.ndarray,
        values: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Stage ``scale * B[:, pivot] (x) values`` touching ``rows``.

        ``columns``/``values`` must already be normalized (sorted, unique,
        zero-free).  ``rows`` must cover every row whose replay weight can
        come from the *stored* image of column ``pivot`` (extra rows are
        fine — a zero-weight row costs one skipped lookup at replay, never
        a wrong float).  Rows reachable only through earlier *staged*
        updates may be omitted, but then they must already be dirty —
        the caller either passes the full pending superset or flushes a
        full window before reading the stored support (see
        ``SparseMatrix.rank_one_update_from_column``).
        """
        started = time.perf_counter()
        if self._n >= self.window:
            self.flush_all(matrix)
        k = self._n
        self._pivots[k] = pivot
        self._scales[k] = scale
        base = int(self._upd_offsets[k])
        count = int(columns.shape[0])
        needed = base + count
        if needed > self._cols_flat.shape[0]:
            new_cap = max(2 * self._cols_flat.shape[0], needed)
            cols_flat = np.empty(new_cap, dtype=np.int64)
            vals_flat = np.empty(new_cap, dtype=np.float64)
            cols_flat[:base] = self._cols_flat[:base]
            vals_flat[:base] = self._vals_flat[:base]
            self._cols_flat = cols_flat
            self._vals_flat = vals_flat
        self._cols_flat[base:needed] = columns
        self._vals_flat[base:needed] = values
        self._upd_offsets[k + 1] = needed
        # ``rows`` may contain duplicates (column_support skips the
        # dedup); track *distinct* newly-dirty rows — they extend the
        # single per-window dirty-row array (the shared superset every
        # prediction and flush enumerates) and keep the zero check that
        # retires the staged window exact.  One flat array instead of
        # per-update row lists: predictions would otherwise embed earlier
        # predictions and compound within the window.
        was_clean = ~self._dirty[rows]
        if was_clean.any():
            candidates = rows[was_clean]
            if candidates.shape[0] <= 16:
                # Steady state: the handful of just-flushed rows get
                # re-marked; a set dedup beats a sorting one.
                fresh = np.fromiter(
                    set(candidates.tolist()), dtype=np.int64
                )
            else:
                fresh = unique_sorted(candidates)
            self._dirty[fresh] = True
            count_new = int(fresh.shape[0])
            self._dirty_count += count_new
            end = self._pend_rows_n + count_new
            if end > self._pend_rows.shape[0]:
                grown = np.empty(
                    max(2 * self._pend_rows.shape[0], end), dtype=np.int64
                )
                grown[: self._pend_rows_n] = self._pend_rows[
                    : self._pend_rows_n
                ]
                self._pend_rows = grown
            self._pend_rows[self._pend_rows_n : end] = fresh
            self._pend_rows_n = end
        self._n = k + 1
        self.enqueued += 1
        self.mutations += 1
        self.enqueue_seconds += time.perf_counter() - started

    def pending_rows_for_column(self, j: int) -> List[np.ndarray]:
        """Rows any staged update could touch (column-independent superset).

        The union of this with the stored column support over-approximates
        the post-flush support of column ``j`` (exact modulo epsilon prunes
        and zero-weight skips) — used for theta dirty-row invalidation and
        for predicting the rows a new rank-1 update can touch.  One shared
        array for all columns: per-column precision is not worth the
        per-enqueue bookkeeping it costs (a zero-weight row is one skipped
        integer lookup at replay, never a wrong float).
        """
        if self._pend_rows_n == 0:
            return []
        return [self._pend_rows[: self._pend_rows_n]]

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def flush_row(self, matrix: "SparseMatrix", i: int) -> None:
        """Apply row ``i``'s staged contributions in submission order."""
        if not self._dirty[i]:
            return
        started = time.perf_counter()
        self._one_row[0] = i
        self._one_start[0] = self._watermark[i]
        applied, skipped = self.backend.replay_rows(
            matrix, self._one_row, self._one_start, self
        )
        self.applied += applied
        self.skipped += skipped
        self.row_flushes += 1
        self.mutations += 1
        self._dirty[i] = False
        self._dirty_count -= 1
        if self._dirty_count == 0:
            self._reset()
        else:
            self._watermark[i] = self._n
        self.flush_seconds += time.perf_counter() - started

    def settle_row(self, matrix: "SparseMatrix", i: int) -> None:
        """Bring row ``i`` up to date before a direct write to it.

        A dirty row is flushed.  A clean row skipped every update staged
        since its watermark (its weight was zero when they were staged),
        but the write may give it one, so its watermark moves to the
        current rank: those updates precede the write and must not
        replay against the written value.
        """
        if self._dirty[i]:
            self.flush_row(matrix, i)
        elif self._n:
            self._watermark[i] = self._n
            self._advanced.append(i)
            self.mutations += 1

    def flush_rows(self, matrix: "SparseMatrix", rows: np.ndarray) -> None:
        """Batched :meth:`flush_row` — one backend call for many rows."""
        if self._dirty_count == 0 or rows.shape[0] == 0:
            return
        if rows.shape[0] == 2:
            # Hot path: the learning step flushes the two rows it reads.
            i0, i1 = int(rows[0]), int(rows[1])
            if i0 == i1:
                self.flush_row(matrix, i0)
                return
            dirty = self._dirty
            first_dirty, second_dirty = bool(dirty[i0]), bool(dirty[i1])
            if not (first_dirty and second_dirty):
                if first_dirty:
                    self.flush_row(matrix, i0)
                elif second_dirty:
                    self.flush_row(matrix, i1)
                return
            started = time.perf_counter()
            pair = self._two_rows
            pair[0] = i0
            pair[1] = i1
            starts = self._two_starts
            watermark = self._watermark
            starts[0] = watermark[i0]
            starts[1] = watermark[i1]
            applied, skipped = self.backend.replay_rows(
                matrix, pair, starts, self
            )
            self.applied += applied
            self.skipped += skipped
            self.row_flushes += 2
            self.mutations += 1
            dirty[i0] = False
            dirty[i1] = False
            self._dirty_count -= 2
            if self._dirty_count == 0:
                self._reset()
            else:
                watermark[i0] = self._n
                watermark[i1] = self._n
            self.flush_seconds += time.perf_counter() - started
            return
        dirty_rows = rows[self._dirty[rows]]
        if dirty_rows.shape[0] == 0:
            return
        if dirty_rows.shape[0] == 1:
            self.flush_row(matrix, int(dirty_rows[0]))
            return
        started = time.perf_counter()
        dirty_rows = unique_sorted(dirty_rows)
        self._replay_batch(matrix, dirty_rows)
        self.row_flushes += int(dirty_rows.shape[0])
        self.mutations += 1
        self._dirty[dirty_rows] = False
        self._dirty_count -= int(dirty_rows.shape[0])
        if self._dirty_count == 0:
            self._reset()
        else:
            self._watermark[dirty_rows] = self._n
        self.flush_seconds += time.perf_counter() - started

    def flush_column(self, matrix: "SparseMatrix", j: int) -> None:
        """Flush every row that a staged update could touch in column ``j``.

        Conservative: flushes every dirty row (the staged row tracking is
        column-independent).  Column reads are off the learning hot path,
        so breadth is the right trade here.
        """
        if self._dirty_count == 0:
            return
        self.flush_rows(matrix, self._pend_rows[: self._pend_rows_n])

    def flush_all(self, matrix: "SparseMatrix") -> None:
        """Apply every staged contribution (grouped, one backend call)."""
        if self._dirty_count == 0:
            if self._n:
                self._reset()
            return
        started = time.perf_counter()
        rows = unique_sorted(self._pend_rows[: self._pend_rows_n])
        rows = rows[self._dirty[rows]]
        self._replay_batch(matrix, rows)
        self._dirty[rows] = False
        self._dirty_count = 0
        self._reset()
        self.flush_seconds += time.perf_counter() - started

    def _replay_batch(self, matrix: "SparseMatrix", rows: np.ndarray) -> None:
        """Replay a sorted batch of dirty rows from their watermarks."""
        starts = np.zeros(rows.shape[0], dtype=np.int64)
        starts[:] = self._watermark[rows]
        applied, skipped = self.backend.replay_rows(
            matrix, rows, starts, self
        )
        self.applied += applied
        self.skipped += skipped
        self.full_flushes += 1
        self.mutations += 1

    def _reset(self) -> None:
        """Drop all staged updates (every row has been flushed)."""
        self._n = 0
        self._upd_offsets[0] = 0
        # Every row with a nonzero watermark was dirty this window or
        # settled by a direct write.
        self._watermark[self._pend_rows[: self._pend_rows_n]] = 0
        if self._advanced:
            self._watermark[self._advanced] = 0
            self._advanced.clear()
        self._pend_rows_n = 0
        self.mutations += 1
