"""In-memory span tracer and the method patches that feed it.

A span records its name, start, end and the span open when it began
(its parent); every span of one run shares the tracer's run id.  Spans
live in flat arrays while the run goes and are written out once, by
:meth:`Tracer.dump`, after it ends.

Patches replace an attribute of a module, a class or one object with a
timing wrapper and are undone by :meth:`Tracer.restore`, so tracing
never outlives the run it measures.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import self_time, union_length

#: Parent index of a span opened with no other span open.
ROOT = -1

OnResult = Callable[[Any, tuple], None]


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [ROOT]
        self._restores: List[Tuple[Any, str, bool, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        on_result: Optional[OnResult] = None,
    ) -> Callable[..., Any]:
        """``function`` with every call recorded as a span named ``name``.

        ``on_result(result, args)`` runs after the span closes, so the
        counting it does is not charged to the span.
        """
        name_id = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def patch(
        self,
        target: Any,
        attr: str,
        name: str,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Replace ``target.attr`` by a traced wrapper until :meth:`restore`."""
        owned = vars(target)
        had = attr in owned
        self._restores.append((target, attr, had, owned.get(attr)))
        setattr(target, attr, self.wrap(name, getattr(target, attr), on_result))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restores:
            target, attr, had, previous = self._restores.pop()
            if had:
                setattr(target, attr, previous)
            else:
                delattr(target, attr)

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def intervals(self, name: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every span named ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        starts, ends = self.starts, self.ends
        return [
            (starts[i], ends[i])
            for i, n in enumerate(self.name_ids)
            if n == name_id
        ]

    def seconds(self, name: str) -> float:
        """Time covered by spans named ``name`` (a nested repeat counts once)."""
        return union_length(self.intervals(name), float("-inf"), float("inf"))

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans named ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0.0
        children: Dict[int, List[Tuple[float, float]]] = {}
        for i, parent in enumerate(self.parents):
            if parent != ROOT:
                children.setdefault(parent, []).append(
                    (self.starts[i], self.ends[i])
                )
        return sum(
            self_time(self.starts[i], self.ends[i], children.get(i, ()))
            for i, n in enumerate(self.name_ids)
            if n == name_id
        )

    def top_level(self, lo: float, hi: float) -> Dict[str, float]:
        """Seconds of parentless spans inside ``[lo, hi]``, by name."""
        totals: Dict[str, float] = {}
        for i, parent in enumerate(self.parents):
            if parent == ROOT and self.starts[i] >= lo and self.ends[i] <= hi:
                name = self.names[self.name_ids[i]]
                totals[name] = (
                    totals.get(name, 0.0) + self.ends[i] - self.starts[i]
                )
        return totals

    def root_self_seconds(self, lo: float, hi: float) -> float:
        """Time in ``[lo, hi]`` outside every span: the driver's self time."""
        return self_time(
            lo,
            hi,
            (
                (self.starts[i], self.ends[i])
                for i, parent in enumerate(self.parents)
                if parent == ROOT
            ),
        )

    def dump(self, path: str) -> None:
        """Write the run's spans as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name_ids.tolist(),
            "parent": self.parents.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
