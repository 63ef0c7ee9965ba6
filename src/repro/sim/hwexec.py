"""Hardware task execution: functional result + cycle cost of one task.

Each task computes the candidate set for one level of the matching plan.
Since the engine-layer refactor this module is a thin composition of the two
layers in :mod:`repro.engine`:

* the **functional layer** (:func:`repro.engine.functional.expand_task`)
  computes the exact candidate set with the NumPy reference kernels;
* the **temporal layer** (:class:`repro.engine.temporal.TaskCostAnnotator`)
  charges the modelled hardware time — SIU cost terms plus memory stream
  timings — against the shared memory hierarchy state.

Word-stream lengths (BitmapCSR words per set) come per graph row from the
snapshot's :class:`~repro.graph.index.GraphIndex` (built once per graph and
bitmap width, not per run) and are cached per intermediate set, and the
merge boundaries the cost formulas need are derived from the functional
result — the simulator never re-derives what it already knows, which keeps
per-task overhead low.

``TASK_DISPATCH_CYCLES``/``TASK_COMMIT_CYCLES`` and :class:`TaskOutcome`
now live in :mod:`repro.engine.temporal`; they are re-exported here for
backwards compatibility.
"""

from __future__ import annotations

import numpy as np

from ..engine.functional import expand_task, set_stream_words
from ..engine.temporal import (
    TASK_COMMIT_CYCLES,
    TASK_DISPATCH_CYCLES,
    TaskCostAnnotator,
    TaskOutcome,
)
from ..graph.csr import CSRGraph
from ..memory.hierarchy import MemoryHierarchy
from ..obs import context as _obs
from ..patterns.plan import MatchingPlan
from ..siu.base import SIUCostModel

__all__ = [
    "TASK_COMMIT_CYCLES",
    "TASK_DISPATCH_CYCLES",
    "TaskOutcome",
    "HardwareTaskExecutor",
]


class HardwareTaskExecutor:
    """Executes tasks functionally while charging modelled hardware time."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        siu: SIUCostModel,
        memory: MemoryHierarchy,
        task_overhead_cycles: int = 0,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.siu = siu
        self.memory = memory
        self.task_overhead = task_overhead_cycles
        self.stop_level = plan.stop_level
        self._width = siu.bitmap_width
        self._row_words = graph.index.row_words(self._width)
        self._annotator = TaskCostAnnotator(
            graph,
            siu,
            memory,
            self._row_words,
            task_overhead_cycles=task_overhead_cycles,
        )
        # guarded hot-path hook: pinned once at construction so the
        # per-task fast path below is a single None check when disabled
        self._obs = _obs.current()

    def set_words(self, vertices: np.ndarray) -> int:
        """Stream length in BitmapCSR words of an arbitrary sorted set."""
        return set_stream_words(vertices, self._width)

    def execute(self, task, pe: int, now: float) -> TaskOutcome:
        """Run one task on PE ``pe`` starting at time ``now``."""
        expansion = expand_task(self.graph, self.plan, task)
        outcome = self._annotator.annotate(expansion, task, pe, now)
        if self._obs is not None:
            self._obs.level_add(
                task.level,
                tasks=1,
                elements=outcome.words_in,
                comparisons=outcome.comparisons,
            )
        return outcome
