"""Synthetic (instantaneous) utilization accounting.

The synthetic utilization of stage ``j`` at time ``t`` is

    U_j(t) = sum_{T_i in S(t)} C_ij / D_i

over the set of *current* tasks ``S(t) = {T_i | A_i <= t < A_i + D_i}``
(Section 2).  Each task contributes ``C_ij / D_i`` from its arrival
until its absolute deadline, independent of when (or whether) it
actually executes at the stage.

Two bookkeeping rules from Section 4 keep admission control from
becoming pessimistic:

1. Contributions are removed when task deadlines expire.
2. When a stage becomes *idle*, the contribution of all tasks that have
   already departed the stage is removed immediately — departed tasks
   cannot affect the stage's future schedule.  The tracker then decays
   to its *reserved* baseline (Section 5 initializes the counters with
   reserved utilization for critical tasks).

:class:`StageUtilizationTracker` implements one stage; additions and
removals are ``O(1)`` on the running total (an exact accumulator),
``O(log n)`` overall via the expiry heap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Dict, FrozenSet, Hashable, List, Tuple

from .numeric import _FIXED_SCALE, _fixed_to_float, ExactSum

__all__ = ["StageUtilizationTracker"]


class StageUtilizationTracker:
    """Tracks the synthetic utilization of a single pipeline stage.

    The tracker holds one *contribution* per current task plus a fixed
    *reserved* baseline.  The running total is maintained by an
    :class:`~repro.core.numeric.ExactSum` accumulator: additions and
    removals update the exact sum in ``O(1)`` with no rounding, and the
    cached float total is the single correctly-rounded image of that
    exact sum.  The total is therefore a *canonical function of the
    tracked multiset alone* — independent of operation order — so two
    trackers holding the same contributions are bitwise identical even
    if their histories (expiry-heap layout, departed-set insertion
    order, add/remove interleaving) differ.  That is strictly stronger
    than the earlier fsum-on-removal scheme, whose total was canonical
    only per add *sequence*; it is what lets crash recovery reproduce a
    controller bitwise and order-independently (see
    ``repro.serve.recovery``), and drift can never accumulate because
    no operation ever rounds into the accumulator.

    Attributes:
        reserved: Baseline utilization reserved for critical tasks.
            Resets never go below this value.
    """

    def __init__(self, reserved: float = 0.0) -> None:
        """Create a tracker.

        Args:
            reserved: Reserved baseline utilization in ``[0, 1]``
                (Section 5); the tracker's value never drops below it.

        Raises:
            ValueError: If ``reserved`` is outside ``[0, 1]``.
        """
        if not (0.0 <= reserved <= 1.0):
            raise ValueError(f"reserved utilization must be in [0, 1], got {reserved}")
        self.reserved = reserved
        # task_id -> (contribution, token); the token invalidates stale
        # expiry-heap entries when an id is removed and later re-added.
        self._contribs: Dict[Hashable, Tuple[float, int]] = {}
        self._departed: Dict[Hashable, float] = {}
        self._expiry_heap: List[Tuple[float, int, Hashable]] = []
        # Exact running sum of the tracked contributions; `_sum` caches
        # its correctly-rounded float image so hot-path reads (`value`)
        # stay a plain attribute load.  Every mutation refreshes the
        # cache; the auditor compares the two to detect bit-rot.
        self._acc = ExactSum()
        self._sum = 0.0
        self._tokens = itertools.count()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Current synthetic utilization (reserved baseline included)."""
        return self.reserved + max(self._sum, 0.0)

    @property
    def dynamic_value(self) -> float:
        """Utilization contributed by currently tracked tasks only."""
        return max(self._sum, 0.0)

    def contribution_of(self, task_id: Hashable) -> float:
        """Return the tracked contribution of ``task_id`` (0.0 if absent)."""
        entry = self._contribs.get(task_id)
        return entry[0] if entry is not None else 0.0

    def tracked_ids(self) -> FrozenSet[Hashable]:
        """Ids of every task currently holding a contribution here."""
        return frozenset(self._contribs)

    def departed_ids(self) -> FrozenSet[Hashable]:
        """Ids marked departed and awaiting the next idle reset."""
        return frozenset(self._departed)

    def is_departed(self, task_id: Hashable) -> bool:
        """Whether ``task_id`` is marked departed at this stage."""
        return task_id in self._departed

    def pending_idle_release(self) -> float:
        """Utilization :meth:`reset_on_idle` would release right now.

        Every departed entry is live by construction — ``remove``,
        ``expire_until``, ``reset_on_idle`` and ``clear`` all drop the
        departed mark together with the contribution — so no membership
        re-check against the tracked set is needed.
        """
        return math.fsum(self._departed.values())

    def audit_sums(self) -> Tuple[float, float]:
        """``(cached, exact)`` dynamic sums, without mutating state — O(1).

        The cached sum is the float total hot-path reads use; the exact
        sum is the accumulator's correctly-rounded value.  The invariant
        auditor compares the two to detect bit-rot in the cache (and
        separately cross-checks the accumulator against the tracked
        contributions via :meth:`fsum_contributions`).
        """
        return self._sum, self._acc.value()

    def fsum_contributions(self) -> float:
        """Fresh ``fsum`` over the tracked contributions — O(n).

        Ground-truth recompute for the auditor's deep drift check; the
        hot path never calls this.
        """
        return math.fsum(c for c, _ in self._contribs.values())

    def exact_state(self) -> Dict[str, Any]:
        """JSON-safe exact accumulator state (snapshot schema v2)."""
        return self._acc.state()

    def load_exact(self, state: Dict[str, Any]) -> None:
        """Adopt a serialized exact accumulator state (snapshot restore).

        Replaces the accumulator wholesale — including one rebuilt from
        re-added contributions — so a restored tracker reproduces the
        snapshotted total bit-for-bit even when the snapshot's lineage
        passed through the legacy rounded-sum format (a v1 sum becomes
        the accumulator state of that one float on upgrade).

        Raises:
            ValueError: If the state document is malformed.
        """
        self._acc = ExactSum.from_state(state)
        self._sum = self._acc.value()

    def __contains__(self, task_id: Hashable) -> bool:
        return task_id in self._contribs

    def __len__(self) -> int:
        return len(self._contribs)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add(self, task_id: Hashable, contribution: float, expiry: float) -> None:
        """Register a task's contribution ``C_ij / D_i`` until ``expiry``.

        Args:
            task_id: Unique task identifier.
            contribution: ``C_ij / D_i``; must be ``>= 0`` and finite.
            expiry: Absolute deadline ``A_i + D_i`` at which the
                contribution lapses.

        Raises:
            ValueError: If the task is already tracked or the
                contribution is invalid.
        """
        if task_id in self._contribs:
            raise ValueError(f"task {task_id!r} is already tracked at this stage")
        if contribution < 0 or not math.isfinite(contribution):
            raise ValueError(f"contribution must be finite and >= 0, got {contribution}")
        token = next(self._tokens)
        self._contribs[task_id] = (contribution, token)
        # ExactSum.add + .value(), inlined: admission installs call
        # this once per stage per admitted task, and the two method
        # dispatches cost as much as the bigint update they wrap.
        acc = self._acc
        n, d = contribution.as_integer_ratio()  # raises for inf/nan
        if n:
            acc._fixed += n << (_FIXED_SCALE - (d.bit_length() - 1))
        self._sum = _fixed_to_float(acc._fixed)
        heapq.heappush(self._expiry_heap, (expiry, token, task_id))

    def remove(self, task_id: Hashable) -> float:
        """Remove a task's contribution immediately (e.g. load shedding).

        Returns:
            The removed contribution, or 0.0 if the task was not tracked.
        """
        entry = self._contribs.pop(task_id, None)
        self._departed.pop(task_id, None)
        if entry is None:
            return 0.0
        # ExactSum.subtract + .value(), inlined (see add()).
        acc = self._acc
        contribution = entry[0]
        n, d = contribution.as_integer_ratio()
        if n:
            acc._fixed -= n << (_FIXED_SCALE - (d.bit_length() - 1))
        self._sum = _fixed_to_float(acc._fixed)
        return contribution

    def expire_until(self, now: float) -> float:
        """Drop all contributions whose deadline expired at or before ``now``.

        Returns:
            Total utilization released.
        """
        heap = self._expiry_heap
        if not heap or heap[0][0] > now:
            return 0.0
        contribs = self._contribs
        departed = self._departed
        acc = self._acc
        pop = heapq.heappop
        removed: List[float] = []
        append = removed.append
        while heap and heap[0][0] <= now:
            _, token, task_id = pop(heap)
            entry = contribs.get(task_id)
            if entry is None or entry[1] != token:
                continue  # stale entry: task removed (and possibly re-added)
            del contribs[task_id]
            departed.pop(task_id, None)
            # ExactSum.subtract, inlined (see add()).
            contribution = entry[0]
            n, d = contribution.as_integer_ratio()
            if n:
                acc._fixed -= n << (_FIXED_SCALE - (d.bit_length() - 1))
            append(contribution)
        if not removed:
            return 0.0
        self._sum = _fixed_to_float(acc._fixed)
        if len(removed) == 1:
            return removed[0]
        # fsum for the released amount: independent of the
        # (tie-dependent) heap pop order, like the accumulator itself.
        return math.fsum(removed)

    def next_expiry(self) -> float:
        """Earliest pending expiry time, or ``inf`` when nothing is tracked.

        Stale heap heads (from removed tasks) are pruned lazily.
        """
        while self._expiry_heap:
            expiry, token, task_id = self._expiry_heap[0]
            entry = self._contribs.get(task_id)
            if entry is not None and entry[1] == token:
                return expiry
            heapq.heappop(self._expiry_heap)
        return math.inf

    def mark_departed(self, task_id: Hashable) -> None:
        """Record that the task's subtask finished execution at this stage.

        The contribution stays counted until either the deadline expires
        or the stage next becomes idle (whichever comes first).
        """
        entry = self._contribs.get(task_id)
        if entry is not None:
            self._departed[task_id] = entry[0]

    def reset_on_idle(self) -> float:
        """Apply the idle-reset rule: drop contributions of departed tasks.

        Called when the stage's resource has no pending or running work.
        Departed tasks cannot affect the stage's future schedule, so
        their synthetic-utilization contribution is released (Section 4).
        The reserved baseline is retained.

        Returns:
            Total utilization released.
        """
        removed: List[float] = []
        for task_id, contribution in self._departed.items():
            # Departed entries are always still tracked (see
            # pending_idle_release), so this never misses.
            del self._contribs[task_id]
            self._acc.subtract(contribution)
            removed.append(contribution)
        self._departed.clear()
        if not removed:
            return 0.0
        self._sum = self._acc.value()
        # fsum for the released amount: independent of the departed
        # set's (path-dependent) insertion order.
        return math.fsum(removed)

    def clear(self) -> None:
        """Drop every tracked contribution, returning to the reserved baseline."""
        self._contribs.clear()
        self._departed.clear()
        self._expiry_heap.clear()
        self._acc.clear()
        self._sum = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def recompute(self) -> float:
        """Rebuild the accumulator from the tracked contributions.

        The result equals the running total the incremental path
        maintains (both are the correctly-rounded exact sum of the
        same multiset); exposed for tests and corruption recovery.
        """
        self._acc.clear()
        for contribution, _ in self._contribs.values():
            self._acc.add(contribution)
        self._sum = self._acc.value()
        return self._sum
