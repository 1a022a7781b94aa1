"""Online priority-ceiling blocking bounds ``B_ij`` / ``beta_j`` (Eq. 15).

Under the priority-ceiling protocol a job of task ``T_i`` is blocked at
most once per stage, and only for the duration of a single critical
section of some *lower-priority* task on a resource whose priority
ceiling is at least ``T_i``'s priority (Sha, Rajkumar & Lehoczky; the
per-task bound schedcat's ``locking/bounds.py`` computes).  Stage ``j``
therefore charges

    B_ij = max { L_kr : prio(T_k) < prio(T_i),
                 ceiling(r, j) >= prio(T_i) }

and the region's right-hand side shrinks by the normalized vector

    beta_j = max_i B_ij / D_i        (Eq. 15).

Priorities are deadline-monotonic (the paper's ``alpha = 1`` policy):
a smaller relative deadline means higher priority, with ``repr`` of the
task id as a deterministic tie-break.

**Per-resource terms.**  A section of ``T_k`` on resource ``r`` blocks
exactly the victims whose priority key lies in ``[ceiling(r, j),
key(T_k))``, and the ceiling is the smallest key among ``r``'s holders
at stage ``j``.  Sort those holders by key, ``h_1 < h_2 < ... < h_m``.
Every victim whose key falls between ``h_i`` and ``h_(i+1)`` sees the
same blocking ``max{L_o : key(o) > key(h_i)}`` from ``r``, and ``h_i``
itself has the smallest deadline among them, since keys sort by
deadline first.  Hence

    beta_j = max_r T_rj,   T_rj = max_i max{L_o : key(o) > key(h_i)} / D_(h_i),

a function of the holders of ``(j, r)`` alone; a task with no critical
section never moves ``beta``.

:class:`PCPBlockingState` keeps one *lane* per ``(stage, resource)``:
its holders in key order, its term ``T_rj``, and a *witness* pair
(victim holder, blocking holder) that attains the term.

- **Arrival** of ``c`` can only raise terms.  On each lane it joins, the
  new pairs are ``c`` blocking the lanes' higher-priority holders, of
  which the ceiling holder ``h_1`` has the largest ``L_c / D``, and
  ``c`` blocked by the longest section among the holders after it (one
  ``bisect`` and one slice ``max``).  So ``T' = max(T, L_c / D_(h_1),
  max{L_o : key(o) > key(c)} / D_c)`` and ``beta'_j = max(beta_j, T')``.
- **Departure** of ``x`` can only lower terms, and a lane's term moves
  only if ``x`` is its witness victim or witness blocker: otherwise
  both holders stay, the ceiling stays at or below the victim, and the
  pair still blocks.  Only then is the lane rescanned, and only a lane
  whose term was stage ``j``'s maximum makes ``beta_j`` a max over the
  stage's lanes again.
- **add after preview** reuses the previewed vector and terms while the
  arrival matches and nothing mutated in between.

**Bitwise exactness.**  Every term is one division ``L / D`` of stored
floats, and ``fl(L / D)`` is monotone in ``L`` (and antitone in ``D``),
so ``max(L) / D`` equals ``max(L / D)`` exactly and a max over terms is
the same float in any order.  The incremental vector is therefore
bitwise equal to the from-scratch sweep, which stays as the oracle
behind :meth:`~PCPBlockingState.recompute`,
:meth:`~PCPBlockingState.load`, :func:`compute_betas` and
:meth:`~PCPBlockingState.blocking_matrix`: a sweep over priority space
that sorts section intervals and victim keys once per stage and answers
every ``B_ij`` with a heap-backed stabbing-max, ``O((S + T) log (S +
T))``.  Crash recovery relies on the same property: blocking state
rebuilt from replayed admissions lands on the exact same region budget.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .model import ResourceSpec, canonical_resources

__all__ = [
    "PCPBlockingState",
    "compute_betas",
]

#: Priority key: (relative deadline, repr(task_id)).  Smaller sorts
#: first = higher priority; the repr tie-break keeps mixed-type task
#: ids totally ordered and the sweep deterministic.
_Key = Tuple[float, str]

#: One critical section at a stage: (ceiling key, owner key, length).
_Section = Tuple[_Key, _Key, float]

#: A tracked task: (deadline, canonical resource declarations).
_Entry = Tuple[float, Tuple[ResourceSpec, ...]]

#: A lane term with its witness: (term, victim id, blocker id).
_Term = Tuple[float, Hashable, Hashable]


def _priority_key(task_id: Hashable, deadline: float) -> _Key:
    return (deadline, repr(task_id))


def _stage_blocking(
    victims: Sequence[Tuple[_Key, float]],
    sections: Sequence[_Section],
    per_victim: Optional[List[float]] = None,
) -> float:
    """Normalized blocking ``beta_j = max_i B_ij / D_i`` for one stage.

    ``victims`` must be sorted ascending by key.  A section blocks the
    victims whose key lies in ``[ceiling, owner)``; sweeping victims in
    key order, sections activate once the ceiling is reached and retire
    at the owner's own key (a task is never blocked by its own section,
    nor by an equal-or-higher-priority one).  The active multiset is a
    lazy-deletion max-heap, so each ``B_ij`` is the current stabbing
    max.

    When ``per_victim`` is given, the raw ``B_ij`` of every victim is
    appended to it in sweep (key) order.
    """
    if not sections:
        if per_victim is not None:
            per_victim.extend(0.0 for _ in victims)
        return 0.0
    activate = sorted(sections)
    retire = sorted(sections, key=lambda s: s[1])
    ai = ri = 0
    active: Dict[float, int] = {}
    heap: List[float] = []
    beta = 0.0
    for key, deadline in victims:
        while ai < len(activate) and activate[ai][0] <= key:
            length = activate[ai][2]
            active[length] = active.get(length, 0) + 1
            heapq.heappush(heap, -length)
            ai += 1
        while ri < len(retire) and retire[ri][1] <= key:
            active[retire[ri][2]] -= 1
            ri += 1
        while heap and active.get(-heap[0], 0) <= 0:
            heapq.heappop(heap)
        blocking = -heap[0] if heap else 0.0
        if per_victim is not None:
            per_victim.append(blocking)
        normalized = blocking / deadline
        if normalized > beta:
            beta = normalized
    return beta


def _prepare(
    tasks: Dict[Hashable, _Entry], num_stages: int
) -> Tuple[Dict[Hashable, Tuple[_Key, float]], List[List[_Section]]]:
    """Victim keys and per-stage section intervals for the sweep."""
    victims: Dict[Hashable, Tuple[_Key, float]] = {}
    ceilings: Dict[Tuple[int, str], _Key] = {}
    raw: List[Tuple[int, str, _Key, float]] = []
    for task_id, (deadline, resources) in tasks.items():
        key = _priority_key(task_id, deadline)
        victims[task_id] = (key, deadline)
        for spec in resources:
            anchor = (spec.stage, spec.resource)
            ceiling = ceilings.get(anchor)
            if ceiling is None or key < ceiling:
                ceilings[anchor] = key
            raw.append((spec.stage, spec.resource, key, spec.max_length))
    by_stage: List[List[_Section]] = [[] for _ in range(num_stages)]
    for stage, resource, owner, length in raw:
        by_stage[stage].append((ceilings[(stage, resource)], owner, length))
    return victims, by_stage


def _sweep(tasks: Dict[Hashable, _Entry], num_stages: int) -> Tuple[float, ...]:
    """From-scratch ``beta_j`` vector: the oracle the lanes must match."""
    if not tasks:
        return (0.0,) * num_stages
    victims, by_stage = _prepare(tasks, num_stages)
    if all(not sections for sections in by_stage):
        return (0.0,) * num_stages
    sorted_victims = sorted(victims.values())
    return tuple(
        _stage_blocking(sorted_victims, by_stage[j]) for j in range(num_stages)
    )


def compute_betas(
    entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    num_stages: int,
) -> Tuple[float, ...]:
    """Pure ``beta_j`` vector for an arbitrary ``(id, deadline, specs)`` set.

    Ground-truth recomputation used by the auditor and by static
    worst-case bounds (feed it the whole anticipated population instead
    of the admitted set).  Independent of iteration order, and computed
    by the sweep, never by the incremental lanes it checks.
    """
    return _sweep(PCPBlockingState(num_stages)._staged(entries), num_stages)


class _Lane:
    """The holders of one ``(stage, resource)`` pair, in priority-key order.

    ``term`` is the lane's ``T_rj``; ``victim`` and ``blocker`` are the
    ids of a holder pair attaining it (both ``None`` while the term is
    0.0, which no departure can lower).
    """

    __slots__ = ("keys", "lengths", "owners", "term", "victim", "blocker")

    def __init__(self) -> None:
        self.keys: List[_Key] = []
        self.lengths: List[float] = []
        self.owners: List[Hashable] = []
        self.term = 0.0
        self.victim: Hashable = None
        self.blocker: Hashable = None

    def arrival(self, task_id: Hashable, key: _Key, length: float) -> Optional[_Term]:
        """The raised term if the task joined with a ``length`` section.

        ``None`` when joining leaves the term where it is.
        """
        keys = self.keys
        if not keys:
            return None
        term = self.term
        raised: Optional[_Term] = None
        # The new section blocks every earlier holder; the ceiling
        # holder has the smallest deadline of them.
        if keys[0] < key:
            candidate = length / keys[0][0]
            if candidate > term:
                term = candidate
                raised = (candidate, self.owners[0], task_id)
        # The newcomer is blocked by the longest section after it.
        after = bisect_right(keys, key)
        if after < len(keys):
            lengths = self.lengths
            longest = max(lengths[after:])
            candidate = longest / key[0]
            if candidate > term:
                raised = (candidate, task_id, self.owners[lengths.index(longest, after)])
        return raised

    def insert(
        self, task_id: Hashable, key: _Key, length: float, raised: Optional[_Term]
    ) -> None:
        """Add a holder; ``raised`` is what :meth:`arrival` returned for it."""
        at = bisect_right(self.keys, key)
        self.keys.insert(at, key)
        self.lengths.insert(at, length)
        self.owners.insert(at, task_id)
        if raised is not None:
            self.term, self.victim, self.blocker = raised

    def remove(self, task_id: Hashable, key: _Key) -> None:
        """Drop a holder; rescan only when it was part of the witness."""
        # Equal keys come only from distinct ids sharing a repr; index()
        # steps past them to the holder itself.
        at = self.owners.index(task_id, bisect_left(self.keys, key))
        del self.keys[at]
        del self.lengths[at]
        del self.owners[at]
        if task_id == self.victim or task_id == self.blocker:
            self.rescan()

    def rescan(self) -> None:
        """Recompute the term and its witness from the holders, O(holders)."""
        keys, lengths, owners = self.keys, self.lengths, self.owners
        term = 0.0
        victim: Hashable = None
        blocker: Hashable = None
        # Longest section among strictly later keys (-1.0: none yet),
        # and among the holders sharing the current key.
        longest, longest_owner = -1.0, None
        group, group_owner = -1.0, None
        last = len(keys) - 1
        for i in range(last, -1, -1):
            if i < last and keys[i] < keys[i + 1]:
                if group > longest:
                    longest, longest_owner = group, group_owner
                group = -1.0
            if longest >= 0.0:
                candidate = longest / keys[i][0]
                if candidate > term:
                    term, victim, blocker = candidate, owners[i], longest_owner
            if lengths[i] > group:
                group, group_owner = lengths[i], owners[i]
        self.term, self.victim, self.blocker = term, victim, blocker


class PCPBlockingState:
    """Online ``B_ij`` / ``beta_j`` bookkeeping over the admitted set.

    :meth:`add` and :meth:`remove` update the exact blocking vector
    incrementally through the per-resource lanes (see the module
    docstring); :meth:`preview` evaluates a tentative arrival without
    committing it, which is how the admission controller refuses an
    admit whose own critical sections would push ``sum_j beta_j`` out
    of the region.  The cached vector is bitwise equal to the sweep
    :meth:`recompute` runs, at all times.

    Args:
        num_stages: Pipeline length; every spec's ``stage`` must be
            below it.
    """

    def __init__(self, num_stages: int) -> None:
        if num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {num_stages}")
        self.num_stages = num_stages
        self._tasks: Dict[Hashable, _Entry] = {}
        self._sections = 0
        self._betas: Tuple[float, ...] = (0.0,) * num_stages
        #: Per stage: resource -> lane of that resource's holders.
        self._lanes: List[Dict[str, _Lane]] = [{} for _ in range(num_stages)]
        #: The latest preview of an untracked task, dropped by every
        #: mutation: (id, key, entry, betas, raised term per spec).
        self._previewed: Optional[
            Tuple[Hashable, _Key, _Entry, Tuple[float, ...], List[Optional[_Term]]]
        ] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, task_id: Hashable) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def betas(self) -> Tuple[float, ...]:
        """Current normalized blocking vector ``(beta_1, ..., beta_N)``."""
        return self._betas

    def beta_sum(self) -> float:
        """``sum_j beta_j`` accumulated exactly (order-independent)."""
        return math.fsum(self._betas)

    def resources_of(self, task_id: Hashable) -> Tuple[ResourceSpec, ...]:
        """Canonical resource declarations of one tracked task."""
        return self._tasks[task_id][1]

    def entries(self) -> List[Tuple[Hashable, float, Tuple[ResourceSpec, ...]]]:
        """All ``(task_id, deadline, resources)`` entries, canonically ordered."""
        return [
            (task_id, deadline, resources)
            for task_id, (deadline, resources) in sorted(
                self._tasks.items(), key=lambda item: repr(item[0])
            )
        ]

    def recompute(self) -> Tuple[float, ...]:
        """Ground-truth ``beta_j`` recomputed from scratch by the sweep.

        The cached vector maintained across mutations must equal this
        bitwise at all times; :class:`repro.core.audit.ControllerAuditor`
        enforces exactly that.
        """
        if self._sections == 0:
            return (0.0,) * self.num_stages
        return _sweep(self._tasks, self.num_stages)

    def blocking_matrix(self) -> Dict[Hashable, Tuple[float, ...]]:
        """Raw ``B_ij`` per tracked task (diagnostics / audit detail)."""
        victims, by_stage = _prepare(self._tasks, self.num_stages)
        order = [task_id for _, task_id in sorted(
            ((key, task_id) for task_id, (key, _) in victims.items())
        )]
        sorted_victims = [
            (victims[task_id][0], victims[task_id][1]) for task_id in order
        ]
        columns: List[List[float]] = []
        for j in range(self.num_stages):
            column: List[float] = []
            _stage_blocking(sorted_victims, by_stage[j], per_victim=column)
            columns.append(column)
        return {
            task_id: tuple(columns[j][i] for j in range(self.num_stages))
            for i, task_id in enumerate(order)
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec] = (),
    ) -> Tuple[float, ...]:
        """Track an admitted task; returns the updated ``beta_j`` vector.

        Raises:
            ValueError: If the task is already tracked, the deadline is
                not positive and finite, or a spec's stage is out of
                range.
        """
        if task_id in self._tasks:
            raise ValueError(f"task {task_id!r} already tracked")
        entry = self._validated(task_id, deadline, resources)
        key = _priority_key(task_id, entry[0])
        previewed = self._previewed
        if (
            previewed is not None
            and previewed[1] == key
            and previewed[2] == entry
            and previewed[0] == task_id
        ):
            betas, raised = previewed[3], previewed[4]
        else:
            betas, raised = self._arrival(task_id, key, entry[1])
        self._tasks[task_id] = entry
        self._previewed = None
        specs = entry[1]
        if specs:
            self._sections += len(specs)
            lanes = self._lanes
            for spec, term in zip(specs, raised):
                stage_lanes = lanes[spec.stage]
                lane = stage_lanes.get(spec.resource)
                if lane is None:
                    lane = stage_lanes[spec.resource] = _Lane()
                lane.insert(task_id, key, spec.max_length, term)
            self._betas = betas
        return self._betas

    def load(
        self,
        entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    ) -> Tuple[float, ...]:
        """Track many tasks at once; the vector comes from one sweep.

        Equivalent to calling :meth:`add` per entry — the vector is a
        pure function of the entry set — but each lane is sorted and
        scanned once and ``beta`` is taken from a single sweep at the
        end, which keeps a bulk load over 10k tasks near-linear.
        """
        staged = self._staged(entries)
        touched: Dict[int, _Lane] = {}
        lanes = self._lanes
        for task_id, entry in staged.items():
            self._tasks[task_id] = entry
            specs = entry[1]
            self._sections += len(specs)
            key = _priority_key(task_id, entry[0])
            for spec in specs:
                stage_lanes = lanes[spec.stage]
                lane = stage_lanes.get(spec.resource)
                if lane is None:
                    lane = stage_lanes[spec.resource] = _Lane()
                touched[id(lane)] = lane
                lane.keys.append(key)
                lane.lengths.append(spec.max_length)
                lane.owners.append(task_id)
        for lane in touched.values():
            order = sorted(range(len(lane.keys)), key=lane.keys.__getitem__)
            lane.keys = [lane.keys[i] for i in order]
            lane.lengths = [lane.lengths[i] for i in order]
            lane.owners = [lane.owners[i] for i in order]
            lane.rescan()
        self._previewed = None
        self._betas = self.recompute()
        return self._betas

    def remove(self, task_id: Hashable) -> Tuple[float, ...]:
        """Drop a departed/expired task; unknown ids are a no-op.

        Removal can only shrink (or preserve) every ``beta_j``: the
        task's sections disappear, its ceilings relax, and it leaves
        the victim max — so a departure always restores a budget at
        least as large as before the matching arrival.
        """
        entry = self._tasks.pop(task_id, None)
        if entry is None:
            return self._betas
        self._previewed = None
        specs = entry[1]
        if not specs:
            return self._betas
        self._sections -= len(specs)
        key = _priority_key(task_id, entry[0])
        betas = self._betas
        lanes = self._lanes
        stale: List[int] = []
        for spec in specs:
            stage_lanes = lanes[spec.stage]
            lane = stage_lanes[spec.resource]
            before = lane.term
            lane.remove(task_id, key)
            if not lane.keys:
                del stage_lanes[spec.resource]
            # A lane below its stage's maximum cannot move beta_j.
            if lane.term < before and not before < betas[spec.stage]:
                stale.append(spec.stage)
        if stale:
            updated = list(betas)
            for j in stale:
                top = 0.0
                for lane in lanes[j].values():
                    if lane.term > top:
                        top = lane.term
                updated[j] = top
            self._betas = tuple(updated)
        return self._betas

    def preview(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec] = (),
    ) -> Tuple[float, ...]:
        """``beta_j`` vector *if* the task were admitted; no mutation.

        Bitwise identical to what :meth:`add` with the same arguments
        would cache — the admission test evaluates the exact budget the
        controller will hold after committing, and a matching
        :meth:`add` reuses this evaluation.  A task id that is already
        tracked is overlaid (what-if re-admission) through the sweep;
        duplicate detection stays with the caller's install path.
        """
        entry = self._validated(task_id, deadline, resources)
        if task_id in self._tasks:
            overlay = dict(self._tasks)
            overlay[task_id] = entry
            return _sweep(overlay, self.num_stages)
        key = _priority_key(task_id, entry[0])
        betas, raised = self._arrival(task_id, key, entry[1])
        self._previewed = (task_id, key, entry, betas, raised)
        return betas

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _arrival(
        self, task_id: Hashable, key: _Key, specs: Tuple[ResourceSpec, ...]
    ) -> Tuple[Tuple[float, ...], List[Optional[_Term]]]:
        """The vector after an arrival, and each joined lane's raised term."""
        betas = self._betas
        raised: List[Optional[_Term]] = []
        updated: Optional[List[float]] = None
        lanes = self._lanes
        for spec in specs:
            lane = lanes[spec.stage].get(spec.resource)
            term = None if lane is None else lane.arrival(task_id, key, spec.max_length)
            raised.append(term)
            if term is not None:
                current = betas if updated is None else updated
                if term[0] > current[spec.stage]:
                    if updated is None:
                        updated = list(betas)
                    updated[spec.stage] = term[0]
        if updated is not None:
            betas = tuple(updated)
        return betas, raised

    def _staged(
        self, entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]]
    ) -> Dict[Hashable, _Entry]:
        """Validate a batch of new entries against each other and the state."""
        staged: Dict[Hashable, _Entry] = {}
        for task_id, deadline, resources in entries:
            if task_id in self._tasks or task_id in staged:
                raise ValueError(f"task {task_id!r} already tracked")
            staged[task_id] = self._validated(task_id, deadline, resources)
        return staged

    def _validated(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec],
    ) -> _Entry:
        if not math.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"task {task_id!r}: deadline must be finite and > 0, got {deadline}"
            )
        specs = canonical_resources(resources)
        for spec in specs:
            if spec.stage >= self.num_stages:
                raise ValueError(
                    f"task {task_id!r}: resource {spec.resource!r} declared at "
                    f"stage {spec.stage}, pipeline has {self.num_stages} stages"
                )
        return (float(deadline), specs)
