"""Online degradation manager: capacity rescale + region-repairing sacrifice.

The paper's admission test assumes constant stage capacity; a serving
deployment does not get that luxury.  This module closes the loop when
a stage degrades at runtime:

1. **Signal ingestion** — two paths feed the same confirmed-capacity
   estimate: the explicit ``set_capacity`` wire op (an operator or an
   external monitor declares the level authoritatively) and the
   ``report`` op, whose raw overrun/slowdown observations pass through
   the :class:`~repro.faults.degradation.CapacityEstimator` hysteresis
   filter so transient blips never move the estimate.

2. **Transactional rescale + repair** — a confirmed capacity change
   re-charges the whole admitted set against the new capacity vector
   (:meth:`~repro.core.admission.PipelineAdmissionController.rescale_stage_capacity`,
   bitwise identical to a fresh controller at the new capacities) and
   then re-runs the Eq. 12/15 region test over the live admitted set.
   If the region no longer holds, tasks are *sacrificed* in brownout
   order — ascending importance, admission sequence as the
   deterministic tie-break — until it does
   (:meth:`~repro.core.admission.PipelineAdmissionController.repair_region`).
   On a locking pipeline each sacrifice also releases the victim's
   critical sections, so the ``beta_j`` blocking budget is re-previewed
   before the repair plan is accepted.

3. **Replayable decisions** — every sacrifice is recorded in a bounded
   ledger, and the whole manager state (estimator + ledger) rides in
   the pipeline snapshot.  Both wire ops are journaled, and the manager
   is pure (no wall clock, no randomness), so crash-recovery replay
   reproduces the same rescales and the same sacrifices bitwise.

Capacity *restoration* is symmetric: a confirmed restore re-charges the
admitted set downward (never infeasible — charges only shrink), so no
sacrifice can result from good news.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from ..core.admission import PipelineAdmissionController
from ..faults.degradation import CapacityEstimator, CapacityHysteresis

__all__ = [
    "OBSERVATION_KINDS",
    "SACRIFICE_LEDGER_LIMIT",
    "DegradationManager",
    "hysteresis_from_wire",
    "hysteresis_to_wire",
]

#: Fault-report kinds the ``report`` op accepts.  ``overrun`` carries
#: the observed/expected service-time ratio (>= 1 means slower than
#: nominal), ``slowdown`` carries the observed fraction of nominal
#: throughput directly, ``ok`` is a healthy probe (capacity 1.0).
OBSERVATION_KINDS = ("overrun", "slowdown", "ok")

#: Most recent sacrifice decisions kept in the replayable ledger.  The
#: ledger is diagnostics, not bookkeeping — sacrifices take effect on
#: the controller immediately — so it is bounded like the dedup window.
SACRIFICE_LEDGER_LIMIT = 256


def hysteresis_from_wire(doc: Any) -> CapacityHysteresis:
    """Parse a policy ``degradation`` document into hysteresis config.

    ``None`` selects the defaults.  Unknown fields are rejected so a
    typo cannot silently fall back to default behaviour.

    Raises:
        ValueError: On a non-object document, unknown fields, or
            parameter values the config itself refuses.
    """
    if doc is None:
        return CapacityHysteresis()
    if not isinstance(doc, dict):
        raise ValueError("degradation config must be a JSON object")
    known = {"confirm_drops", "confirm_restores", "quantum", "floor"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown degradation fields: {sorted(unknown)}")
    defaults = CapacityHysteresis()
    try:
        return CapacityHysteresis(
            confirm_drops=int(doc.get("confirm_drops", defaults.confirm_drops)),
            confirm_restores=int(
                doc.get("confirm_restores", defaults.confirm_restores)
            ),
            quantum=float(doc.get("quantum", defaults.quantum)),
            floor=float(doc.get("floor", defaults.floor)),
        )
    except TypeError as exc:
        raise ValueError(f"malformed degradation config: {exc}") from exc


def hysteresis_to_wire(config: CapacityHysteresis) -> Dict[str, Any]:
    """Canonical wire document for a hysteresis config."""
    return {
        "confirm_drops": config.confirm_drops,
        "confirm_restores": config.confirm_restores,
        "quantum": config.quantum,
        "floor": config.floor,
    }


class DegradationManager:
    """Confirmed-capacity tracking plus the rescale-and-repair action.

    The manager holds no reference to a controller — every action takes
    the controller as an argument — so the serving layer can rebuild
    either side independently during snapshot restore and the manager
    stays trivially testable against a bare controller.

    Attributes:
        estimator: The hysteresis-filtered per-stage capacity estimate.
    """

    def __init__(
        self, num_stages: int, hysteresis: Optional[CapacityHysteresis] = None
    ) -> None:
        self.num_stages = num_stages
        self.estimator = CapacityEstimator(num_stages, hysteresis)
        #: Most recent sacrifice decisions, oldest first:
        #: ``{"stage", "capacity", "sacrificed"}`` per confirmed rescale
        #: that evicted at least one task.
        self._ledger: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def apply_capacity(
        self,
        controller: PipelineAdmissionController,
        stage: int,
        capacity: float,
    ) -> Dict[str, Any]:
        """Authoritative capacity change: rescale, repair, record.

        The explicit ``set_capacity`` path.  Validation happens before
        any mutation (``rescale_stage_capacity`` rejects an out-of-range
        capacity without touching state), then the admitted set is
        re-charged and — if the region no longer holds — repaired by
        sacrifice.  The confirmed estimate is synced to the declared
        level so subsequent ``report`` observations measure against it.

        Returns:
            Summary document: ``stage``, ``capacity``, the ``sacrificed``
            task ids in eviction order, and the post-repair
            ``region_value``.

        Raises:
            ValueError: If ``capacity`` is outside ``[0, 1]`` or not
                finite (controller state unchanged).
        """
        controller.rescale_stage_capacity(stage, capacity)
        sacrificed = controller.repair_region()
        self.estimator.declare(stage, capacity)
        if sacrificed:
            self._ledger.append(
                {
                    "stage": stage,
                    "capacity": capacity,
                    "sacrificed": list(sacrificed),
                }
            )
            del self._ledger[:-SACRIFICE_LEDGER_LIMIT]
        return {
            "stage": stage,
            "capacity": capacity,
            "sacrificed": list(sacrificed),
            "region_value": controller.region_value(),
        }

    def observe(
        self,
        controller: PipelineAdmissionController,
        stage: int,
        kind: str,
        ratio: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Ingest one fault report; act only on a confirmed change.

        The ``report`` path.  The raw observation is turned into a
        capacity sample — ``slowdown`` reports the observed fraction of
        nominal throughput directly; ``overrun`` reports the
        observed/expected service-time ratio, whose reciprocal is the
        capacity the stage is actually delivering; ``ok`` is a healthy
        probe — and fed through the hysteresis filter.  Nothing touches
        the controller until the estimator confirms a new level, at
        which point :meth:`apply_capacity` runs.

        Returns:
            ``{"confirmed": False, "capacity": <current estimate>,
            "sacrificed": []}`` while the filter is still deliberating,
            or ``{"confirmed": True, ...}`` merged with the
            :meth:`apply_capacity` summary on a confirmed change.

        Raises:
            ValueError: On an unknown ``kind``, a missing or
                non-positive ``ratio`` for a kind that requires one, or
                a stage index out of range.
        """
        if kind not in OBSERVATION_KINDS:
            raise ValueError(
                f"kind must be one of {', '.join(OBSERVATION_KINDS)}; got {kind!r}"
            )
        if not 0 <= stage < self.num_stages:
            raise ValueError(f"stage {stage} outside [0, {self.num_stages})")
        if kind == "ok":
            sample = 1.0
        else:
            if ratio is None or not isinstance(ratio, (int, float)) or ratio <= 0:
                raise ValueError(
                    f"{kind} reports require a positive 'ratio' operand"
                )
            ratio = float(ratio)
            if kind == "slowdown":
                sample = min(1.0, ratio)
            else:  # overrun: service took `ratio` times the expectation
                sample = min(1.0, 1.0 / ratio)
        confirmed = self.estimator.observe(stage, sample)
        if confirmed is None:
            return {
                "confirmed": False,
                "capacity": self.estimator.confirmed(stage),
                "sacrificed": [],
            }
        summary = self.apply_capacity(controller, stage, confirmed)
        summary["confirmed"] = True
        return summary

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def sacrifices(self) -> List[Dict[str, Any]]:
        """The bounded sacrifice ledger, oldest entry first (copy)."""
        return [dict(entry) for entry in self._ledger]

    def stats_doc(self) -> Dict[str, Any]:
        """Live degradation summary for the ``stats`` op."""
        return {
            "estimated_capacities": list(self.estimator.confirmed_capacities()),
            "confirmed_drops": self.estimator.confirmed_drops,
            "confirmed_restores": self.estimator.confirmed_restores,
            "ledger_entries": len(self._ledger),
        }

    def state_doc(self) -> Dict[str, Any]:
        """JSON-safe full state (pipeline snapshot support)."""
        return {
            "estimator": self.estimator.state_doc(),
            "ledger": self.sacrifices(),
        }

    def load_state(self, doc: Any) -> None:
        """Adopt a :meth:`state_doc` document.

        Raises:
            ValueError: On a malformed document.
        """
        if not isinstance(doc, dict):
            raise ValueError("degradation state must be a JSON object")
        self.estimator.load_state(doc.get("estimator", {}))
        ledger = doc.get("ledger", [])
        if not isinstance(ledger, list) or not all(
            isinstance(entry, dict) for entry in ledger
        ):
            raise ValueError("degradation ledger must be an array of objects")
        parsed: List[Dict[str, Any]] = []
        for entry in ledger:
            try:
                victims: List[Hashable] = list(entry["sacrificed"])
                parsed.append(
                    {
                        "stage": int(entry["stage"]),
                        "capacity": float(entry["capacity"]),
                        "sacrificed": victims,
                    }
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed ledger entry: {exc}") from exc
        self._ledger = parsed[-SACRIFICE_LEDGER_LIMIT:]
