"""Determinism-taint and exactness rules over the call graph.

The repo's end-to-end guarantee is that admission decisions, journal
records, and snapshots are *bitwise reproducible*: recovery replays the
journal through a fresh core and must land on an identical fingerprint,
and the batching layer promises byte-equality with sequential
processing.  Three rule families guard the code paths that promise
rests on:

- ``DET101`` — a **nondeterministic value** (wall clock, unseeded RNG,
  ``os.urandom``, ``id()``/``hash()``, pids, uuids) flows into a
  canonical serialization sink: the wire encoders, the write-ahead
  journal, or snapshot/fingerprint construction.  Intraprocedural
  dataflow (see :mod:`repro.lint.taint`) with sinks resolved through
  the project call graph, so ``line.encode("utf-8")`` (str method)
  never false-positives against :func:`repro.serve.protocol.encode`.
- ``DET102`` — **nondeterministic order**: iterating a set (literal,
  constructor, or set-typed attribute/parameter) feeds the same sinks.
  ``sorted(...)`` launders order taint — order is exactly what it
  fixes — while value taint survives it.
- ``EXS001`` — raw float ``+=`` / ``-=`` on a utilization-like
  accumulator attribute.  Float accumulation is order-dependent and
  drifts; the tracker's ``U_j(t)`` bookkeeping must route through
  :class:`repro.core.numeric.ExactSum` (exact, invertible,
  order-independent) or the recovered sum depends on replay order.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Set

from ..findings import Finding
from ..graph import SET_TYPE, FunctionInfo, ModuleInfo, ProjectContext
from ..registry import ProjectRule, register_project
from ..taint import UNORDERED_LABEL, analyze_function

__all__ = [
    "DeterminismValueTaintRule",
    "DeterminismOrderTaintRule",
    "FloatAccumulatorRule",
    "NONDET_SOURCE_CALLS",
    "SINK_FUNCTION_NAMES",
]

#: Dotted call expressions that produce a nondeterministic *value*.
NONDET_SOURCE_CALLS: Dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "monotonic-clock read",
    "time.monotonic_ns": "monotonic-clock read",
    "time.perf_counter": "performance-counter read",
    "time.perf_counter_ns": "performance-counter read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getpid": "process id",
    "uuid.uuid1": "host/time-derived uuid",
    "uuid.uuid4": "random uuid",
    "secrets.token_hex": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
    "id": "object address (varies per run)",
    "hash": "hash-randomized value (PYTHONHASHSEED)",
}

#: Module-level ``random.*`` draws (the shared, unseeded global RNG).
_GLOBAL_RNG_RE = re.compile(
    r"^random\.(random|uniform|randint|randrange|choice|choices|shuffle|sample|"
    r"expovariate|gauss|normalvariate|getrandbits)$"
)

#: Final names of *project-resolved* functions that canonically
#: serialize state: wire responses, journal records, snapshots,
#: fingerprints.  Matching requires the call to resolve to a project
#: function — a bare ``.encode("utf-8")`` on a string never matches.
SINK_FUNCTION_NAMES = frozenset(
    {
        "encode",
        "canonical_encode",
        "ok_response",
        "admit_response",
        "error_response",
        "encode_record",
        "record_crc",
        "gateway_snapshot",
        "write_gateway_snapshot",
        "controller_snapshot",
        "registry_fingerprint",
        "_canonical",
    }
)


def _source_label(node: ast.expr) -> Optional[str]:
    """Label for nondeterministic-value source expressions."""
    if not isinstance(node, ast.Call):
        return None
    parts = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    dotted = ".".join(reversed(parts))
    if dotted in NONDET_SOURCE_CALLS:
        return f"{dotted}() [{NONDET_SOURCE_CALLS[dotted]}]"
    if _GLOBAL_RNG_RE.match(dotted):
        return f"{dotted}() [shared global RNG]"
    return None


def _sink_classifier(project: ProjectContext, func: FunctionInfo):
    """Build an ``is_sink`` callback resolving through the call graph."""
    sites = {id(site.node): site for site in func.calls}

    def is_sink(node: ast.Call) -> Optional[str]:
        site = sites.get(id(node))
        if site is None:
            return None
        for target in site.targets:
            parts = target.split(".")
            name = parts[-1]
            if name in SINK_FUNCTION_NAMES:
                return name
            if name == "append" and len(parts) >= 2 and "journal" in parts[-2].lower():
                return f"{parts[-2]}.append"
        return None

    return is_sink


@register_project
class DeterminismValueTaintRule(ProjectRule):
    """DET101: nondeterministic value reaching a serialization sink."""

    rule_id = "DET101"
    summary = (
        "wall-clock / unseeded-RNG / entropy / id() value flowing into "
        "canonical encoding, the write-ahead journal, or a snapshot — the "
        "bitwise-reproducibility contract of the serve layer breaks"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for func in project.iter_functions():
            ctx = project.ctx_for(func)
            is_sink = _sink_classifier(project, func)
            for hit in analyze_function(func.node, _source_label, is_sink):
                yield ctx.finding(
                    self.rule_id,
                    hit.sink_node,
                    f"nondeterministic source {hit.source_label} from line "
                    f"{hit.source_line} flows into serialization sink "
                    f"`{hit.sink_label}` — recovered/replayed state can no "
                    "longer be bitwise identical; derive the value from the "
                    "request stream or a seeded RNG instead",
                )


@register_project
class DeterminismOrderTaintRule(ProjectRule):
    """DET102: unordered set iteration feeding a serialization sink."""

    rule_id = "DET102"
    summary = (
        "iteration order of a set (hash-randomized across runs) flowing "
        "into canonical encoding / journal / snapshot construction — sort "
        "before serializing"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for func in project.iter_functions():
            ctx = project.ctx_for(func)
            is_sink = _sink_classifier(project, func)

            def order_source(node: ast.expr) -> Optional[str]:
                if isinstance(node, (ast.Set, ast.SetComp)):
                    return UNORDERED_LABEL
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in ("set", "frozenset"):
                        return UNORDERED_LABEL
                    return None
                if isinstance(node, (ast.Name, ast.Attribute)):
                    if project.expr_type(func, node) == SET_TYPE:
                        return UNORDERED_LABEL
                return None

            for hit in analyze_function(func.node, order_source, is_sink):
                # Only *order* taint counts here; a set wrapped in
                # sorted() was laundered inside the engine already.
                if hit.kind != UNORDERED_LABEL:
                    continue
                yield ctx.finding(
                    self.rule_id,
                    hit.sink_node,
                    f"set iteration order from line {hit.source_line} flows "
                    f"into serialization sink `{hit.sink_label}` — set order "
                    "is hash-randomized across processes; sort the elements "
                    "before they reach canonical output",
                )


# ----------------------------------------------------------------------
# EXS001 — float accumulation bypassing ExactSum
# ----------------------------------------------------------------------

#: Attribute-name fragments that mark a cross-task accumulator the
#: exactness contract covers.  Deliberately narrow: per-event counters
#: (``self.retries += 1``) and per-job metrics stay out.
_ACCUMULATOR_VOCAB_RE = re.compile(
    r"util|usage|busy|contrib|synthetic|beta|sum_|_sum\b|_total\b",
    re.IGNORECASE,
)


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_int_literal(node.operand)
    return False


@register_project
class FloatAccumulatorRule(ProjectRule):
    """EXS001: raw float ``+=``/``-=`` on a utilization-like attribute."""

    rule_id = "EXS001"
    summary = (
        "raw float += / -= on a utilization-like accumulator attribute — "
        "float accumulation is order-dependent and drifts under add/remove "
        "churn; route the sum through repro.core.numeric.ExactSum"
    )

    #: Packages whose accumulator state feeds U_j(t) bookkeeping.
    _SCOPE = ("core", "sim", "serve")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for cls in project.iter_classes():
            module = project.modules[cls.module]
            if not module.ctx.in_scope(self._SCOPE):
                continue
            for _name, method in sorted(cls.methods.items()):
                for stmt in method.node.body:  # type: ignore[attr-defined]
                    for node in ast.walk(stmt):
                        if not isinstance(node, ast.AugAssign):
                            continue
                        if not isinstance(node.op, (ast.Add, ast.Sub)):
                            continue
                        target = node.target
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        if not _ACCUMULATOR_VOCAB_RE.search(target.attr):
                            continue
                        if _is_int_literal(node.value):
                            continue  # integer event counter
                        op = "+=" if isinstance(node.op, ast.Add) else "-="
                        yield module.ctx.finding(
                            self.rule_id,
                            node,
                            f"`self.{target.attr} {op} {ast.unparse(node.value)}` "
                            f"accumulates floats directly in {cls.name} — the "
                            "running sum depends on arrival order and drifts "
                            "on removal; use repro.core.numeric.ExactSum "
                            "(exact, invertible, order-independent)",
                        )
        for func in project.iter_functions():
            module = project.modules[func.module]
            if not module.ctx.in_scope(self._SCOPE):
                continue
            yield from self._check_local_accumulators(module, func)

    def _check_local_accumulators(
        self, module: ModuleInfo, func: FunctionInfo
    ) -> Iterator[Finding]:
        """Flag loop-carried float ``+=``/``-=`` on accumulator-named locals.

        The attribute pass above catches object state; this pass catches
        the same defect inside a single function body — e.g. the original
        ``region_budget`` summing ``total_beta += float(b)`` over a loop,
        where the result depends on iteration order.  Only augmented
        assignments lexically inside a ``for``/``while`` are loop-carried
        sums; a one-shot adjustment outside a loop is not order-dependent.
        """
        seen: Set[int] = set()
        for loop in ast.walk(func.node):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.AugAssign) or id(node) in seen:
                    continue
                seen.add(id(node))
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                target = node.target
                if not isinstance(target, ast.Name):
                    continue
                if not _ACCUMULATOR_VOCAB_RE.search(target.id):
                    continue
                if _is_int_literal(node.value):
                    continue  # integer event counter
                op = "+=" if isinstance(node.op, ast.Add) else "-="
                yield module.ctx.finding(
                    self.rule_id,
                    node,
                    f"`{target.id} {op} {ast.unparse(node.value)}` "
                    f"accumulates floats in a loop in {func.name} — the "
                    "running sum depends on iteration order; use math.fsum "
                    "over the sequence or repro.core.numeric.ExactSum",
                )
