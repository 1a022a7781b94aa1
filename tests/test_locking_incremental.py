"""The incremental PCP blocking engine against its from-scratch oracle.

:class:`PCPBlockingState` updates ``beta_j`` through per-resource lanes
(max-updates on arrival, witness-guarded rescans on departure) and must
stay bitwise equal to :func:`compute_betas`, the sweep, after every
mutation and for every preview.  Floats are compared by ``float.hex`` so
a signed zero or a last-ulp slip cannot hide behind ``==``.
"""

from hypothesis import given, settings, strategies as st

from repro.locking import PCPBlockingState, ResourceSpec, compute_betas
from repro.serve.client import GatewayClient, GatewayControllerProxy, InProcessTransport
from repro.serve.gateway import AdmissionGateway
from repro.serve.loadgen import (
    CONTENTION_ALPHA,
    CONTENTION_STAGES,
    _contention_segments,
    build_contention_trace,
)
from repro.sim.pipeline import PipelineSimulation


def _hex(betas):
    return [beta.hex() for beta in betas]


def _oracle(state, extra=None):
    entries = {task_id: (deadline, specs) for task_id, deadline, specs in state.entries()}
    if extra is not None:
        entries[extra[0]] = (extra[1], extra[2])
    return compute_betas(
        [(task_id, deadline, specs) for task_id, (deadline, specs) in entries.items()],
        state.num_stages,
    )


#: Deadlines drawn from a short list tie often; the open range covers
#: the rest of the float line the engine divides by.
_DEADLINES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
_LENGTHS = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.25]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
#: Int and str ids, including ``1`` next to ``"1"``.
_IDS = st.one_of(st.integers(0, 30), st.text(alphabet="01ab", min_size=1, max_size=2))


def _sections(num_stages):
    """0-4 sections on three resource names shared by every stage."""
    return st.lists(
        st.tuples(
            st.integers(0, num_stages - 1), st.sampled_from(["r0", "r1", "r2"]), _LENGTHS
        ),
        max_size=4,
        unique_by=lambda section: section[:2],
    ).map(lambda raw: [ResourceSpec(stage, name, length) for stage, name, length in raw])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_stages=st.integers(1, 5))
def test_incremental_betas_match_the_sweep(data, num_stages):
    state = PCPBlockingState(num_stages)
    sections = _sections(num_stages)
    for _ in range(data.draw(st.integers(1, 30))):
        tracked = [entry[0] for entry in state.entries()]
        kind = data.draw(
            st.sampled_from(
                [
                    "add",
                    "previewed-add",
                    "remove",
                    "overlay",
                    "preview-other",
                    "preview-remove",
                    "preview-changed",
                ]
            )
        )
        if kind in ("remove", "overlay", "preview-remove") and not tracked:
            kind = "add"
        if kind == "overlay":
            # What-if re-admission of a tracked id with new parameters.
            task_id = data.draw(st.sampled_from(tracked))
            candidate = (task_id, data.draw(_DEADLINES), data.draw(sections))
            assert _hex(state.preview(*candidate)) == _hex(_oracle(state, candidate))
        elif kind == "remove":
            state.remove(data.draw(st.sampled_from(tracked)))
        else:
            task_id = data.draw(_IDS.filter(lambda value: value not in tracked))
            candidate = (task_id, data.draw(_DEADLINES), data.draw(sections))
            if kind != "add":
                assert _hex(state.preview(*candidate)) == _hex(_oracle(state, candidate))
            # A preview is stale once anything mutates or the arrival
            # differs; the add after it must not reuse it.
            if kind == "preview-other":
                other = data.draw(
                    _IDS.filter(lambda value: value not in tracked and value != task_id)
                )
                state.add(other, data.draw(_DEADLINES), data.draw(sections))
            elif kind == "preview-remove":
                state.remove(data.draw(st.sampled_from(tracked)))
            elif kind == "preview-changed":
                candidate = (task_id, candidate[1], data.draw(sections))
            state.add(*candidate)
        assert _hex(state.betas()) == _hex(_oracle(state))
        assert _hex(state.betas()) == _hex(state.recompute())


def test_load_then_churn_matches_the_sweep():
    """A bulk load builds the lanes the later incremental steps use."""
    entries = [
        (task_id, 0.3 + (task_id * 7 % 11) / 4, [ResourceSpec(task_id % 3, "r", (task_id % 5) / 20)])
        for task_id in range(40)
    ]
    state = PCPBlockingState(3)
    state.load(entries[:30])
    assert _hex(state.betas()) == _hex(_oracle(state))
    for task_id, deadline, specs in entries[30:]:
        state.add(task_id, deadline, specs)
        assert _hex(state.betas()) == _hex(_oracle(state))
    for task_id in range(0, 40, 3):
        state.remove(task_id)
        assert _hex(state.betas()) == _hex(_oracle(state))


def test_ids_sharing_a_repr_keep_the_sweep_tie_rule():
    """Equal priority keys block neither way in the sweep; the lanes'
    rescan must not let a tie-mate's section count either."""

    class Same:
        def __repr__(self):
            return "same"

    first, second = Same(), Same()
    state = PCPBlockingState(1)
    state.add(first, 2.0, [ResourceSpec(0, "r", 0.3)])
    assert state.preview(second, 2.0, [ResourceSpec(0, "r", 0.4)]) == (0.0,)
    for task_id, deadline, length in ((second, 2.0, 0.4), ("high", 0.5, 0.0), ("low", 3.0, 0.1)):
        state.add(task_id, deadline, [ResourceSpec(0, "r", length)])
        assert _hex(state.betas()) == _hex(state.recompute())
    for task_id in ("high", second, "low"):
        state.remove(task_id)
        assert _hex(state.betas()) == _hex(state.recompute())
    # A preview of one of them is not reused for the other's add.
    state = PCPBlockingState(1)
    state.add("high", 0.5, [ResourceSpec(0, "r", 0.0)])
    state.preview(first, 2.0, [ResourceSpec(0, "r", 0.4)])
    state.add(second, 2.0, [ResourceSpec(0, "r", 0.4)])
    state.remove(second)
    assert _hex(state.betas()) == _hex(state.recompute()) == _hex((0.0,))


def test_contention_closed_loop_through_the_gateway():
    """Replay the contention trace closed-loop through the served
    gateway and check the engine against the sweep after every add and
    remove, and every preview against the oracle."""
    gateway = AdmissionGateway()
    client = GatewayClient(InProcessTransport(gateway))
    policy = {"num_stages": CONTENTION_STAGES, "alpha": CONTENTION_ALPHA, "locking": True}
    client.register("lock", policy)
    state = gateway.registry.get("lock").controller._blocking
    counts = {"add": 0, "remove": 0, "preview": 0}

    def checked(name, method):
        def run(*args):
            want = _oracle(state, args) if name == "preview" else None
            result = method(*args)
            if want is None:
                want = state.recompute()
            assert _hex(result) == _hex(want)
            counts[name] += 1
            return result

        return run

    for name in counts:
        setattr(state, name, checked(name, getattr(state, name)))
    tasks, _span, horizon = build_contention_trace(3, 400)
    proxy = GatewayControllerProxy(client, "lock", num_stages=CONTENTION_STAGES)
    sim = PipelineSimulation(
        num_stages=CONTENTION_STAGES,
        controller=proxy,
        max_admission_wait=0.0,
        segment_builder=_contention_segments,
    )
    sim.offer_stream(iter(tasks))
    sim.run(horizon, warmup=0.0)
    assert counts["preview"] >= 300
    assert counts["add"] >= 150
    assert counts["remove"] >= 100
