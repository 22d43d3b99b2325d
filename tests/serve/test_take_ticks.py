"""A shard drain's ticks, built in one pass over the queued packages.

:func:`~repro.serve.gateway.take_ticks` must split a drain exactly as
the tick-at-a-time builder kept here as the reference: the same ticks,
the same route-group and row order, the same stop after the tick that
spends the checkpoint budget, the same cut at the group limit, and the
same packages left over in queue order.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence import RouteBinding
from repro.serve.gateway import take_ticks
from repro.serve.workers import OBSERVE_MAX_GROUPS

ROUTES = ((None, None), ("gas_pipeline", 1), ("water_tank", 2))


def reference_build_tick(pending):
    """One tick: the first queued package of each stream, grouped by
    route in first-appearance order; the rest wait."""
    groups, leftover, count = {}, deque(), 0
    for item in pending:
        route = item[0].route
        by_stream = groups.setdefault(route.label, {})
        if route.stream_id in by_stream:
            leftover.append(item)
        else:
            by_stream[route.stream_id] = item
            count += 1
    return groups, count, leftover


def reference_take_ticks(pending, budget, max_groups):
    """Rescans the pending packages once per tick."""
    batches, counts = [], []
    while pending:
        groups, count, rest = reference_build_tick(pending)
        if batches and len(batches) + len(groups) > max_groups:
            break
        batches.extend(groups.items())
        counts.append(count)
        pending = rest
        if budget is not None:
            budget -= count
            if budget <= 0:
                break
    return batches, counts, pending


def queued(keys):
    """Queue items ``(session, seq, package, span)``; one session per
    ``(route, stream)`` key, as a live connection holds its binding."""
    sessions = {}
    items = []
    for seq, (route, stream) in enumerate(keys):
        if (route, stream) not in sessions:
            scenario, version = ROUTES[route]
            sessions[(route, stream)] = SimpleNamespace(
                route=RouteBinding(0, scenario, version, stream)
            )
        items.append((sessions[(route, stream)], seq, f"pkg{seq}", None))
    return deque(items)


def shape(batches):
    return [(route, list(by_stream.items())) for route, by_stream in batches]


@settings(max_examples=400, deadline=None)
@given(
    keys=st.lists(
        st.tuples(st.integers(0, len(ROUTES) - 1), st.integers(0, 3)), max_size=80
    ),
    budget=st.none() | st.integers(-2, 60),
    max_groups=st.sampled_from((1, 2, 3, 5, OBSERVE_MAX_GROUPS)),
)
def test_one_pass_matches_tick_at_a_time(keys, budget, max_groups):
    pending = queued(keys)
    want_batches, want_counts, want_rest = reference_take_ticks(
        deque(pending), budget, max_groups
    )
    batches, counts, rest = take_ticks(deque(pending), budget, max_groups)
    assert shape(batches) == shape(want_batches)
    assert counts == want_counts
    assert list(rest) == list(want_rest)
    assert isinstance(rest, deque)


def test_one_stream_window_is_one_row_per_tick():
    pending = queued([(1, 0)] * 32)
    batches, counts, rest = take_ticks(pending, None, OBSERVE_MAX_GROUPS)
    assert counts == [1] * 32 and not rest
    assert [by_stream[0][1] for _, by_stream in batches] == list(range(32))


def test_budget_stops_after_the_tick_that_spends_it():
    pending = queued([(0, 0), (0, 1), (0, 0), (0, 1), (0, 0)])
    batches, counts, rest = take_ticks(pending, 3, OBSERVE_MAX_GROUPS)
    assert counts == [2, 2]
    assert [item[1] for item in rest] == [4]
