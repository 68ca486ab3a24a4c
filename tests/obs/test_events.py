"""Integration tests: real simulations emit the documented events."""

import pytest

from repro.obs import EVENT_FAMILIES, EVENT_SCHEMA, tracing, uninstall_tracer
from repro.obs import events as obs_events
from repro.workload.scenarios import build_testbed_scenario


@pytest.fixture(autouse=True)
def no_ambient_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


@pytest.fixture(scope="module")
def testbed_events():
    """One traced 30 s testbed run, shared by the assertions below."""
    with tracing(ring=1 << 17) as tracer:
        build_testbed_scenario("flare", duration_s=30.0).run()
        events = tracer.ring().events()
    uninstall_tracer()
    return events


class TestEventFamilies:
    def test_all_four_families_emitted(self, testbed_events):
        types = {event["type"] for event in testbed_events}
        for family, members in EVENT_FAMILIES.items():
            assert types & set(members), f"family {family} never emitted"

    def test_every_emitted_type_is_documented(self, testbed_events):
        for event in testbed_events:
            assert event["type"] in EVENT_SCHEMA

    def test_every_emitted_field_is_documented(self, testbed_events):
        for event in testbed_events:
            documented = set(EVENT_SCHEMA[event["type"]]) | {"type", "t"}
            assert set(event) <= documented, (
                f"{event['type']} carries undocumented fields: "
                f"{set(event) - documented}")


class TestBaiSolveEvent:
    def test_carries_hysteresis_verdicts(self, testbed_events):
        solves = [e for e in testbed_events
                  if e["type"] == obs_events.BAI_SOLVE]
        assert solves
        for event in solves:
            assert event["num_video"] == len(event["flows"])
            assert event["feasible"] in (True, False)
            assert event["solve_s"] >= 0.0
            for verdict in event["flows"]:
                assert verdict["action"] in ("upgrade", "hold",
                                             "downgrade", "keep")
                assert 0 <= verdict["enforced"] <= verdict["recommended"] \
                    or verdict["action"] in ("downgrade", "keep")
                assert verdict["required_streak"] >= 1

    def test_hold_precedes_every_upgrade(self, testbed_events):
        """Algorithm 1's streak: an upgrade needs prior held BAIs."""
        first_action = {}
        for event in testbed_events:
            if event["type"] != obs_events.BAI_SOLVE:
                continue
            for verdict in event["flows"]:
                first_action.setdefault(
                    (verdict["flow"], verdict["action"]), event["t"])
        for (flow, action), when in first_action.items():
            if action == "upgrade":
                held = first_action.get((flow, "hold"))
                assert held is not None and held < when


class TestSegmentEvents:
    def test_requests_and_completions_pair_up(self, testbed_events):
        requests = [e for e in testbed_events
                    if e["type"] == obs_events.SEG_REQUEST]
        done = [e for e in testbed_events
                if e["type"] == obs_events.SEG_DONE]
        assert requests and done
        assert len(done) <= len(requests)
        requested = {(e["flow"], e["segment"]) for e in requests}
        for event in done:
            assert (event["flow"], event["segment"]) in requested
            assert event["throughput_bps"] > 0


class TestTtiAllocEvent:
    def test_prbs_positive_and_gbr_bounded(self, testbed_events):
        allocs = [e for e in testbed_events
                  if e["type"] == obs_events.TTI_ALLOC]
        assert allocs
        for event in allocs:
            assert event["prbs"] > 0 or event["tbs_bytes"] > 0
            assert 0.0 <= event["gbr_prbs"] <= event["prbs"] + 1e-9
            assert event["kind"] in ("video", "data")
