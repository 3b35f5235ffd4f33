"""The service loop's output, pinned byte-for-byte over a drill grid.

Each case serves one seeded workload and hashes three views of the run:

* ``report`` — :meth:`ServiceReport.to_dict` (counters, latency
  percentiles, ring state, digests, problems);
* ``lifecycle`` — every request in admission order with its
  ``acked_at, failed, refused, attempts, deadline, eligible_at``;
* ``slots`` — every log slot's decided command, rounds, appends, new
  crashes and spec violations.

The digests were recorded before the loop switched from whole-history
scans to its in-flight index; any change to retry timing, the idle
branch's next-event choice, or slot assignment shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fabric.faults import ServiceFaultPlan
from repro.service import (
    ClosedLoopWorkload,
    ConsensusService,
    OpenLoopWorkload,
    RetryPolicy,
)
from repro.util.rng import RandomSource


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fingerprint(service: ConsensusService, report) -> dict[str, str]:
    lifecycle = [
        [list(r.key), r.acked_at, r.failed, r.refused, r.attempts,
         r.deadline, r.eligible_at]
        for r in service.requests.values()
    ]
    slots = [
        [s.slot,
         None if s.decided is None
         else [s.decided.origin, s.decided.op,
               None if s.decided.tag is None else list(s.decided.tag)],
         s.rounds, list(s.appended_to), list(s.new_crashes), list(s.violations)]
        for s in service.log.slots
    ]
    return {
        "report": _sha(report.to_dict()),
        "lifecycle": _sha(lifecycle),
        "slots": _sha(slots),
    }


def _plan(text: str, seed: int = 0) -> ServiceFaultPlan:
    return ServiceFaultPlan.from_spec(text, seed=seed)


#: A policy whose backoff outgrows its timeout: a retried request sits
#: queued past its deadline, so the idle branch must wait on
#: ``eligible_at`` (queued) rather than ``deadline``.
_LONG_BACKOFF = RetryPolicy(timeout=2.0, backoff_base=3.0, backoff_cap=10.0,
                            max_attempts=6)


def _steady(seed: int):
    return (ConsensusService(5, t=3, seed=seed), ClosedLoopWorkload(4, 12))


def _think(seed: int):
    return (ConsensusService(4, t=2, seed=seed),
            ClosedLoopWorkload(3, 8, think_time=2.5))


def _storm(seed: int):
    plan = _plan("kill:leader,after=4,every=9,count=3", seed)
    return (ConsensusService(7, t=5, seed=seed, faults=plan),
            OpenLoopWorkload(6, 90, rate=0.45, rng=RandomSource(seed)))


def _storm_light(seed: int):
    plan = _plan("kill:leader,after=10,every=40,count=3", seed)
    return (ConsensusService(7, t=5, seed=seed, faults=plan),
            OpenLoopWorkload(8, 150, rate=0.16, rng=RandomSource(seed)))


def _capped(seed: int):
    return (ConsensusService(4, t=2, seed=seed, max_slots=9),
            OpenLoopWorkload(3, 30, rate=2.0, rng=RandomSource(seed)))


def _kill(point: str):
    def build(seed: int):
        plan = _plan(f"kill:leader,after=2,every=5,count=2,point={point}", seed)
        return (ConsensusService(5, t=3, seed=seed, faults=plan),
                ClosedLoopWorkload(3, 6))
    return build


def _exhausted(seed: int):
    plan = _plan("kill:leader,after=1,every=2,count=4", seed)
    return (ConsensusService(4, t=2, seed=seed, faults=plan),
            ClosedLoopWorkload(2, 8))


def _exhausted_open(seed: int):
    plan = _plan("kill:leader,after=3,every=3,count=4", seed)
    return (ConsensusService(5, t=2, seed=seed, faults=plan),
            OpenLoopWorkload(4, 40, rate=0.8, rng=RandomSource(seed)))


def _transient(seed: int):
    plan = _plan("raise:slot=3,until=2;raise:slot=7,until=1", seed)
    return (ConsensusService(4, t=2, seed=seed, faults=plan),
            ClosedLoopWorkload(3, 5))


def _poison(seed: int):
    plan = _plan("raise:slot=4", seed)
    return (ConsensusService(4, t=2, seed=seed, faults=plan),
            OpenLoopWorkload(3, 20, rate=0.6, rng=RandomSource(seed)))


def _backoff(seed: int):
    plan = _plan("kill:leader,after=3,every=6,count=3", seed)
    return (ConsensusService(6, t=4, seed=seed, faults=plan, policy=_LONG_BACKOFF),
            OpenLoopWorkload(5, 60, rate=0.7, rng=RandomSource(seed)))


def _backoff_closed(seed: int):
    plan = _plan("kill:leader,after=2,every=4,count=2", seed)
    return (ConsensusService(5, t=3, seed=seed, faults=plan, policy=_LONG_BACKOFF),
            ClosedLoopWorkload(4, 6))


CASES = {
    **{f"steady-s{s}": (_steady, s) for s in range(4)},
    **{f"think-s{s}": (_think, s) for s in range(2)},
    **{f"storm-s{s}": (_storm, s) for s in range(3)},
    **{f"storm-light-s{s}": (_storm_light, s) for s in range(2)},
    "capped-s0": (_capped, 0),
    **{f"kill-{p}-s{s}": (_kill(p), s)
       for p in ("before", "data", "control", "after", "rand") for s in (0, 1)},
    **{f"exhausted-s{s}": (_exhausted, s) for s in (3, 4)},
    **{f"exhausted-open-s{s}": (_exhausted_open, s) for s in (0, 1)},
    **{f"transient-s{s}": (_transient, s) for s in (0, 1)},
    **{f"poison-s{s}": (_poison, s) for s in (0, 1)},
    **{f"backoff-s{s}": (_backoff, s) for s in range(3)},
    **{f"backoff-closed-s{s}": (_backoff_closed, s) for s in (0, 1)},
}

EXPECTED: dict[str, dict[str, str]] = {
    "backoff-closed-s0": {"report": "888dc4aa94431a0e", "lifecycle": "0afb629053de8dbc",
        "slots": "acfbbf93380612a9"},
    "backoff-closed-s1": {"report": "bec2457378e52b86", "lifecycle": "5d1e7897fab277ca",
        "slots": "27a8c252bc11ed67"},
    "backoff-s0": {"report": "fb8bd4e183c72d67", "lifecycle": "4ac65a0e3bb0304d",
        "slots": "9ad2a6638662c780"},
    "backoff-s1": {"report": "6f1933f71037e697", "lifecycle": "57891f040ae7c04d",
        "slots": "c2ab5a1c1c73deef"},
    "backoff-s2": {"report": "1770f5a9a8f84eba", "lifecycle": "365ee771b1f4f3ca",
        "slots": "428077491deef478"},
    "capped-s0": {"report": "7e3b3a79404f2aaf", "lifecycle": "c845e85c04ee2263",
        "slots": "0fa79b619e75478d"},
    "exhausted-open-s0": {"report": "26fc14805fa3b526", "lifecycle": "96da2d239defc4dd",
        "slots": "ce509bd375b7e982"},
    "exhausted-open-s1": {"report": "53cd8a1bd5664015", "lifecycle": "f1ba1a0156d6f3f9",
        "slots": "16222b770c67225d"},
    "exhausted-s3": {"report": "75711bb1d22959ca", "lifecycle": "158b20c4bd04f210",
        "slots": "0140b0eb7ab0b31d"},
    "exhausted-s4": {"report": "b0b7617e430aeea2", "lifecycle": "6b7b77f291ae4cbe",
        "slots": "b4f6142f5555d9eb"},
    "kill-after-s0": {"report": "bdfa854c52702001", "lifecycle": "6fad9fd2d252cfb4",
        "slots": "dcd66ec887a4fcce"},
    "kill-after-s1": {"report": "bdfa854c52702001", "lifecycle": "6fad9fd2d252cfb4",
        "slots": "dcd66ec887a4fcce"},
    "kill-before-s0": {"report": "28d096f2085d72df", "lifecycle": "d5c65369c1533112",
        "slots": "f2cf2bf870c15230"},
    "kill-before-s1": {"report": "28d096f2085d72df", "lifecycle": "d5c65369c1533112",
        "slots": "f2cf2bf870c15230"},
    "kill-control-s0": {"report": "bb4f5be63e2a1c74", "lifecycle": "5c2f8f62839cbadc",
        "slots": "92051b0b3e449f5f"},
    "kill-control-s1": {"report": "bb4f5be63e2a1c74", "lifecycle": "5c2f8f62839cbadc",
        "slots": "92051b0b3e449f5f"},
    "kill-data-s0": {"report": "28d096f2085d72df", "lifecycle": "d5c65369c1533112",
        "slots": "f2cf2bf870c15230"},
    "kill-data-s1": {"report": "471847f4d1c3f73f", "lifecycle": "55dc224aaa399e48",
        "slots": "e3f7348b80db2193"},
    "kill-rand-s0": {"report": "b34586bd6d82b710", "lifecycle": "cc104b9361a5cb2a",
        "slots": "41c7eedcfb51bfa4"},
    "kill-rand-s1": {"report": "471847f4d1c3f73f", "lifecycle": "55dc224aaa399e48",
        "slots": "e3f7348b80db2193"},
    "poison-s0": {"report": "e03e841d649e1f88", "lifecycle": "eec0d92c4fc55b63",
        "slots": "43d417e3023d0d24"},
    "poison-s1": {"report": "08325603511f187f", "lifecycle": "11ada06a06da8cde",
        "slots": "43d417e3023d0d24"},
    "steady-s0": {"report": "cef61b2d24c7b70f", "lifecycle": "d3cefad1f54998d8",
        "slots": "3347a27cca789296"},
    "steady-s1": {"report": "cef61b2d24c7b70f", "lifecycle": "d3cefad1f54998d8",
        "slots": "3347a27cca789296"},
    "steady-s2": {"report": "cef61b2d24c7b70f", "lifecycle": "d3cefad1f54998d8",
        "slots": "3347a27cca789296"},
    "steady-s3": {"report": "cef61b2d24c7b70f", "lifecycle": "d3cefad1f54998d8",
        "slots": "3347a27cca789296"},
    "storm-light-s0": {"report": "e7f7ed76bf8a3f63", "lifecycle": "b2451df01b27660c",
        "slots": "77aead8e77a2f5ae"},
    "storm-light-s1": {"report": "b64a3c82c902b060", "lifecycle": "5e122d7933254e60",
        "slots": "6dce03fff8052a6d"},
    "storm-s0": {"report": "b9c68ea82a701769", "lifecycle": "d9f15d01188fedee",
        "slots": "a2357e0b7d4c227a"},
    "storm-s1": {"report": "5a4f01cb66900126", "lifecycle": "6014b1d81238e439",
        "slots": "566489400fa751c9"},
    "storm-s2": {"report": "e816f36829202615", "lifecycle": "49105925830bb029",
        "slots": "c51f21cf4c636599"},
    "think-s0": {"report": "9f1b04bfcf50550f", "lifecycle": "89437ea360964af2",
        "slots": "39beb25900164e17"},
    "think-s1": {"report": "9f1b04bfcf50550f", "lifecycle": "89437ea360964af2",
        "slots": "39beb25900164e17"},
    "transient-s0": {"report": "a49f56810f94f1f0", "lifecycle": "2b3e34a02f09a2ed",
        "slots": "be3376960ead8d36"},
    "transient-s1": {"report": "a49f56810f94f1f0", "lifecycle": "2b3e34a02f09a2ed",
        "slots": "be3376960ead8d36"},
}


def serve(name: str):
    build, seed = CASES[name]
    service, workload = build(seed)
    return service, service.run(workload)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_pinned(name):
    service, report = serve(name)
    assert fingerprint(service, report) == EXPECTED[name]
    # The in-flight index is exactly the unsettled part of the history,
    # and a run that ends cleanly leaves nothing in flight.
    unsettled = [k for k, r in service.requests.items() if not r.settled]
    assert list(service.inflight) == unsettled
    if not report.problems:
        assert not service.inflight


class _BoundedDict(dict):
    """An in-flight index that fails the run the moment it overflows."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self.peak = 0

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))
        assert len(self) <= self.limit, f"{len(self)} in flight > {self.limit}"


_CLOSED = sorted(
    name for name, (build, seed) in CASES.items()
    if isinstance(build(seed)[1], ClosedLoopWorkload)
)


@pytest.mark.parametrize("name", _CLOSED)
def test_closed_loop_inflight_bounded_by_clients(name):
    build, seed = CASES[name]
    service, workload = build(seed)
    service.inflight = bounded = _BoundedDict(workload.clients)
    report = service.run(workload)
    assert bounded.peak == workload.clients
    assert fingerprint(service, report) == EXPECTED[name]
