"""The benchmark's tracer wraps program attributes by name (see
bench/tracer.py).  These checks catch a rename, a merge or an alias of a
traced name in tier-1 time, without running a workload."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import ENTRY_POINTS, _resolve  # noqa: E402

from hctvem import classic_vem, sf_vem  # noqa: E402


@pytest.mark.parametrize("path", sorted(ENTRY_POINTS))
def test_entry_point_resolves_to_a_callable(path):
    owner, attr = _resolve(path)
    assert callable(getattr(owner, attr))


def test_no_two_entry_points_share_a_slot():
    # two names for one (owner, attribute) slot would be wrapped twice,
    # and the hook would fire for both methods
    slots = {}
    for path in ENTRY_POINTS:
        owner, attr = _resolve(path)
        slot = (id(owner), attr)
        assert slot not in slots, f"{path} and {slots[slot]} share a slot"
        slots[slot] = path


def test_cache_names_read_by_the_worker_exist():
    for cache in (sf_vem._GLOBAL_CACHE, classic_vem._CLASSIC_CACHE,
                  classic_vem._ENRICHED_CACHE):
        assert isinstance(cache, dict)
