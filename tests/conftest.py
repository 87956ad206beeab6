"""Shared fixtures."""

import pytest

from repro.herd.client import HerdClientProcess
from repro.verbs import StagingRing


@pytest.fixture(scope="module")
def parked_count_checked():
    """Every HERD client checks its running parked count at each use.

    ``HerdClientProcess._parked_count`` replaces a sum over the per-partition
    parking lots on the issue path; with this fixture on, each entry to
    the methods that read or move it asserts it still equals that sum.
    """

    def checked(method):
        def wrapper(client, *args):
            assert client._parked_count == sum(len(q) for q in client._parked)
            return method(client, *args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in (
            "_issue_next", "_send_op", "_drain_parked", "_absorb", "_on_not_owner"
        ):
            patch.setattr(
                HerdClientProcess, name, checked(getattr(HerdClientProcess, name))
            )
        yield


@pytest.fixture(scope="module")
def staging_checked():
    """Every WR staged through a ``StagingRing`` carries its own bytes.

    Each staged payload is remembered by (ring, offset); when the NIC
    fetches the WR (or the device flushes it) the bytes still in the
    ring at that extent must equal the bytes that were posted — a
    sender that overwrote an unfetched extent fails the run there.
    """
    staged = {}
    claim, fetched = StagingRing._claim, StagingRing._fetched

    def checked_claim(ring, payload):
        offset = claim(ring, payload)
        if offset is not None:
            staged[ring, offset] = bytes(payload)
        return offset

    def checked_fetched(ring, wr):
        mr, offset, length = wr.local
        assert mr.read(offset, length) == staged.pop((ring, offset)), (
            "the NIC fetched bytes other than the ones staged at %d" % offset
        )
        fetched(ring, wr)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StagingRing, "_claim", checked_claim)
        patch.setattr(StagingRing, "_fetched", checked_fetched)
        yield
