"""Shared fixtures."""

import pytest

from repro.herd.client import HerdClientProcess


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
