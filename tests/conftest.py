"""Suite-wide deadline: a test that hangs fails with every thread's stack.

Without it a test blocked forever (a pipe read on a torn frame, a join on
a wedged child) holds the whole run until the CI job's timeout and prints
nothing. Here faulthandler's watchdog dumps every thread's stack and
exits the process once a test overruns ``TEST_DEADLINE_S``, so the log
names the test and the wait.

The stacks go to a copy of stderr taken before output capture starts:
capture redirects fd 2 into a temporary file that an exiting process
never prints.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

#: Seconds one test (its call plus its function-scoped fixtures) may run.
#: The slowest test in a ``--durations=30`` run took 3.4 s on a 2-vCPU
#: host; the margin covers slower runners, not slower tests.
TEST_DEADLINE_S = 60.0

_STACK_FD = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_STACK_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STACK_FD])


@pytest.fixture(autouse=True)
def _deadline(request: pytest.FixtureRequest):
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, file=request.config.stash[_STACK_FD], exit=True
    )
    yield
    faulthandler.cancel_dump_traceback_later()
