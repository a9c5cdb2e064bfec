"""Shared pytest configuration.

Adds the ``--update-golden`` flag used by the golden regression tests
(the small scenario's decision trace and the seed-7 fuzz campaign
summary): instead of comparing against the pinned files under
``tests/golden/``, the tests rewrite them from the current
implementation.  Run it deliberately, inspect the diff, and commit the
regenerated files together with the change that moved them.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden files instead of comparing",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")
