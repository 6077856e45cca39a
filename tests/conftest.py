"""Shared test settings.

When the ``CI`` environment variable is set, every ``hypothesis`` test runs
derandomized: the same examples on every run, so a CI failure reproduces
locally with ``CI=1``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
