"""Shared test settings.

No ``hypothesis`` test shrinks a failing example: shrinking has no time
bound, and a regression in the solver could keep the suite running for
longer than a quarter of an hour before it reported the example it had
already found.  When the ``CI`` environment variable is set, every
``hypothesis`` test also runs derandomized: the same examples on every run,
so a CI failure reproduces locally with ``CI=1``.
"""

import os

from hypothesis import Phase, settings

settings.register_profile("tier1", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.register_profile(
    "ci", settings.get_profile("tier1"), derandomize=True, deadline=None
)
settings.load_profile("ci" if os.environ.get("CI") else "tier1")
