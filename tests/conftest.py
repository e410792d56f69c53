"""Suite-wide test settings.

Hypothesis draws the same examples on every run (a seed derived from each
test), and keeps no example database, so the suite's outcome does not
depend on earlier runs. Each test's own `max_examples` still applies.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
