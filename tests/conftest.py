"""Test-suite settings.

Property tests draw their examples from a fixed derandomized stream, so a
run of the suite is reproducible; no deadline, because the first examples
pay for numpy's warm-up.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
