"""Test-suite settings.

Property tests draw their examples from a fixed derandomized stream, so a
run of the suite is reproducible; no deadline, because the first examples
pay for numpy's warm-up.  The ``sweep`` profile is the same but random, for
a wider search outside the suite: each ``--hypothesis-seed`` draws its own
reproducible set of examples,

    pytest tests/test_properties.py --hypothesis-profile=sweep --hypothesis-seed=N
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.register_profile("sweep", settings.get_profile("reproducible"), derandomize=False)
settings.load_profile("reproducible")
