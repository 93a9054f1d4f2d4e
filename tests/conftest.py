"""One hypothesis profile for every property test: derandomized, so each run
draws the same examples, and without a deadline, since an example's time
depends on the machine.  Each test sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("ssrmlab", derandomize=True, deadline=None)
settings.load_profile("ssrmlab")
