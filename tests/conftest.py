"""Settings shared by the whole test suite."""

from hypothesis import settings

# Property tests are derandomized and keep no example database, so every
# run checks the same examples and the suite's outcome does not drift.
settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("suite")
