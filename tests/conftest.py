"""Test-wide settings.

The ``@given`` tests run derandomized and without an example database, so
the examples they try, and with them the suite's verdict, depend on the
code alone: not on the run, and not on failures that a local
``.hypothesis/`` directory remembers from earlier runs. Each test keeps its
own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
