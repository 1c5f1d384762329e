"""Shared test settings.

A failing Hypothesis example prints its `@reproduce_failure` blob, so it
can be replayed without the local example database. Each test keeps its
own `max_examples` and `deadline`.
"""

from hypothesis import settings

settings.register_profile("glitchbench", print_blob=True)
settings.load_profile("glitchbench")
