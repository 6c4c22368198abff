"""Shared test settings.

Hypothesis draws from a seed derived from each test, so every run tries the
same examples: some drawn symbolic tables give residuals with large
unreduced rational expressions, and with fresh draws a test's time swung by
an order of magnitude on unchanged code.  Each test keeps its own
max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
