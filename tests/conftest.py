"""Hypothesis settings shared by every property test.

Property tests run whole scans and sweeps per example, so their time per
example varies with machine load; none has a deadline. Each test sets its
own max_examples.
"""
from hypothesis import settings

settings.register_profile("almostreg", deadline=None)
settings.load_profile("almostreg")
