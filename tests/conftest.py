"""One hypothesis profile for the whole suite: derandomised, so every property
test draws the same examples on every run, and without a deadline, since a
single example may run a master-equation solve."""

from hypothesis import settings

settings.register_profile("sbcool", derandomize=True, deadline=None)
settings.load_profile("sbcool")
