from hypothesis import settings

# Property tests draw the same examples on every run, so the suite is deterministic.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
