from hypothesis import settings

# derandomized: the same examples on every run, so Tier-1 stays deterministic;
# no example database is written
settings.register_profile("tier1", derandomize=True, database=None, max_examples=50, deadline=None)
settings.load_profile("tier1")
