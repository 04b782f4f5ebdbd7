from hypothesis import settings

# No per-example deadline: timings on a shared host vary up to 2x between runs.
settings.register_profile("seqlc", deadline=None)
settings.load_profile("seqlc")
