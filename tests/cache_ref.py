"""An empty cache for the tests that count what a solve or check runs.

`algebras.cached` shares one store of results between every live algebra
with the same stored constants, and the fixture catalog lives for the
whole test session. A freshly built copy of a catalog algebra therefore
starts warm. The tests that count stages, solves or residuals give their
algebra a store of its own first.
"""


def own_store(a):
    """a, with an empty store of `cached` results that no other algebra
    shares, so every cached function runs afresh on it."""
    a.__dict__["_cache"] = {}
    return a
