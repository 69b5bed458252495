"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the hom searches started while the test runs.

    One key per backend: every search through ``iter_homomorphisms``
    enters one of ``homengine._BACKEND_IMPLS``.  Plus ``"coverage"``:
    the boundedness probe's warm-started coverage checks
    (``ProbeCoverage._check``), which solve without entering a backend.
    Only searches in this process are counted, not those of pool
    workers.
    """
    from repro.core import decomp, homengine

    calls = dict.fromkeys(homengine._BACKEND_IMPLS, 0)
    calls["coverage"] = 0

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    for backend, impl in list(homengine._BACKEND_IMPLS.items()):
        monkeypatch.setitem(
            homengine._BACKEND_IMPLS, backend, counting(backend, impl)
        )
    monkeypatch.setattr(
        decomp.ProbeCoverage,
        "_check",
        counting("coverage", decomp.ProbeCoverage._check),
    )
    return calls
