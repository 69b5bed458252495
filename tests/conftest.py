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


@pytest.fixture(scope="module")
def deep_accept_tree():
    """The deep ideal-tree cut of the toy accept machine on word ``"1"``
    with 2 cells (depth ``2 * gamma_depth + 12``, about 4M nodes), and
    the restart node under its first Γ-leaf: ``(machine, params, tree,
    restart)``.

    Building it takes tens of seconds and gigabytes, so each module
    builds it once.  Sharing is safe: :class:`ZeroOneTree` is immutable
    and every mutation returns a new tree.
    """
    from repro.atm.encoding import (
        CHAIN_PREFIX,
        gamma_depth,
        gamma_paths,
        ideal_tree_cut,
    )
    from repro.atm.machine import (
        initial_configuration,
        iter_computation_trees,
        toy_accept_machine,
    )
    from repro.atm.params import EncodingParams, encode_configuration

    machine = toy_accept_machine()
    params = EncodingParams.from_machine(machine, 2)
    comp = next(iter_computation_trees(machine, "1", 2, 16))
    tree = ideal_tree_cut(
        params, machine, "1", lambda _i: comp, 2 * gamma_depth(params) + 12
    )
    bits = encode_configuration(
        params, initial_configuration(machine, "1", params.cells), 0
    )
    restart = gamma_paths(params, bits)[0] + CHAIN_PREFIX + (0,)
    return machine, params, tree, restart
