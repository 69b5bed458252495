"""The Sec. 3.4 formulas, cross-validated against the reference
correctness predicates of :mod:`repro.atm.encoding` on real encodings."""


from repro.atm.encoding import (
    CHAIN_PREFIX,
    GAMMA_PREFIX,
    ZeroOneTree,
    desired_tree_cut,
    gamma_depth,
    gamma_paths,
    is_good,
    is_properly_branching,
    read_config_bits,
    represents_reject,
)
from repro.atm.machine import (
    initial_configuration,
    iter_computation_trees,
    toy_accept_machine,
    toy_alternation_machine,
    toy_reject_machine,
)
from repro.atm.params import EncodingParams, encode_configuration
from repro.circuits.formula import formula_size
from repro.circuits.gather import fires_at, satisfying_inputs
from repro.circuits.library import (
    build_library,
    cell_formula,
    good_formula,
    head_formula,
    init_formula,
    must_branch_formula,
    no_branch_pair_formula,
    reject_formula,
    same_cell_formula,
    state_formula,
    step_formula,
)

FRONTIER = 9

_SETUP_CACHE: dict = {}


def toy_setup(machine_factory=toy_reject_machine, word="1"):
    key = (machine_factory.__name__, word)
    if key not in _SETUP_CACHE:
        machine = machine_factory()
        params = EncodingParams.from_machine(machine, 2)
        comp = next(iter_computation_trees(machine, word, 2, 16))
        depth = FRONTIER + gamma_depth(params) + 8
        tree = desired_tree_cut(params, machine, word, comp, depth)
        _SETUP_CACHE[key] = (machine, params, comp, tree)
    return _SETUP_CACHE[key]


def flip_bit(params, tree, main, address):
    """Reroute the gamma value edge of ``address`` under ``main``."""
    bits = read_config_bits(params, tree, main)
    path = []
    for i in range(params.d):
        path.extend(GAMMA_PREFIX)
        path.append((address >> (params.d - 1 - i)) & 1)
    path.extend(GAMMA_PREFIX)
    stem = tuple(main) + tuple(path)
    return tree.remove_subtree(stem + (bits[address],)).add_paths(
        [stem + (1 - bits[address],)]
    )


class TestGood:
    def test_matches_reference_on_desired_tree(self):
        machine, params, _, tree = toy_setup()
        check = good_formula(params)
        window = 4 * params.d + 11
        # Sample around the window boundary where goodness is decided.
        nodes = [
            node
            for node in sorted(tree.nodes())
            if window - 2 <= len(node) <= window + 3
        ][:200] + [node for node in sorted(tree.nodes()) if len(node) <= 6]
        for node in nodes:
            assert fires_at(check, tree, node) == (
                not is_good(params, tree, node)
            )

    def test_fires_on_anchorless_path(self):
        _, params, _, _ = toy_setup()
        check = good_formula(params)
        window = 4 * params.d + 11
        tree = ZeroOneTree([(1,) * (window + 1)])
        assert fires_at(check, tree, (1,) * window)
        assert not fires_at(check, tree, (1,) * (window - 1))


class TestBranchingPatterns:
    def test_must_branch_exists_only_for_k4_and_w3(self):
        _, params, _, _ = toy_setup()
        for k in range(4, 4 * params.d + 12):
            check = must_branch_formula(params, k)
            if k == 4 or (k - 4) % 4 == 3:
                if (k - 4) // 4 <= params.d + 1:
                    assert check is not None, k
            else:
                assert check is None, k

    def test_no_branch_pair_k(self):
        _, params, _, _ = toy_setup()
        check = no_branch_pair_formula(params)
        assert check.spec.arity == (4 * params.d + 7) + 2

    def test_branching_formulas_silent_on_desired_tree(self):
        machine, params, _, tree = toy_setup()
        lib = build_library(params, machine, ["1"])
        nodes = [n for n in sorted(tree.nodes()) if len(n) < FRONTIER]
        nodes += [
            n for n in sorted(tree.nodes()) if FRONTIER <= len(n) <= 30
        ][::23]
        for node in nodes:
            if not tree.children(node):
                continue
            for check in lib.branching_checks():
                assert not fires_at(check, tree, node), (node, check.name)

    def test_no_branch_zero_fires_on_forbidden_zero_child(self):
        machine, params, _, tree = toy_setup()
        # Graft a 0-child in the middle of a 111 block of the root gamma:
        # after '1' the node has suffix w=1 and forbids 0-children.
        mutated = tree.add_paths([(1, 0)])
        lib = build_library(params, machine, ["1"])
        fired = [
            check.name
            for check in lib.no_branch_zero
            if fires_at(check, tree=mutated, node=(1,))
        ]
        assert fired
        assert not is_properly_branching(params, mutated, (1,))

    def test_no_branch_one_fires_below_bit_leaf(self):
        machine, params, _, tree = toy_setup()
        config = initial_configuration(machine, "1", params.cells)
        bits = encode_configuration(params, config, 0)
        leaf = gamma_paths(params, bits)[0]
        # Below a bit leaf only a 0-child may start the restart chain.
        mutated = tree.add_paths([leaf + (1,)])
        fired = [
            check.name
            for check in build_library(params, machine, ["1"]).no_branch_one
            if fires_at(check, mutated, leaf)
        ]
        assert fired

    def test_pair_fires_on_double_value(self):
        machine, params, _, tree = toy_setup()
        config = initial_configuration(machine, "1", params.cells)
        bits = encode_configuration(params, config, 0)
        leaf = gamma_paths(params, bits)[0]
        stem = leaf[:-1]
        mutated = tree.add_paths([stem + (1 - leaf[-1],)])
        check = no_branch_pair_formula(params)
        assert fires_at(check, mutated, stem)
        assert not fires_at(check, tree, stem)

    def test_must_branch_pattern_matches_one_child_nodes(self):
        machine, params, _, tree = toy_setup()
        # The root main node's 001*-suffix matches MustBranch[4]; on the
        # (gated) skeleton semantics it would only count at one-child
        # segments, but the raw formula fires whenever the pattern fits.
        check = must_branch_formula(params, 4)
        assert check is not None
        assert fires_at(check, tree, ())


class TestRejectFormula:
    def test_agrees_with_reference(self):
        machine, params, _, tree = toy_setup()
        check = reject_formula(params, machine)
        for node in tree.nodes():
            if len(node) >= FRONTIER:
                continue
            assert fires_at(check, tree, node) == represents_reject(
                params, machine, tree, node
            )

    def test_silent_for_accepting_machine(self):
        machine, params, _, tree = toy_setup(toy_accept_machine)
        check = reject_formula(params, machine)
        for node in tree.nodes():
            if len(node) >= FRONTIER:
                continue
            assert not fires_at(check, tree, node)


class TestStructuralFormulas:
    def test_head_gatherable_at_main_nodes(self):
        machine, params, _, tree = toy_setup()
        check = head_formula(params)
        hits = satisfying_inputs(check, tree, ())
        # One gather per cell (index enumerated by the shared param).
        assert len(hits) == params.cells

    def test_state_gatherable_exactly_once(self):
        machine, params, _, tree = toy_setup()
        check = state_formula(params)
        assert len(satisfying_inputs(check, tree, ())) == 1

    def test_cell_formula_reads_blocks(self):
        machine, params, _, tree = toy_setup()
        check = cell_formula(params)
        hits = satisfying_inputs(check, tree, ())
        assert len(hits) == params.cells

    def test_same_cell_requires_common_index(self):
        machine, params, _, tree = toy_setup()
        check = same_cell_formula(params)
        hits = satisfying_inputs(check, tree, ())
        assert len(hits) == params.cells

    def test_not_gatherable_at_non_main(self):
        machine, params, _, tree = toy_setup()
        check = state_formula(params)
        assert not satisfying_inputs(check, tree, (1,))


class TestStepFormula:
    def test_silent_on_desired_tree(self):
        machine, params, _, tree = toy_setup()
        check = step_formula(params, machine)
        for node in tree.nodes():
            if len(node) >= FRONTIER:
                continue
            assert not fires_at(check, tree, node), node

    def test_fires_on_flipped_symbol(self):
        machine, params, _, tree = toy_setup()
        check = step_formula(params, machine)
        address = params.cell_offset(0) + params.n_gamma - 1
        mutated = flip_bit(params, tree, CHAIN_PREFIX + (0,), address)
        assert fires_at(check, mutated, ())

    def test_fires_on_flipped_state_bit(self):
        machine, params, _, tree = toy_setup()
        check = step_formula(params, machine)
        mutated = flip_bit(params, tree, CHAIN_PREFIX + (1,), 0)
        assert fires_at(check, mutated, ())

    def test_fires_on_flipped_parent_bit(self):
        machine, params, _, tree = toy_setup()
        check = step_formula(params, machine)
        mutated = flip_bit(
            params, tree, CHAIN_PREFIX + (0,), params.parent_bit_position
        )
        assert fires_at(check, mutated, ())

    def test_fires_on_flipped_block_pad_bit(self):
        machine, params, _, tree = toy_setup()
        check = step_formula(params, machine)
        mutated = flip_bit(params, tree, CHAIN_PREFIX + (0,), params.cell_offset(0))
        assert fires_at(check, mutated, ())

    def test_silent_on_accepting_tree(self):
        machine, params, _, tree = toy_setup(toy_accept_machine)
        check = step_formula(params, machine)
        for node in tree.nodes():
            if len(node) >= FRONTIER:
                continue
            assert not fires_at(check, tree, node)

    def test_alternation_machine_with_moves(self):
        """A machine whose transitions move the head still validates."""
        machine, params, _, tree = toy_setup(toy_alternation_machine)
        check = step_formula(params, machine)
        for node in tree.nodes():
            if len(node) >= FRONTIER:
                continue
            assert not fires_at(check, tree, node), node


class TestInitFormula:
    def test_silent_at_correct_restart(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        check = init_formula(params, machine, ["1"])
        assert not fires_at(check, tree, restart)

    def test_fires_for_wrong_word(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        check = init_formula(params, machine, ["0"])
        assert fires_at(check, tree, restart)

    def test_fires_on_nonblank_tail(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        # Flip a symbol bit of the blank cell beyond the input word.
        address = params.cell_offset(1) + params.n_gamma - 1
        mutated = flip_bit(params, tree, restart, address)
        check = init_formula(params, machine, ["1"])
        assert fires_at(check, mutated, restart)

    def test_fires_on_wrong_parent_bit(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        mutated = flip_bit(params, tree, restart, params.parent_bit_position)
        check = init_formula(params, machine, ["1"])
        assert fires_at(check, mutated, restart)

    def test_silent_away_from_restarts(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        check = init_formula(params, machine, ["1"])
        # Configuration children inside a beta tree have a 001*001*
        # context, not 111*001*, so Init cannot fire there.
        assert not fires_at(check, tree, CHAIN_PREFIX + (0,))


class TestLibrary:
    def test_inventory_complete(self):
        machine, params, _, _ = toy_setup()
        lib = build_library(params, machine, ["1"])
        names = [c.name for c in lib.all_checks()]
        assert "Good" in names and "Step" in names
        assert "Init" in names and "Reject" in names
        assert any(n.startswith("MustBranch") for n in names)
        assert any(n.startswith("NoBranch0") for n in names)
        assert any(n.startswith("NoBranch1") for n in names)
        assert any(n.startswith("NoBranchPair") for n in names)

    def test_sizes_reported(self):
        machine, params, _, _ = toy_setup()
        lib = build_library(params, machine, ["1"])
        assert lib.total_size() > 0
        assert "Good" in lib.describe()

    def test_formula_sizes_polynomial_in_word(self):
        """Library size grows modestly with |w| for fixed cells."""
        machine = toy_reject_machine()
        params = EncodingParams.from_machine(machine, 2)
        small = build_library(params, machine, ["1"]).total_size()
        big = build_library(params, machine, ["1", "0"]).total_size()
        assert big >= small
        assert big <= small + 40 * formula_size(
            init_formula(params, machine, ["1"]).formula
        )
