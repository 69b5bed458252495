"""01-trees, configuration/computation trees, correctness predicates."""

import pytest

from repro.atm.encoding import (
    CHAIN_PREFIX,
    GAMMA_PREFIX,
    TreeBuilder,
    ZeroOneTree,
    beta_plus_cut,
    beta_tree,
    desired_tree_cut,
    gamma_depth,
    gamma_paths,
    gamma_tree,
    incorrect_nodes,
    is_correct,
    is_good,
    is_main_path,
    is_properly_branching,
    is_properly_computing,
    is_properly_initialising,
    node_correctness_report,
    read_config_bits,
    read_full_configuration,
    reject_main_nodes,
    represents_reject,
    suffix_decomposition,
)
from repro.atm.machine import (
    iter_computation_trees,
    toy_accept_machine,
    toy_reject_machine,
)
from repro.atm.params import EncodingParams, encode_configuration
from repro.atm.machine import initial_configuration


def setup_toy(machine_factory=toy_reject_machine, word="1", cells=2):
    machine = machine_factory()
    params = EncodingParams.from_machine(machine, cells)
    trees = list(iter_computation_trees(machine, word, cells, 16))
    return machine, params, trees


class TestZeroOneTree:
    def test_prefix_closure(self):
        tree = ZeroOneTree([(0, 1, 1)])
        assert (0,) in tree
        assert (0, 1) in tree
        assert () in tree

    def test_children_and_leaves(self):
        tree = ZeroOneTree([(0,), (1, 0)])
        assert tree.children(()) == (0, 1)
        assert tree.is_leaf((0,))
        assert not tree.is_leaf((1,))

    def test_cut(self):
        tree = ZeroOneTree([(0, 1, 1, 0)])
        cut = tree.cut(2)
        assert cut.depth() == 2
        assert (0, 1) in cut
        assert (0, 1, 1) not in cut

    def test_subtree_accumulates_context(self):
        tree = ZeroOneTree([(0, 1, 1)], context=(1, 1))
        sub = tree.subtree((0,))
        assert sub.context == (1, 1, 0)
        assert (1,) in sub
        assert sub.full_label_path((1, 1)) == (1, 1, 0, 1, 1)

    def test_remove_subtree(self):
        tree = ZeroOneTree([(0, 0), (0, 1), (1,)])
        pruned = tree.remove_subtree((0, 1))
        assert (0, 1) not in pruned
        assert (0, 0) in pruned

    def test_builder_keeps_closure(self):
        builder = TreeBuilder()
        builder.add_path((1, 1, 0))
        tree = builder.build()
        assert (1,) in tree and (1, 1) in tree

    def test_nodes_at_depth(self):
        tree = ZeroOneTree([(0, 0), (0, 1), (1,)])
        assert sorted(tree.nodes_at_depth(2)) == [(0, 0), (0, 1)]


class TestSuffixDecomposition:
    def test_main_node_anchor(self):
        shape = suffix_decomposition((0, 0, 1, 0))
        assert shape is not None
        assert shape.blocks == 0 and shape.tail == ()
        assert shape.k() == 4

    def test_blocks_counted(self):
        labels = (0, 0, 1, 1) + (1, 1, 1, 0) * 2 + (1, 1)
        shape = suffix_decomposition(labels)
        assert shape.blocks == 2 and shape.tail == (1, 1)
        assert shape.valid

    def test_anchor_is_last_001(self):
        labels = (0, 0, 1, 0) + (1, 1, 1, 1) + (0, 0, 1, 1)
        shape = suffix_decomposition(labels)
        assert shape.anchor == 8
        assert shape.blocks == 0 and shape.tail == ()

    def test_trailing_001_is_tail_not_anchor(self):
        labels = (0, 0, 1, 0) + (0, 0, 1)
        shape = suffix_decomposition(labels)
        assert shape.anchor == 0
        assert shape.tail == (0, 0, 1)

    def test_no_anchor(self):
        assert suffix_decomposition((1, 1, 1, 1)) is None

    def test_invalid_tail(self):
        labels = (0, 0, 1, 0) + (1, 0)
        shape = suffix_decomposition(labels)
        assert not shape.valid

    def test_is_main_path(self):
        assert is_main_path((1, 0, 0, 1, 1))
        assert not is_main_path((1, 1, 1, 0))
        assert not is_main_path((0, 1))


class TestGammaTree:
    def test_depth_and_leaf_count(self):
        machine, params, _ = setup_toy()
        config = initial_configuration(machine, "1", params.cells)
        bits = encode_configuration(params, config, 0)
        tree = gamma_tree(params, bits)
        assert tree.depth() == gamma_depth(params) == 4 * (params.d + 1)
        leaves = [n for n in tree.nodes() if tree.is_leaf(n)]
        assert len(leaves) == params.seq_len

    def test_bits_readable_back(self):
        machine, params, _ = setup_toy()
        config = initial_configuration(machine, "1", params.cells)
        bits = encode_configuration(params, config, 1)
        tree = gamma_tree(params, bits)
        read = read_config_bits(params, tree, ())
        assert read == {i: bits[i] for i in range(params.seq_len)}

    def test_wrong_bit_count_rejected(self):
        _, params, _ = setup_toy()
        with pytest.raises(ValueError):
            gamma_paths(params, (0,) * (params.seq_len - 1))

    def test_paths_share_address_prefixes(self):
        machine, params, _ = setup_toy()
        config = initial_configuration(machine, "1", params.cells)
        bits = encode_configuration(params, config, 0)
        tree = gamma_tree(params, bits)
        # The first three edges are the shared 111 chain.
        assert tree.children(()) == (1,)
        assert tree.children((1,)) == (1,)
        assert tree.children((1, 1)) == (1,)
        # The fourth edge branches on the first address bit.
        assert tree.children((1, 1, 1)) == (0, 1)


class TestBetaTrees:
    def test_beta_tree_main_nodes(self):
        machine, params, trees = setup_toy()
        tree = beta_tree(params, machine, trees[0])
        # Root is a main node (via context when given one).
        assert tree.children(()) == (0, 1)
        chain_end = CHAIN_PREFIX
        assert tree.children(chain_end) == (0, 1)

    def test_beta_tree_child_configs_readable(self):
        machine, params, trees = setup_toy()
        tree = beta_tree(params, machine, trees[0])
        for branch in (0, 1):
            main = CHAIN_PREFIX + (branch,)
            decoded = read_full_configuration(params, tree, main)
            assert decoded is not None
            config, parent_bit = decoded
            # Both grandchildren record the OR-choice as parent bit.
            assert parent_bit == trees[0].children[0][0]

    def test_beta_plus_repeats_halting(self):
        machine, params, trees = setup_toy()
        depth = 12 + gamma_depth(params)
        tree = beta_plus_cut(params, machine, trees[0], depth)
        # Children of halting mains repeat the halting configuration.
        main = CHAIN_PREFIX + (0,)
        child = main + CHAIN_PREFIX + (0,)
        first = read_full_configuration(params, tree, main)
        second = read_full_configuration(params, tree, child)
        assert first is not None and second is not None
        assert first[0] == second[0]
        assert second[1] == 0

    def test_ideal_tree_restarts_below_bit_leaves(self, deep_accept_tree):
        # The module's shared 2*gd+12 cut of the same machine, word,
        # cells and computation tree: deep enough for the restart below
        # the first bit-leaf of the root configuration tree.
        machine, params, tree, _ = deep_accept_tree
        # Find a bit-leaf of the root configuration tree and check the
        # restart below it carries c_init.
        bits = encode_configuration(
            params,
            initial_configuration(machine, "1", params.cells),
            0,
        )
        leaf = gamma_paths(params, bits)[0]
        restart = leaf + CHAIN_PREFIX + (0,)
        assert restart in tree
        decoded = read_full_configuration(params, tree, restart)
        assert decoded is not None
        config, parent_bit = decoded
        assert config == initial_configuration(machine, "1", params.cells)
        assert parent_bit == 0

    def test_desired_tree_has_chain_context(self):
        machine, params, trees = setup_toy()
        tree = desired_tree_cut(params, machine, "1", trees[0], 20)
        assert tree.context == (0, 0, 1, 0)
        assert is_main_path(tree.full_label_path(()))


class TestCorrectnessPredicates:
    def make_tree(self, machine_factory=toy_reject_machine, frontier=9):
        machine, params, trees = setup_toy(machine_factory)
        depth = frontier + gamma_depth(params) + 8
        tree = desired_tree_cut(params, machine, "1", trees[0], depth)
        return machine, params, tree, frontier

    def test_desired_tree_is_everywhere_correct(self):
        machine, params, tree, frontier = self.make_tree()
        assert incorrect_nodes(params, machine, "1", tree, frontier) == []

    def test_goodness_fails_on_long_gamma_only_path(self):
        _, params, _ = setup_toy()
        window = 4 * params.d + 11
        tree = ZeroOneTree([(1,) * (window + 2)])
        assert not is_good(params, tree, (1,) * (window + 1))
        # Shallow nodes are vacuously good.
        assert is_good(params, tree, (1,) * (window - 1))

    def test_branching_violation_detected(self):
        machine, params, tree, frontier = self.make_tree()
        # Remove the 1-child of the root main node: the root stops
        # branching into its gamma tree and becomes incorrect.
        mutated = tree.remove_subtree((1,))
        assert not is_properly_branching(params, mutated, ())
        assert () in incorrect_nodes(params, machine, "1", mutated, frontier)

    def test_leaves_below_frontier_are_incorrect(self):
        machine, params, tree, frontier = self.make_tree()
        mutated = tree.remove_subtree((0, 0))
        report = node_correctness_report(params, machine, "1", mutated, (0,))
        assert not report["properly_branching"]

    def test_computing_violation_detected(self):
        machine, params, tree, frontier = self.make_tree()
        # Flip one stored content bit of a child configuration: pick a
        # gamma value leaf under the child main and reroute it.
        child_main = CHAIN_PREFIX + (0,)
        bits = read_config_bits(params, tree, child_main)
        address = params.cell_offset(0)
        # Rebuild the path to that address and flip the value edge.
        path = []
        for i in range(params.d):
            path.extend(GAMMA_PREFIX)
            path.append((address >> (params.d - 1 - i)) & 1)
        path.extend(GAMMA_PREFIX)
        stem = child_main + tuple(path)
        old_leaf = stem + (bits[address],)
        mutated = tree.remove_subtree(old_leaf).add_paths(
            [stem + (1 - bits[address],)]
        )
        assert not is_properly_computing(params, machine, mutated, ())

    def test_init_violation_detected(self, deep_accept_tree):
        machine, params, tree, restart = deep_accept_tree
        assert is_properly_initialising(params, machine, "1", tree, restart)
        # A restart is NOT properly initialising for a different word.
        assert not is_properly_initialising(
            params, machine, "0", tree, restart
        )

    def test_reject_mains_found_for_rejecting_machine(self):
        machine, params, tree, frontier = self.make_tree(toy_reject_machine)
        rejecting = reject_main_nodes(params, machine, "1", tree, frontier)
        assert rejecting
        for node in rejecting:
            assert represents_reject(params, machine, tree, node)

    def test_accepting_machine_has_no_reject_mains(self):
        machine, params, tree, frontier = self.make_tree(toy_accept_machine)
        assert reject_main_nodes(params, machine, "1", tree, frontier) == []

    def test_report_keys(self):
        machine, params, tree, _ = self.make_tree()
        report = node_correctness_report(params, machine, "1", tree, ())
        assert set(report) == {
            "good",
            "properly_branching",
            "properly_initialising",
            "properly_computing",
            "represents_reject",
        }
        assert all(
            report[key]
            for key in ("good", "properly_branching", "properly_computing")
        )

    def test_is_correct_conjunction(self):
        machine, params, tree, frontier = self.make_tree()
        for node in tree.nodes():
            if len(node) >= frontier:
                continue
            assert is_correct(params, machine, "1", tree, node)


class TestClaim41:
    """Mutating a desired-tree cut always produces an incorrect node."""

    def test_structure_mutations_detected(self):
        machine, params, trees = setup_toy()
        frontier = 9
        depth = frontier + gamma_depth(params) + 8
        tree = desired_tree_cut(params, machine, "1", trees[0], depth)
        # Remove each shallow subtree in turn; some ancestor must become
        # incorrect (Claim 4.1: correct nodes characterise desired cuts).
        candidates = [n for n in tree.nodes() if 0 < len(n) <= 6]
        for node in candidates:
            mutated = tree.remove_subtree(node)
            assert incorrect_nodes(params, machine, "1", mutated, frontier), (
                f"undetected mutation at {node}"
            )

    def test_content_bit_flips_detected(self):
        machine, params, trees = setup_toy()
        frontier = 9
        depth = frontier + gamma_depth(params) + 8
        tree = desired_tree_cut(params, machine, "1", trees[0], depth)
        child_main = CHAIN_PREFIX + (1,)
        bits = read_config_bits(params, tree, child_main)
        for address in sorted(params.meaningful_addresses()):
            path = []
            for i in range(params.d):
                path.extend(GAMMA_PREFIX)
                path.append((address >> (params.d - 1 - i)) & 1)
            path.extend(GAMMA_PREFIX)
            stem = child_main + tuple(path)
            mutated = tree.remove_subtree(
                stem + (bits[address],)
            ).add_paths([stem + (1 - bits[address],)])
            assert incorrect_nodes(
                params, machine, "1", mutated, frontier
            ), f"undetected bit flip at address {address}"

    def test_padding_bit_flips_not_flagged(self):
        """Padding positions are unconstrained by design."""
        machine, params, trees = setup_toy()
        frontier = 9
        depth = frontier + gamma_depth(params) + 8
        tree = desired_tree_cut(params, machine, "1", trees[0], depth)
        padding = [
            a
            for a in range(params.seq_len)
            if a not in params.meaningful_addresses()
        ]
        assert padding, "toy parameters should include padding"
        child_main = CHAIN_PREFIX + (1,)
        bits = read_config_bits(params, tree, child_main)
        address = padding[0]
        path = []
        for i in range(params.d):
            path.extend(GAMMA_PREFIX)
            path.append((address >> (params.d - 1 - i)) & 1)
        path.extend(GAMMA_PREFIX)
        stem = child_main + tuple(path)
        mutated = tree.remove_subtree(stem + (bits[address],)).add_paths(
            [stem + (1 - bits[address],)]
        )
        assert incorrect_nodes(params, machine, "1", mutated, frontier) == []
