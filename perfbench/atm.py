"""The ``atm`` workload: the Section 3 construction behind
2ExpTime-hardness, run on the three toy machines.

A round builds one ideal-tree cut deep enough to hold the whole
configuration tree below a restart (the shape of the Init-formula
checks) and runs Init checks at restarts in it; then, per machine, the
formula library, a desired-tree cut, the Claim 4.1 reference check and
the Claim 4.2 formula check on it and on mutations of it; and one
``build_query``.  The deep cut and ``build_query`` take seconds; the
Init checks and the mutations that rebuild the tree (grafts and flips,
~0.1 s) make up the population ``op_p95_ms`` falls in, and the
reference and formula checks (~10-40 ms) the one ``op_p50_ms`` falls
in.

Mutations remove a subtree or graft a missing sibling at a seeded node
near the top of the tree, or flip a stored configuration bit of a main
node.  The flips follow the fixed schedule ``FLIPS`` on a desired tree
that does not depend on the seed either: the formulas miss flips of
in-block padding bits above the frontier (README, "Found"), and with
fixed flips that fault is the same ops, counted as failed, in every
run.
"""

from __future__ import annotations

import random

import oracle
from common import Op

ROUND_S = 24.0
CELLS = 2
FRONTIER = 5  # Claim 4.1/4.2 checks cover nodes above this depth
SEEDED_MUTATIONS = 28  # removals and grafts, per machine and round
INIT_CHECKS = 6
DEEP_WORD = "1"
# Each machine's desired tree repeats its first computation tree on
# this word.  One-symbol words: the formula library for a two-symbol
# word takes 20x longer.
DESIRED_WORD = "1"
# Init checks alternate the tree's own word (silent) with these; the
# built query's word is drawn from WORDS.
WRONG_WORDS = ("0", "00", "11")
WORDS = ("0", "1")
# Mutations land within this many levels below the frontier, where
# they can change the verdict of a node above it.
MUTATION_REACH = 8
# Flips per machine and round: (main node, address of the stored bit).
# With two cells the configuration holds the state block at 0-7, cell
# blocks at 8-11 and 12-15 (two in-block padding bits, then the symbol
# code) and the parent bit at 31.
FLIPS = (
    ((), 0),  # the root's state code
    ((), 8),  # the root's cell 0 padding: the formulas miss it
    ((0, 0, 1, 0), 31),  # parent bit of a main node at depth 4
    ((0, 0, 1, 1), 14),  # a symbol code bit at depth 4
    ((0, 0, 1, 0, 0, 0, 1, 1), 12),  # cell 1 padding below the frontier
)


def _machines():
    from repro.atm.machine import (
        toy_accept_machine,
        toy_alternation_machine,
        toy_reject_machine,
    )

    return {
        "reject": toy_reject_machine(),
        "accept": toy_accept_machine(),
        "alternation": toy_alternation_machine(),
    }


def build_ops(seed: int, rounds: int) -> list[Op]:
    """The op list of a run.  Ops that act on a tree built by an
    earlier op name it by key; :func:`run_op` keeps built trees in a
    per-run table."""
    from repro.atm.encoding import CHAIN_PREFIX, gamma_depth, gamma_paths
    from repro.atm.machine import initial_configuration, iter_computation_trees
    from repro.atm.params import EncodingParams, encode_configuration

    rng = random.Random(seed)
    machines = _machines()
    ops: list[Op] = []
    for r in range(rounds):
        accept = machines["accept"]
        params = EncodingParams.from_machine(accept, CELLS)
        gd = gamma_depth(params)
        comp = next(iter_computation_trees(accept, DEEP_WORD, CELLS, 16))
        # A restart sits below a bit-leaf of the root configuration
        # tree (depth gd) after the 0,0,1,b chain; its own
        # configuration tree ends gd levels further down.
        deep = ("deep", r)
        ops.append(Op("deep_cut", "accept", (deep, accept, params, comp, 2 * gd + 4)))
        bits = encode_configuration(
            params, initial_configuration(accept, DEEP_WORD, params.cells), 0
        )
        leaves = gamma_paths(params, bits)
        for i in range(INIT_CHECKS):
            restart = rng.choice(leaves) + CHAIN_PREFIX + (rng.randrange(2),)
            word = DEEP_WORD if i % 2 == 0 else WRONG_WORDS[i // 2 % len(WRONG_WORDS)]
            ops.append(Op("init_check", word, (deep, accept, params, restart, word)))
        ops[-1].release = (deep,)
        for name, machine in machines.items():
            params = EncodingParams.from_machine(machine, CELLS)
            word = DESIRED_WORD
            comp = next(iter_computation_trees(machine, word, CELLS, 16))
            lib = (name, "lib", r)
            desired = (name, "desired", r)
            ops.append(Op("library", name, (lib, params, machine, word)))
            ops.append(Op("desired_cut", name, (
                desired, params, machine, word, comp,
                FRONTIER + gamma_depth(params) + 8,
            )))
            ops.append(Op("claim41", name, (desired, params, machine, word)))
            ops.append(Op("claim42", name, (desired, lib, machine, word)))
            # Path from a main node to the parent of each stored bit.
            stored = [p[:-1] for p in gamma_paths(params, (0,) * params.seq_len)]
            padding = {
                params.cell_offset(c) + offset
                for c in range(params.cells)
                for offset in range(params.n_gamma - params.sym_bits)
            }
            mutations = [
                ("remove" if m % 2 == 0 else "add", rng.random())
                for m in range(SEEDED_MUTATIONS)
            ] + [
                ("flip", (main, address, address in padding, main + stored[address]))
                for main, address in FLIPS
            ]
            for m, (how, where) in enumerate(mutations):
                mutated = (name, "mut", r, m)
                ops.append(Op("mutate", how, (mutated, desired, how, where)))
                ops.append(Op("claim41", name, (mutated, params, machine, word)))
                ops.append(Op("claim42", name, (mutated, lib, machine, word),
                              release=(mutated,)))
            ops[-1].release += (desired, (desired, "candidates"), lib)
        name = list(machines)[r % len(machines)]
        ops.append(Op("build_query", name, (machines[name], rng.choice(WORDS))))
    return ops


def describe(ops: list[Op]) -> list[str]:
    """A printable digest of an op list (the same seed gives the same
    list)."""
    return [
        f"{op.kind}:{op.name}:"
        + repr([a for a in op.args if isinstance(a, (str, int, float, tuple))])
        for op in ops
    ]


def _mutation_candidates(tree) -> dict[str, list]:
    """Nodes a mutation may act on, in path order: any node within
    reach for a removal, a node with one child for a graft."""
    reach = FRONTIER + MUTATION_REACH
    near = sorted(n for n in tree.paths if 1 <= len(n) <= reach)
    return {
        "remove": near,
        "add": [n for n in near if len(n) < reach and len(tree.children(n)) == 1],
    }


def run_op(op: Op, table: dict):
    """Execute one op; trees and libraries built by earlier ops live
    in ``table``."""
    from repro.atm.encoding import desired_tree_cut, ideal_tree_cut, incorrect_nodes
    from repro.atm.reduction import build_query, formula_incorrectness
    from repro.circuits.gather import fires_at
    from repro.circuits.library import build_library, init_formula

    kind, args = op.kind, op.args
    if kind == "deep_cut":
        key, machine, params, comp, depth = args
        table[key] = ideal_tree_cut(
            params, machine, DEEP_WORD, lambda _i: comp, depth
        )
        return len(table[key])
    if kind == "init_check":
        key, machine, params, restart, word = args
        return fires_at(init_formula(params, machine, list(word)), table[key], restart)
    if kind == "library":
        key, params, machine, word = args
        table[key] = build_library(params, machine, list(word))
        return len(table[key].all_checks())
    if kind == "desired_cut":
        key, params, machine, word, comp, depth = args
        table[key] = desired_tree_cut(params, machine, word, comp, depth)
        return len(table[key])
    if kind == "mutate":
        key, source, how, where = args
        tree = table[source]
        if how == "flip":
            # Move the subtree below the stored bit's edge to the other
            # edge label.
            node = where[3]
            (bit,) = tree.children(node)
            below = tree.subtree(node + (bit,))
            table[key] = tree.remove_subtree(node + (bit,)).add_paths(
                node + (1 - bit,) + p for p in below.paths
            )
            return len(table[key])
        candidates = table[source, "candidates"][how]
        node = candidates[int(where * len(candidates))]
        if how == "remove":
            table[key] = tree.remove_subtree(node)
        else:
            table[key] = tree.add_paths([node + (1 - tree.children(node)[0],)])
        return len(table[key])
    if kind == "claim41":
        key, params, machine, word = args
        return incorrect_nodes(params, machine, word, table[key], FRONTIER)
    if kind == "claim42":
        key, lib, machine, word = args
        return formula_incorrectness(
            table[lib], machine, list(word), table[key], FRONTIER
        )
    if kind == "build_query":
        return build_query(*args)
    raise ValueError(f"unknown op kind {kind!r}")


def keep(op: Op, result, table: dict):
    """The part of an op's output the checks need, taken after the op
    is timed: label census of a built query; mutation candidates of a
    desired tree."""
    if op.kind == "desired_cut":
        table[op.args[0], "candidates"] = _mutation_candidates(table[op.args[0]])
    if op.kind == "build_query":
        labels: dict = {}
        for label, node in oracle.triple(result.query)[1]:
            labels.setdefault(node, set()).add(label)
        return result.params, result.word, [
            ("F" in found, "T" in found) for found in labels.values()
        ]
    return result


def _padding_fault(flip, expected: list, flagged: list) -> bool:
    """Is a Claim 4.2 disagreement the documented fault: after a flip
    of an in-block padding bit of a main node above the frontier, the
    reference flags that main node and the formulas miss it, with no
    other difference?"""
    main, _address, padding, _node = flip
    return (
        padding
        and len(main) < FRONTIER
        and set(expected) - set(flagged) == {main}
        and not set(flagged) - set(expected)
    )


def check(ops: list[Op], results: list) -> tuple[list[str], dict[int, str]]:
    """Claim 4.1 on desired trees, Claim 4.2 against the reference
    predicates on every tree, Init at restarts, and the shape of the
    Theorem 3 query.  Returns one message per wrong answer, and the
    Claim 4.2 ops that hit the documented padding fault with their
    message: those count as failed ops."""
    from repro.atm.reduction import gadget_inventory
    from repro.circuits.library import build_library

    errors: list[str] = []
    faults: dict[int, str] = {}
    claim41: dict = {}
    flips: dict = {}
    for i, (op, result) in enumerate(zip(ops, results)):
        where = f"op {i} {op.kind}:{op.name}"
        if result is None:
            continue
        if op.kind == "mutate" and op.name == "flip":
            flips[op.args[0]] = op.args[3]
        elif op.kind == "claim41":
            claim41[op.args[0]] = result
            if op.args[0][1] == "desired" and result:
                errors.append(f"{where}: desired tree has incorrect nodes "
                              f"{result[:3]} above the frontier")
        elif op.kind == "claim42":
            expected = claim41.get(op.args[0])
            if expected is not None and result != expected:
                message = (f"{where}: formulas flag {result[:3]}, "
                           f"reference flags {expected[:3]}")
                flip = flips.get(op.args[0])
                if flip is not None and _padding_fault(flip, expected, result):
                    faults[i] = message
                else:
                    errors.append(message)
        elif op.kind == "init_check":
            should_fire = op.args[4] != DEEP_WORD
            if result is not should_fire:
                errors.append(f"{where}: Init fired={result} for word "
                              f"{op.args[4]!r} at restart {op.args[3]}")
        elif op.kind == "build_query":
            params, word, census = result
            library = build_library(params, op.args[0], list(word))
            gadgets = len(gadget_inventory(library))
            twins = sum(1 for f, t in census if f and t)
            solitary_f = sum(1 for f, t in census if f and not t)
            if solitary_f != 1:
                errors.append(f"{where}: {solitary_f} solitary F nodes, a "
                              "1-CQ has one")
            if twins != gadgets:
                errors.append(f"{where}: {twins} gadget twins, the library "
                              f"has {gadgets} gadgets")
    return errors, faults
