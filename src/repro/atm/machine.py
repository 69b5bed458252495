"""Alternating Turing machines with binary branching.

The Theorem 3 reduction starts from an ATM ``M`` deciding a language in
``AExpSpace = 2ExpTime``.  The paper assumes a normal form which we adopt
verbatim:

* ``q_init``, ``q_accept`` and ``q_reject`` are OR-states;
* every non-halting configuration has exactly two successors;
* AND- and OR-configurations strictly alternate along every branch;
* halting configurations repeat forever (modelled by ``beta^+`` trees).

A *computation tree* keeps exactly one child of every OR-configuration
and both children of every AND-configuration; it is rejecting iff it
contains a ``q_reject`` leaf.  ``M`` rejects ``w`` iff every computation
tree is rejecting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

OR = "or"
AND = "and"

#: Tape head movements: left, stay, right.
LEFT, STAY, RIGHT = -1, 0, 1


@dataclass(frozen=True)
class Action:
    """One branch of the transition function: write, move, switch state."""

    new_state: str
    write: str
    move: int

    def __post_init__(self) -> None:
        if self.move not in (LEFT, STAY, RIGHT):
            raise ValueError(f"move must be -1, 0 or 1, got {self.move}")


@dataclass(frozen=True)
class ATM:
    """An alternating Turing machine in the paper's normal form.

    ``delta`` maps ``(state, symbol)`` to exactly two actions (the 0- and
    1-branch).  States absent from ``delta``'s domain for every symbol are
    halting; only ``q_accept`` and ``q_reject`` may halt.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    delta: Mapping[tuple[str, str], tuple[Action, Action]]
    mode: Mapping[str, str]
    q_init: str
    q_accept: str
    q_reject: str

    def __post_init__(self) -> None:
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the alphabet")
        for q in (self.q_init, self.q_accept, self.q_reject):
            if q not in self.states:
                raise ValueError(f"distinguished state {q!r} not in states")
            if self.mode.get(q) != OR:
                raise ValueError(f"state {q!r} must be an OR-state")
        for state in self.states:
            if self.mode.get(state) not in (OR, AND):
                raise ValueError(f"state {state!r} has no OR/AND mode")
        for (state, symbol), branches in self.delta.items():
            if state in (self.q_accept, self.q_reject):
                raise ValueError("halting states cannot have transitions")
            if state not in self.states or symbol not in self.alphabet:
                raise ValueError(f"bad transition key ({state!r}, {symbol!r})")
            if len(branches) != 2:
                raise ValueError("binary branching requires exactly 2 actions")
            for action in branches:
                if action.new_state not in self.states:
                    raise ValueError(f"unknown target state {action.new_state!r}")
                if action.write not in self.alphabet:
                    raise ValueError(f"unknown write symbol {action.write!r}")
                if self.mode[action.new_state] == self.mode[state]:
                    if action.new_state not in (self.q_accept, self.q_reject):
                        raise ValueError(
                            "AND/OR modes must alternate along transitions "
                            f"({state!r} -> {action.new_state!r})"
                        )

    def is_halting(self, state: str) -> bool:
        return state in (self.q_accept, self.q_reject)

    def branches(self, state: str, symbol: str) -> tuple[Action, Action] | None:
        """The two actions for ``(state, symbol)``, or None if halting."""
        if self.is_halting(state):
            return None
        try:
            return self.delta[(state, symbol)]
        except KeyError:
            raise ValueError(
                f"no transition for non-halting ({state!r}, {symbol!r})"
            ) from None

    def describe(self) -> str:
        lines = [
            f"ATM with {len(self.states)} states over {len(self.alphabet)} "
            f"symbols (init={self.q_init}, accept={self.q_accept}, "
            f"reject={self.q_reject})"
        ]
        for (state, symbol), (a0, a1) in sorted(self.delta.items()):
            lines.append(
                f"  delta({state}, {symbol}) = "
                f"[{a0.new_state}/{a0.write}/{a0.move:+d}, "
                f"{a1.new_state}/{a1.write}/{a1.move:+d}]"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Configuration:
    """A machine configuration: state, head position, full tape content."""

    state: str
    head: int
    tape: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.head < len(self.tape):
            raise ValueError(
                f"head {self.head} out of tape range 0..{len(self.tape) - 1}"
            )

    @property
    def scanned(self) -> str:
        return self.tape[self.head]

    def write_and_move(self, action: Action) -> "Configuration":
        """The configuration after applying one action (head clamped)."""
        tape = list(self.tape)
        tape[self.head] = action.write
        head = min(max(self.head + action.move, 0), len(tape) - 1)
        return Configuration(action.new_state, head, tuple(tape))

    def describe(self) -> str:
        cells = [
            f"[{sym}]" if i == self.head else f" {sym} "
            for i, sym in enumerate(self.tape)
        ]
        return f"{self.state}: {''.join(cells)}"


def initial_configuration(machine: ATM, word: Sequence[str], cells: int) -> Configuration:
    """``c_init(w)``: state ``q_init``, head on cell 0, ``w`` then blanks."""
    if len(word) > cells:
        raise ValueError(f"word of length {len(word)} exceeds {cells} cells")
    for symbol in word:
        if symbol not in machine.alphabet:
            raise ValueError(f"input symbol {symbol!r} not in alphabet")
    tape = tuple(word) + (machine.blank,) * (cells - len(word))
    return Configuration(machine.q_init, 0, tape)


def successors(machine: ATM, config: Configuration) -> tuple[Configuration, ...]:
    """The 0- and 1-successor configurations (empty tuple when halting)."""
    branches = machine.branches(config.state, config.scanned)
    if branches is None:
        return ()
    return tuple(config.write_and_move(action) for action in branches)


@dataclass(frozen=True)
class SpaceNode:
    """A node of the full computation space ``T_{M,w}``."""

    config: Configuration
    children: tuple["SpaceNode", ...]

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)


def computation_space(
    machine: ATM,
    word: Sequence[str],
    cells: int,
    max_depth: int,
) -> SpaceNode:
    """The full computation space ``T_{M,w}`` truncated at ``max_depth``.

    Non-halting nodes at the depth limit are kept as leaves; callers that
    need a complete space should pick ``max_depth`` past the machine's
    halting horizon (toy machines halt within a handful of steps).
    """

    def expand(config: Configuration, budget: int) -> SpaceNode:
        if budget == 0:
            return SpaceNode(config, ())
        kids = successors(machine, config)
        return SpaceNode(config, tuple(expand(c, budget - 1) for c in kids))

    return expand(initial_configuration(machine, word, cells), max_depth)


# ---------------------------------------------------------------------------
# Computation trees: one child per OR node, both children per AND node.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComputationTree:
    """A computation tree of ``M`` on ``w`` (a pruned computation space)."""

    config: Configuration
    # For an OR node: ((choice, subtree),); for an AND node: both subtrees
    # keyed 0 and 1; for a halting leaf: empty.
    children: tuple[tuple[int, "ComputationTree"], ...]

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(sub.depth() for _, sub in self.children)

    def leaves(self) -> Iterator[Configuration]:
        if not self.children:
            yield self.config
            return
        for _, sub in self.children:
            yield from sub.leaves()

    def is_rejecting(self, machine: ATM) -> bool:
        """True iff some leaf is a ``q_reject`` configuration."""
        return any(leaf.state == machine.q_reject for leaf in self.leaves())

    def or_configurations(self) -> Iterator[Configuration]:
        """All OR-configurations of the tree, in preorder.

        Assumes the root is an OR node and modes alternate, so OR nodes
        sit at even depths.
        """
        yield self.config
        for _, and_node in self.children:
            for _, or_node in and_node.children:
                yield from or_node.or_configurations()

    def count(self) -> int:
        return 1 + sum(sub.count() for _, sub in self.children)


def iter_computation_trees(
    machine: ATM,
    word: Sequence[str],
    cells: int,
    max_depth: int,
    limit: int | None = None,
) -> Iterator[ComputationTree]:
    """Enumerate computation trees of ``M`` on ``w`` (toy sizes only).

    Trees whose branches do not halt within ``max_depth`` are skipped,
    so with a large enough ``max_depth`` this is the complete set.
    """

    def expand(config: Configuration, budget: int) -> Iterator[ComputationTree]:
        kids = successors(machine, config)
        if not kids:
            yield ComputationTree(config, ())
            return
        if budget == 0:
            return
        if machine.mode[config.state] == OR:
            for choice, child in enumerate(kids):
                for sub in expand(child, budget - 1):
                    yield ComputationTree(config, ((choice, sub),))
        else:
            subs0 = list(expand(kids[0], budget - 1))
            subs1 = list(expand(kids[1], budget - 1))
            for sub0, sub1 in itertools.product(subs0, subs1):
                yield ComputationTree(config, ((0, sub0), (1, sub1)))

    start = initial_configuration(machine, word, cells)
    trees = expand(start, max_depth)
    if limit is not None:
        trees = itertools.islice(trees, limit)
    yield from trees


def find_accepting_tree(
    machine: ATM,
    word: Sequence[str],
    cells: int,
    max_depth: int,
) -> ComputationTree | None:
    """An accepting computation tree, or None if ``M`` rejects ``w``.

    Works top-down with memoisation instead of enumerating all trees, so
    it scales beyond :func:`iter_computation_trees`.
    """

    @lru_cache(maxsize=None)
    def solve(config: Configuration, budget: int) -> ComputationTree | None:
        kids = successors(machine, config)
        if not kids:
            if config.state == machine.q_accept:
                return ComputationTree(config, ())
            return None
        if budget == 0:
            return None
        if machine.mode[config.state] == OR:
            for choice, child in enumerate(kids):
                sub = solve(child, budget - 1)
                if sub is not None:
                    return ComputationTree(config, ((choice, sub),))
            return None
        sub0 = solve(kids[0], budget - 1)
        if sub0 is None:
            return None
        sub1 = solve(kids[1], budget - 1)
        if sub1 is None:
            return None
        return ComputationTree(config, ((0, sub0), (1, sub1)))

    start = initial_configuration(machine, word, cells)
    result = solve(start, max_depth)
    solve.cache_clear()
    return result


def accepts(machine: ATM, word: Sequence[str], cells: int, max_depth: int) -> bool:
    """True iff ``M`` accepts ``w`` within the given space/depth budget."""
    return find_accepting_tree(machine, word, cells, max_depth) is not None


# ---------------------------------------------------------------------------
# Toy machines used by tests, examples and benchmarks.
# ---------------------------------------------------------------------------


def toy_accept_machine() -> ATM:
    """Accepts every input: one OR step, one AND step, then accept."""
    states = ("q_or", "q_and", "acc", "rej")
    mode = {"q_or": OR, "q_and": AND, "acc": OR, "rej": OR}
    delta = {}
    for symbol in ("0", "1", "_"):
        delta[("q_or", symbol)] = (
            Action("q_and", symbol, STAY),
            Action("q_and", symbol, STAY),
        )
        delta[("q_and", symbol)] = (
            Action("acc", symbol, STAY),
            Action("acc", symbol, STAY),
        )
    return ATM(
        states=states,
        alphabet=("0", "1", "_"),
        blank="_",
        delta=delta,
        mode=mode,
        q_init="q_or",
        q_accept="acc",
        q_reject="rej",
    )


def toy_reject_machine() -> ATM:
    """Rejects every input: both AND branches reach ``q_reject``."""
    states = ("q_or", "q_and", "acc", "rej")
    mode = {"q_or": OR, "q_and": AND, "acc": OR, "rej": OR}
    delta = {}
    for symbol in ("0", "1", "_"):
        delta[("q_or", symbol)] = (
            Action("q_and", symbol, STAY),
            Action("q_and", symbol, STAY),
        )
        delta[("q_and", symbol)] = (
            Action("rej", symbol, STAY),
            Action("rej", symbol, STAY),
        )
    return ATM(
        states=states,
        alphabet=("0", "1", "_"),
        blank="_",
        delta=delta,
        mode=mode,
        q_init="q_or",
        q_accept="acc",
        q_reject="rej",
    )


def toy_scanner_machine() -> ATM:
    """Accepts iff every tape cell holds ``1``; the head really moves.

    The scanner marks each visited ``1`` with ``X`` and steps right;
    thanks to boundary clamping it eventually re-reads its own mark,
    which signals that the whole tape was scanned.  Any ``0`` or blank
    forces rejection.  This is the machine that exercises the head
    arithmetic of the Step formula (increments and clamping) on tapes
    with more than two cells.
    """
    states = ("scan", "move", "done", "bad", "acc", "rej")
    mode = {
        "scan": OR,
        "move": AND,
        "done": AND,
        "bad": AND,
        "acc": OR,
        "rej": OR,
    }
    delta: dict[tuple[str, str], tuple[Action, Action]] = {}
    alphabet = ("0", "1", "_", "X")
    delta[("scan", "1")] = (
        Action("move", "X", RIGHT),
        Action("move", "X", RIGHT),
    )
    delta[("scan", "X")] = (
        Action("done", "X", STAY),
        Action("done", "X", STAY),
    )
    for symbol in ("0", "_"):
        delta[("scan", symbol)] = (
            Action("bad", symbol, STAY),
            Action("bad", symbol, STAY),
        )
    for symbol in alphabet:
        delta[("move", symbol)] = (
            Action("scan", symbol, STAY),
            Action("scan", symbol, STAY),
        )
        delta[("done", symbol)] = (
            Action("acc", symbol, STAY),
            Action("acc", symbol, STAY),
        )
        delta[("bad", symbol)] = (
            Action("rej", symbol, STAY),
            Action("rej", symbol, STAY),
        )
    return ATM(
        states=states,
        alphabet=alphabet,
        blank="_",
        delta=delta,
        mode=mode,
        q_init="scan",
        q_accept="acc",
        q_reject="rej",
    )


def toy_zigzag_machine() -> ATM:
    """Steps right then back left, accepting iff cell 0 holds ``1``.

    The only toy machine with a LEFT move: it exercises the decrement
    (and left-boundary clamping) branches of the Step formula's head
    arithmetic.
    """
    states = ("r_or", "r_and", "l_or", "l_and", "acc", "rej")
    mode = {
        "r_or": OR,
        "r_and": AND,
        "l_or": OR,
        "l_and": AND,
        "acc": OR,
        "rej": OR,
    }
    alphabet = ("0", "1", "_")
    delta: dict[tuple[str, str], tuple[Action, Action]] = {}
    for symbol in alphabet:
        delta[("r_or", symbol)] = (
            Action("r_and", symbol, RIGHT),
            Action("r_and", symbol, RIGHT),
        )
        delta[("r_and", symbol)] = (
            Action("l_or", symbol, STAY),
            Action("l_or", symbol, STAY),
        )
        delta[("l_or", symbol)] = (
            Action("l_and", symbol, LEFT),
            Action("l_and", symbol, LEFT),
        )
    delta[("l_and", "1")] = (
        Action("acc", "1", STAY),
        Action("acc", "1", STAY),
    )
    for symbol in ("0", "_"):
        delta[("l_and", symbol)] = (
            Action("rej", symbol, STAY),
            Action("rej", symbol, STAY),
        )
    return ATM(
        states=states,
        alphabet=alphabet,
        blank="_",
        delta=delta,
        mode=mode,
        q_init="r_or",
        q_accept="acc",
        q_reject="rej",
    )


def toy_alternation_machine() -> ATM:
    """Accepts iff the first tape symbol is ``1``.

    From ``q_or`` reading ``1`` both branches lead (via an AND state whose
    branches both accept) to acceptance; reading ``0`` or blank forces a
    rejecting AND branch, so the machine rejects.  This gives toy inputs
    on which acceptance genuinely depends on ``w``.
    """
    states = ("q_or", "q_yes", "q_no", "acc", "rej")
    mode = {"q_or": OR, "q_yes": AND, "q_no": AND, "acc": OR, "rej": OR}
    delta: dict[tuple[str, str], tuple[Action, Action]] = {}
    delta[("q_or", "1")] = (
        Action("q_yes", "1", STAY),
        Action("q_yes", "1", STAY),
    )
    for symbol in ("0", "_"):
        delta[("q_or", symbol)] = (
            Action("q_no", symbol, STAY),
            Action("q_no", symbol, STAY),
        )
    for symbol in ("0", "1", "_"):
        delta[("q_yes", symbol)] = (
            Action("acc", symbol, STAY),
            Action("acc", symbol, STAY),
        )
        delta[("q_no", symbol)] = (
            Action("acc", symbol, STAY),
            Action("rej", symbol, STAY),
        )
    return ATM(
        states=states,
        alphabet=("0", "1", "_"),
        blank="_",
        delta=delta,
        mode=mode,
        q_init="q_or",
        q_accept="acc",
        q_reject="rej",
    )
