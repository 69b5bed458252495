"""The property-checking formulas of Sec. 3.4, fully instantiated.

Every formula is a *failure detector*: evaluated on inputs gathered
around a node of a 01-tree (per its :class:`~repro.circuits.gather.InputSpec`),
it is true iff the gathered input witnesses a violation of the property
the formula guards -- goodness, proper branching, proper computation,
proper initialisation -- or, for ``Reject``, iff the node represents a
``q_reject`` configuration.

Layout conventions (shared with :mod:`repro.atm.encoding`):

* a path from a main node to bit ``address`` of its configuration is
  ``(111 a_1) .. (111 a_d) (111 v)`` with ``a_1 .. a_d`` the address in
  binary MSB-first and ``v`` the stored bit (length ``4(d+1)``);
* the same path through a *child* main node is prefixed by
  ``(0, 0, 1, child)`` (length ``4(d+1) + 4``);
* uppath inputs are node-to-root, i.e. the reverse of the path suffix.

Reproduction note: the head position is stored in binary inside the
state block (see :mod:`repro.atm.params`), so the two-step transition
check of ``Step`` is expressed with small increment/decrement equality
formulas over head and cell-index bits -- everything stays polynomial
in the machine description, which is what the 2ExpTime-hardness proof
needs from the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..bitops import int_to_bits

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.atm
    from ..atm.machine import ATM
    from ..atm.params import EncodingParams
from .formula import (
    And,
    Formula,
    Not,
    Var,
    bits_equal,
    at_least,
    conj,
    disj,
    equals_bits,
    lit,
    normalize,
)
from .gather import DOWN, UP, CheckFormula, InputGroup, InputSpec, SharedParam

GAMMA = (1, 1, 1)
CHAIN = (0, 0, 1)


# ---------------------------------------------------------------------------
# Input-group plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GroupRef:
    """Offset bookkeeping for one input group inside the input vector."""

    offset: int
    length: int
    prefix: int  # 0 for own-config paths, 4 for child-config paths
    d: int

    def pos(self, local: int) -> int:
        if not 0 <= local < self.length:
            raise IndexError(local)
        return self.offset + local

    def addr_position(self, block: int) -> int:
        """Input position of address bit ``block`` (0-based, MSB first)."""
        return self.offset + self.prefix + 4 * block + 3

    @property
    def value_position(self) -> int:
        return self.offset + self.prefix + 4 * self.d + 3

    def addr_positions(self) -> list[int]:
        return [self.addr_position(b) for b in range(self.d)]


class _SpecBuilder:
    """Accumulates input groups and shared parameters in order."""

    def __init__(self, d: int) -> None:
        self._d = d
        self._groups: list[InputGroup] = []
        self._shared: list[SharedParam] = []
        self._offset = 0

    def add(self, kind: str, length: int, mask=None, prefix: int = 0) -> _GroupRef:
        self._groups.append(InputGroup(kind, length, mask))
        ref = _GroupRef(self._offset, length, prefix, self._d)
        self._offset += length
        return ref

    def share(self, name: str, width: int) -> None:
        self._shared.append(SharedParam(name, width))

    def spec(self) -> InputSpec:
        return InputSpec(tuple(self._groups), tuple(self._shared))


def _own_path_mask(
    params: EncodingParams, addr_bits: Sequence[object]
) -> tuple[object, ...]:
    """Mask for a main-node-to-bit path with the given d address entries."""
    mask: list[object] = []
    for block in range(params.d):
        mask.extend(GAMMA)
        mask.append(addr_bits[block])
    mask.extend(GAMMA)
    mask.append(None)  # the stored bit stays free
    return tuple(mask)


def _child_path_mask(
    params: EncodingParams, child: int, addr_bits: Sequence[object]
) -> tuple[object, ...]:
    return (0, 0, 1, child) + _own_path_mask(params, addr_bits)


def _const_addr(params: EncodingParams, address: int) -> list[object]:
    return list(int_to_bits(address, params.d))


def _cell_addr(
    params: EncodingParams, offset: int, param: str
) -> list[object]:
    """Address bits of cell-block position ``offset`` with the cell index
    taken from shared parameter ``param``."""
    bits: list[object] = list(params.cell_address_bits(offset, None))
    for b, position in enumerate(params.cell_index_bit_positions()):
        bits[position] = (param, b)
    return bits


def _mask_literals(ref: _GroupRef, mask: Sequence[object]) -> list[Formula]:
    """The fixed mask bits as formula literals (structural conjuncts)."""
    return [
        lit(ref.pos(i), positive=bool(entry))
        for i, entry in enumerate(mask)
        if isinstance(entry, int)
    ]


def _own_group(
    builder: _SpecBuilder,
    params: EncodingParams,
    addr_bits: Sequence[object],
    literals: list[Formula],
) -> _GroupRef:
    mask = _own_path_mask(params, addr_bits)
    ref = builder.add(DOWN, 4 * (params.d + 1), mask)
    literals.extend(_mask_literals(ref, mask))
    return ref


def _child_group(
    builder: _SpecBuilder,
    params: EncodingParams,
    child: int,
    addr_bits: Sequence[object],
    literals: list[Formula],
) -> _GroupRef:
    mask = _child_path_mask(params, child, addr_bits)
    ref = builder.add(DOWN, 4 * (params.d + 1) + 4, mask, prefix=4)
    literals.extend(_mask_literals(ref, mask))
    return ref


def _cell_index_positions(params: EncodingParams, ref: _GroupRef) -> list[int]:
    return [
        ref.addr_position(block)
        for block in params.cell_index_bit_positions()
    ]


def _xor(a: Formula, b: Formula) -> Formula:
    return disj([And(a, Not(b)), And(Not(a), b)])


def _values_equal_const(refs: Sequence[_GroupRef], bits: Sequence[int]) -> Formula:
    """The stored bits of ``refs`` equal the constant bit string."""
    return conj(
        [
            lit(ref.value_position, positive=bool(bit))
            for ref, bit in zip(refs, bits)
        ]
    )


# ---------------------------------------------------------------------------
# Increment / decrement equalities over bit vectors (head arithmetic)
# ---------------------------------------------------------------------------


def _equals_positions(xs: Sequence[int], ys: Sequence[int]) -> Formula:
    return bits_equal(list(xs), list(ys))


def _successor_equals(xs: Sequence[int], ys: Sequence[int]) -> Formula:
    """``y == x + 1`` for MSB-first bit positions, no overflow allowed.

    ``x`` ends in exactly ``k`` ones for some ``k``: then ``y`` flips bit
    ``k`` to one, clears the low ``k`` bits, and matches above.
    """
    width = len(xs)
    cases = []
    for k in range(width):
        parts: list[Formula] = []
        parts.append(Not(Var(xs[width - 1 - k])))
        parts.append(Var(ys[width - 1 - k]))
        for j in range(k):
            parts.append(Var(xs[width - 1 - j]))
            parts.append(Not(Var(ys[width - 1 - j])))
        high_x = [xs[i] for i in range(width - 1 - k)]
        high_y = [ys[i] for i in range(width - 1 - k)]
        if high_x:
            parts.append(_equals_positions(high_x, high_y))
        cases.append(conj(parts))
    return disj(cases)


def _shift_equals(xs: Sequence[int], ys: Sequence[int], shift: int) -> Formula:
    """``y == x + shift`` for shift in -2..2 (callers guard overflow)."""
    if shift == 0:
        return _equals_positions(xs, ys)
    if shift == 1:
        return _successor_equals(xs, ys)
    if shift == -1:
        return _successor_equals(ys, xs)
    if abs(shift) == 2:
        if len(xs) < 2:
            # Width-1 vectors cannot move by 2 without overflow; return
            # a contradiction over the input (not a bare constant, so it
            # stays normalisable in isolation).
            probe = Var(xs[0])
            return And(probe, Not(probe))
        low_equal = _equals_positions(xs[-1:], ys[-1:])
        high = _shift_equals(xs[:-1], ys[:-1], shift // 2)
        return And(low_equal, high)
    raise ValueError(f"unsupported shift {shift}")


# ---------------------------------------------------------------------------
# Goodness and branching patterns (Secs. 3.4.1, 3.4.2)
# ---------------------------------------------------------------------------


def good_formula(params: EncodingParams) -> CheckFormula:
    """Fires iff the last ``4d + 11`` edges contain no ``001*`` pattern."""
    k = 4 * params.d + 11
    builder = _SpecBuilder(params.d)
    builder.add(UP, k)
    clauses = []
    for t in range(k - 3):
        # Suffix position t (downward) is uppath variable k - 1 - t.
        here = And(
            And(Not(Var(k - 1 - t)), Not(Var(k - 2 - t))),
            Var(k - 3 - t),
        )
        clauses.append(Not(here))
    return CheckFormula("Good", normalize(conj(clauses)), builder.spec())


def _suffix_patterns(
    params: EncodingParams, k: int, requirement: str
) -> list[list[int | None]]:
    """Downward suffix patterns ``001* (111*)^l w`` of length ``k`` whose
    node must satisfy the given branching requirement."""
    if k < 4:
        return []
    w_len = (k - 4) % 4
    blocks = (k - 4) // 4
    d = params.d
    if blocks > d + 1:
        return []
    tails: list[tuple[int, ...]] = []
    if requirement == "must_branch":
        if w_len == 0 and blocks == 0:
            tails.append(())
        if w_len == 3:
            if blocks <= d + 1:
                tails.append((0, 0, 1))
            if blocks < d:
                tails.append((1, 1, 1))
    elif requirement == "no_zero_child":
        if w_len == 0 and 0 < blocks <= d:
            tails.append(())
        if w_len == 1:
            tails.append((1,))
        if w_len == 2:
            tails.extend([(1, 1), (0, 0)])
    elif requirement == "no_one_child":
        if w_len == 0 and blocks == d + 1:
            tails.append(())
        if w_len == 1:
            tails.append((0,))
    elif requirement == "exactly_one_child":
        if w_len == 3 and blocks == d:
            tails.append((1, 1, 1))
    else:
        raise ValueError(f"unknown requirement {requirement!r}")
    patterns = []
    for tail in tails:
        pattern: list[int | None] = [0, 0, 1, None]
        pattern.extend([1, 1, 1, None] * blocks)
        pattern.extend(tail)
        patterns.append(pattern)
    return patterns


def _suffix_match(k: int, pattern: Sequence[int | None]) -> Formula:
    """The uppath variables 0..k-1 spell the downward ``pattern``."""
    return conj(
        [
            lit(k - 1 - t, positive=bool(bit))
            for t, bit in enumerate(pattern)
            if bit is not None
        ]
    )


def must_branch_formula(params: EncodingParams, k: int) -> CheckFormula | None:
    """(pb1) violations: the node sits where branching is mandatory.

    The formula only reads the uppath; the reduction realises it in
    frames of type AT and TA, which can only trigger at segments missing
    one bud -- exactly the non-branching skeleton nodes.
    """
    patterns = _suffix_patterns(params, k, "must_branch")
    if not patterns:
        return None
    builder = _SpecBuilder(params.d)
    builder.add(UP, k)
    formula = disj([_suffix_match(k, p) for p in patterns])
    return CheckFormula(f"MustBranch[{k}]", normalize(formula), builder.spec())


def no_branch_zero_formula(
    params: EncodingParams, k: int
) -> CheckFormula | None:
    """(pb2) violations: a 0-child where only a 1-child may follow."""
    patterns = _suffix_patterns(params, k, "no_zero_child")
    if not patterns:
        return None
    builder = _SpecBuilder(params.d)
    builder.add(UP, k)
    builder.add(DOWN, 1)
    formula = And(
        disj([_suffix_match(k, p) for p in patterns]), Not(Var(k))
    )
    return CheckFormula(f"NoBranch0[{k}]", normalize(formula), builder.spec())


def no_branch_one_formula(
    params: EncodingParams, k: int
) -> CheckFormula | None:
    """(pb3) violations: a 1-child where only a 0-child may follow."""
    patterns = _suffix_patterns(params, k, "no_one_child")
    if not patterns:
        return None
    builder = _SpecBuilder(params.d)
    builder.add(UP, k)
    builder.add(DOWN, 1)
    formula = And(disj([_suffix_match(k, p) for p in patterns]), Var(k))
    return CheckFormula(f"NoBranch1[{k}]", normalize(formula), builder.spec())


def no_branch_pair_formula(params: EncodingParams) -> CheckFormula:
    """(pb4) violations: two children at the content-bit level."""
    k = 4 + 4 * params.d + 3
    patterns = _suffix_patterns(params, k, "exactly_one_child")
    builder = _SpecBuilder(params.d)
    builder.add(UP, k)
    builder.add(DOWN, 1)
    builder.add(DOWN, 1)
    formula = And(
        disj([_suffix_match(k, p) for p in patterns]),
        _xor(Var(k), Var(k + 1)),
    )
    return CheckFormula(f"NoBranchPair[{k}]", normalize(formula), builder.spec())


# ---------------------------------------------------------------------------
# Structural building blocks (Sec. 3.4.3): Head, State, Cell, SameCell
# ---------------------------------------------------------------------------


def head_formula(params: EncodingParams) -> CheckFormula:
    """A single path from a main node to the first bit of some cell."""
    builder = _SpecBuilder(params.d)
    builder.share("cell", params.p)
    literals: list[Formula] = []
    _own_group(builder, params, _cell_addr(params, 0, "cell"), literals)
    return CheckFormula("Head", normalize(conj(literals)), builder.spec())


def state_formula(params: EncodingParams) -> CheckFormula:
    """Paths to every state-code and head bit of the node's configuration."""
    builder = _SpecBuilder(params.d)
    literals: list[Formula] = []
    for address in range(params.n_q + params.p):
        _own_group(builder, params, _const_addr(params, address), literals)
    return CheckFormula("State", normalize(conj(literals)), builder.spec())


def cell_formula(params: EncodingParams) -> CheckFormula:
    """Paths to all bits of one (common) cell of the node's configuration."""
    builder = _SpecBuilder(params.d)
    builder.share("cell", params.p)
    literals: list[Formula] = []
    refs = [
        _own_group(builder, params, _cell_addr(params, off, "cell"), literals)
        for off in range(params.n_gamma)
    ]
    for other in refs[1:]:
        literals.append(
            _equals_positions(
                _cell_index_positions(params, refs[0]),
                _cell_index_positions(params, other),
            )
        )
    return CheckFormula("Cell", normalize(conj(literals)), builder.spec())


def same_cell_formula(params: EncodingParams) -> CheckFormula:
    """First-bit paths of the same cell in a node and its two children."""
    builder = _SpecBuilder(params.d)
    builder.share("cell", params.p)
    literals: list[Formula] = []
    own = _own_group(builder, params, _cell_addr(params, 0, "cell"), literals)
    kid0 = _child_group(
        builder, params, 0, _cell_addr(params, 0, "cell"), literals
    )
    kid1 = _child_group(
        builder, params, 1, _cell_addr(params, 0, "cell"), literals
    )
    for other in (kid0, kid1):
        literals.append(
            _equals_positions(
                _cell_index_positions(params, own),
                _cell_index_positions(params, other),
            )
        )
    return CheckFormula("SameCell", normalize(conj(literals)), builder.spec())


# ---------------------------------------------------------------------------
# Reject (Sec. 3.4.5)
# ---------------------------------------------------------------------------


def reject_formula(params: EncodingParams, machine: ATM) -> CheckFormula:
    """Fires iff the node's state bits encode ``q_reject``."""
    builder = _SpecBuilder(params.d)
    literals: list[Formula] = []
    refs = [
        _own_group(builder, params, _const_addr(params, address), literals)
        for address in range(params.n_q)
    ]
    code = int_to_bits(params.state_code(machine.q_reject), params.n_q)
    formula = And(conj(literals), _values_equal_const(refs, code))
    return CheckFormula("Reject", normalize(formula), builder.spec())


def accept_formula(params: EncodingParams, machine: ATM) -> CheckFormula:
    """Companion detector for ``q_accept`` (diagnostics and tests)."""
    builder = _SpecBuilder(params.d)
    literals: list[Formula] = []
    refs = [
        _own_group(builder, params, _const_addr(params, address), literals)
        for address in range(params.n_q)
    ]
    code = int_to_bits(params.state_code(machine.q_accept), params.n_q)
    formula = And(conj(literals), _values_equal_const(refs, code))
    return CheckFormula("Accept", normalize(formula), builder.spec())


# ---------------------------------------------------------------------------
# Init (Sec. 3.4.4)
# ---------------------------------------------------------------------------


def init_formula(
    params: EncodingParams, machine: ATM, word: Sequence[str]
) -> CheckFormula:
    """Fires iff a restart main node does not carry ``c_init(w)``.

    Restart nodes are recognised by the uppath pattern ``111* 001*``;
    the violation is a wrong state/head, a wrong input cell, a non-blank
    cell beyond the input, or a parent bit differing from the incoming
    branch bit.
    """
    builder = _SpecBuilder(params.d)
    builder.share("cell", params.p)
    literals: list[Formula] = []

    up = builder.add(
        UP, 8, mask=(None, 1, 0, 0, None, 1, 1, 1)
    )
    literals.extend(
        lit(up.pos(i), positive=bool(bit))
        for i, bit in ((1, 1), (2, 0), (3, 0), (5, 1), (6, 1), (7, 1))
    )
    incoming = Var(up.pos(0))

    state_refs = [
        _own_group(builder, params, _const_addr(params, address), literals)
        for address in range(params.n_q + params.p)
    ]
    expected_state = int_to_bits(
        params.state_code(machine.q_init), params.n_q
    ) + int_to_bits(0, params.p)

    word_refs: list[tuple[_GroupRef, int]] = []
    for j, symbol in enumerate(word):
        block = params.cell_block(symbol)
        for off in range(params.n_gamma):
            ref = _own_group(
                builder,
                params,
                _const_addr(params, params.cell_offset(j) + off),
                literals,
            )
            word_refs.append((ref, block[off]))

    tail_refs = [
        _own_group(builder, params, _cell_addr(params, off, "cell"), literals)
        for off in range(params.n_gamma)
    ]
    for other in tail_refs[1:]:
        literals.append(
            _equals_positions(
                _cell_index_positions(params, tail_refs[0]),
                _cell_index_positions(params, other),
            )
        )

    parent_ref = _own_group(
        builder,
        params,
        _const_addr(params, params.parent_bit_position),
        literals,
    )

    blank_block = params.cell_block(machine.blank)
    violations = [
        Not(_values_equal_const(state_refs, expected_state)),
        Not(
            conj(
                [
                    lit(ref.value_position, positive=bool(bit))
                    for ref, bit in word_refs
                ]
            )
        ),
        And(
            at_least(_cell_index_positions(params, tail_refs[0]), len(word)),
            Not(_values_equal_const(tail_refs, blank_block)),
        ),
        _xor(Var(parent_ref.value_position), incoming),
    ]
    formula = And(conj(literals), disj(violations))
    return CheckFormula("Init", normalize(formula), builder.spec())


# ---------------------------------------------------------------------------
# Step (Sec. 3.4.3)
# ---------------------------------------------------------------------------


def _implies(premise: Formula, conclusion: Formula) -> Formula:
    return Not(And(premise, Not(conclusion)))


@dataclass(frozen=True)
class _StepVars:
    """Positions of all semantic payloads inside the Step input vector."""

    q: list[int]
    h: list[int]
    a_sym: list[int]
    v_index: list[int]
    q0: list[int]
    h0: list[int]
    q1: list[int]
    h1: list[int]
    i_index: list[int]
    sigma: list[int]
    sigma0: list[int]
    sigma1: list[int]
    pad: list[tuple[int, int]]  # (position, expected bit) of child block pads
    b0: int
    b1: int


def _sym_positions(params: EncodingParams, refs: Sequence[_GroupRef]) -> list[int]:
    """Value positions of the symbol-code bits within a cell-block group set."""
    start = params.n_gamma - params.sym_bits
    return [refs[off].value_position for off in range(start, params.n_gamma)]


def _pad_expectations(
    params: EncodingParams, refs: Sequence[_GroupRef]
) -> list[tuple[int, int]]:
    return [
        (refs[off].value_position, 0)
        for off in range(params.n_gamma - params.sym_bits)
    ]


def _step_structure(
    params: EncodingParams, builder: _SpecBuilder
) -> tuple[list[Formula], _StepVars]:
    literals: list[Formula] = []
    builder.share("vcell", params.p)
    builder.share("cell", params.p)

    s_refs = [
        _own_group(builder, params, _const_addr(params, address), literals)
        for address in range(params.n_q + params.p)
    ]
    v_refs = [
        _own_group(builder, params, _cell_addr(params, off, "vcell"), literals)
        for off in range(params.n_gamma)
    ]
    s0_refs = [
        _child_group(builder, params, 0, _const_addr(params, a), literals)
        for a in range(params.n_q + params.p)
    ]
    s1_refs = [
        _child_group(builder, params, 1, _const_addr(params, a), literals)
        for a in range(params.n_q + params.p)
    ]
    t_refs = [
        _own_group(builder, params, _cell_addr(params, off, "cell"), literals)
        for off in range(params.n_gamma)
    ]
    t0_refs = [
        _child_group(builder, params, 0, _cell_addr(params, off, "cell"), literals)
        for off in range(params.n_gamma)
    ]
    t1_refs = [
        _child_group(builder, params, 1, _cell_addr(params, off, "cell"), literals)
        for off in range(params.n_gamma)
    ]
    z0_ref = _child_group(
        builder, params, 0,
        _const_addr(params, params.parent_bit_position), literals,
    )
    z1_ref = _child_group(
        builder, params, 1,
        _const_addr(params, params.parent_bit_position), literals,
    )

    # Cross-group address agreement: the v group points at the head cell,
    # the t/t0/t1 groups at one common cell, and blocks cohere internally.
    h_positions = [
        s_refs[params.n_q + bit].value_position for bit in range(params.p)
    ]
    v_index = _cell_index_positions(params, v_refs[0])
    i_index = _cell_index_positions(params, t_refs[0])
    literals.append(_equals_positions(v_index, h_positions))
    for group in (v_refs, t_refs, t0_refs, t1_refs):
        anchor = _cell_index_positions(params, group[0])
        for other in group[1:]:
            literals.append(
                _equals_positions(
                    anchor, _cell_index_positions(params, other)
                )
            )
    for other in (t0_refs, t1_refs):
        literals.append(
            _equals_positions(i_index, _cell_index_positions(params, other[0]))
        )

    variables = _StepVars(
        q=[s_refs[b].value_position for b in range(params.n_q)],
        h=h_positions,
        a_sym=_sym_positions(params, v_refs),
        v_index=v_index,
        q0=[s0_refs[b].value_position for b in range(params.n_q)],
        h0=[
            s0_refs[params.n_q + b].value_position for b in range(params.p)
        ],
        q1=[s1_refs[b].value_position for b in range(params.n_q)],
        h1=[
            s1_refs[params.n_q + b].value_position for b in range(params.p)
        ],
        i_index=i_index,
        sigma=_sym_positions(params, t_refs),
        sigma0=_sym_positions(params, t0_refs),
        sigma1=_sym_positions(params, t1_refs),
        pad=_pad_expectations(params, t0_refs)
        + _pad_expectations(params, t1_refs),
        b0=z0_ref.value_position,
        b1=z1_ref.value_position,
    )
    return literals, variables


def _halting_consistency(
    params: EncodingParams, machine: ATM, v: _StepVars
) -> list[Formula]:
    """Halting configurations repeat with parent bits 0 and 1."""
    cases = []
    for state in (machine.q_accept, machine.q_reject):
        code = params.state_code(state)
        cases.append(
            conj(
                [
                    equals_bits(v.q, code),
                    equals_bits(v.q0, code),
                    equals_bits(v.q1, code),
                    _equals_positions(v.h0, v.h),
                    _equals_positions(v.h1, v.h),
                    _equals_positions(v.sigma0, v.sigma),
                    _equals_positions(v.sigma1, v.sigma),
                    Not(Var(v.b0)),
                    Var(v.b1),
                ]
            )
        )
    return cases


def _second_step_checks(
    params: EncodingParams,
    machine: ATM,
    v: _StepVars,
    qz: str,
    scanned: str,
    hz_shift: int,
) -> Formula:
    """State/head checks for both grandchildren given the AND-state and
    the symbol it scans; ``hz_shift`` is ``head(c^z) - head(c)``.

    The callers guarantee, via preconditions on ``h``, that the composed
    shifts never overflow.
    """
    branches = machine.branches(qz, scanned)
    assert branches is not None
    checks = []
    for child_index, (q_target, h_target) in enumerate(
        ((v.q0, v.h0), (v.q1, v.h1))
    ):
        action = branches[child_index]
        checks.append(
            equals_bits(q_target, params.state_code(action.new_state))
        )
        checks.append(
            _shift_equals(v.h, h_target, hz_shift + action.move)
        )
    return conj(checks)


def _cell_checks_for_writes(
    params: EncodingParams,
    v: _StepVars,
    write_at_h: tuple[str, str] | None,
    machine: ATM,
) -> Formula:
    """Cell checks when both net writes land on ``h``: if ``i == h`` the
    children carry the given symbols, otherwise the cell is unchanged."""
    i_is_h = _equals_positions(v.i_index, v.h)
    if write_at_h is None:
        written = _equals_positions(v.sigma0, v.sigma) & _equals_positions(
            v.sigma1, v.sigma
        )
    else:
        written = And(
            equals_bits(v.sigma0, params.symbol_code(write_at_h[0])),
            equals_bits(v.sigma1, params.symbol_code(write_at_h[1])),
        )
    unchanged = And(
        _equals_positions(v.sigma0, v.sigma),
        _equals_positions(v.sigma1, v.sigma),
    )
    return And(_implies(i_is_h, written), _implies(Not(i_is_h), unchanged))


def _moving_case(
    params: EncodingParams,
    machine: ATM,
    v: _StepVars,
    qz: str,
    first_write: str,
    move: int,
) -> Formula:
    """Consistency when the first action moves the head off its cell.

    Caller supplies the precondition that the move does not clamp, so
    ``h_z = h + move`` exactly.  Three cell cases: the old head cell got
    the first write; the new head cell determines the scanned symbol and
    receives the second write; every other cell is unchanged.
    """
    i_is_h = _equals_positions(v.i_index, v.h)
    i_is_hz = _shift_equals(v.h, v.i_index, move)

    old_head = And(
        equals_bits(v.sigma0, params.symbol_code(first_write)),
        equals_bits(v.sigma1, params.symbol_code(first_write)),
    )

    new_head_cases = []
    for scanned in machine.alphabet:
        branches = machine.branches(qz, scanned)
        assert branches is not None
        new_head_cases.append(
            conj(
                [
                    equals_bits(v.sigma, params.symbol_code(scanned)),
                    equals_bits(
                        v.sigma0, params.symbol_code(branches[0].write)
                    ),
                    equals_bits(
                        v.sigma1, params.symbol_code(branches[1].write)
                    ),
                    _second_step_checks_at_hz(
                        params, machine, v, qz, scanned, move
                    ),
                ]
            )
        )
    new_head = disj(new_head_cases)

    unchanged = And(
        _equals_positions(v.sigma0, v.sigma),
        _equals_positions(v.sigma1, v.sigma),
    )
    return conj(
        [
            _implies(i_is_h, old_head),
            _implies(i_is_hz, new_head),
            _implies(And(Not(i_is_h), Not(i_is_hz)), unchanged),
        ]
    )


def _second_step_checks_at_hz(
    params: EncodingParams,
    machine: ATM,
    v: _StepVars,
    qz: str,
    scanned: str,
    move: int,
) -> Formula:
    """Grandchild state/head checks, with the second move clamped when
    ``h_z = h + move`` sits at a tape boundary.

    The boundary condition is itself a formula over ``h``: ``h_z == max``
    iff ``h == max - move`` etc., so the case split stays polynomial.
    """
    branches = machine.branches(qz, scanned)
    assert branches is not None
    top = params.cells - 1
    checks = []
    for child_index, (q_target, h_target) in enumerate(
        ((v.q0, v.h0), (v.q1, v.h1))
    ):
        action = branches[child_index]
        checks.append(
            equals_bits(q_target, params.state_code(action.new_state))
        )
        if action.move == 0:
            checks.append(_shift_equals(v.h, h_target, move))
            continue
        boundary_value = top - move if action.move > 0 else -move
        clamps = 0 <= boundary_value <= top
        at_boundary = (
            equals_bits(v.h, boundary_value) if clamps else None
        )
        moved = _shift_equals(v.h, h_target, move + action.move)
        stayed = _shift_equals(v.h, h_target, move)
        if at_boundary is None:
            checks.append(moved)
        else:
            checks.append(
                And(
                    _implies(at_boundary, stayed),
                    _implies(Not(at_boundary), moved),
                )
            )
    return conj(checks)


def _nonhalting_consistency(
    params: EncodingParams, machine: ATM, v: _StepVars
) -> list[Formula]:
    """One disjunct per (state, scanned symbol, choice z): the children
    realise both second-step branches after the chosen first step."""
    top = params.cells - 1
    cases = []
    for state in machine.states:
        if machine.is_halting(state):
            continue
        for scanned in machine.alphabet:
            branches = machine.branches(state, scanned)
            assert branches is not None
            base = And(
                equals_bits(v.q, params.state_code(state)),
                equals_bits(v.a_sym, params.symbol_code(scanned)),
            )
            for z, action in enumerate(branches):
                z_bits = And(
                    lit(v.b0, positive=bool(z)), lit(v.b1, positive=bool(z))
                )
                qz, wsym, move = action.new_state, action.write, action.move
                if machine.is_halting(qz):
                    # The two-step window is undefined: a main node whose
                    # grandchild step would pass through a halting state
                    # can never be consistent (desired trees only halt at
                    # OR-level, where the halting disjuncts apply).
                    continue
                if move == 0:
                    second = machine.branches(qz, wsym)
                    assert second is not None
                    body = And(
                        _second_step_checks_at_hz(
                            params, machine, v, qz, wsym, 0
                        ),
                        _cell_checks_for_writes(
                            params,
                            v,
                            (second[0].write, second[1].write),
                            machine,
                        ),
                    )
                else:
                    boundary = top if move > 0 else 0
                    stay_like = And(
                        equals_bits(v.h, boundary),
                        And(
                            _second_step_checks_at_hz(
                                params, machine, v, qz, wsym, 0
                            ),
                            _cell_checks_for_writes(
                                params,
                                v,
                                tuple(
                                    a.write
                                    for a in machine.branches(qz, wsym)
                                ),
                                machine,
                            ),
                        ),
                    )
                    moving = And(
                        Not(equals_bits(v.h, boundary)),
                        _moving_case(params, machine, v, qz, wsym, move),
                    )
                    body = disj([stay_like, moving])
                cases.append(conj([base, z_bits, body]))
    return cases


def step_formula(params: EncodingParams, machine: ATM) -> CheckFormula:
    """Fires iff a gathered input witnesses a transition inconsistency.

    One formula subsumes the paper's ``Step_0 | Step_1`` split and the
    halting-repetition check: it is the negation of "some choice ``z``
    (or the halting repetition) explains the two children".
    """
    builder = _SpecBuilder(params.d)
    literals, v = _step_structure(params, builder)
    pads_ok = conj(
        [lit(pos, positive=bool(bit)) for pos, bit in v.pad]
    )
    consistent = disj(
        _halting_consistency(params, machine, v)
        + _nonhalting_consistency(params, machine, v)
    )
    formula = And(conj(literals), Not(And(pads_ok, consistent)))
    return CheckFormula("Step", normalize(formula), builder.spec())


# ---------------------------------------------------------------------------
# The full library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaLibrary:
    """Every property-checking formula the Theorem 3 query implements."""

    params: EncodingParams
    good: CheckFormula
    must_branch: tuple[CheckFormula, ...]
    no_branch_zero: tuple[CheckFormula, ...]
    no_branch_one: tuple[CheckFormula, ...]
    no_branch_pair: CheckFormula
    step: CheckFormula
    init: CheckFormula
    reject: CheckFormula

    def all_checks(self) -> list[CheckFormula]:
        return (
            [self.good]
            + list(self.must_branch)
            + list(self.no_branch_zero)
            + list(self.no_branch_one)
            + [self.no_branch_pair, self.step, self.init, self.reject]
        )

    def branching_checks(self) -> list[CheckFormula]:
        return (
            list(self.no_branch_zero)
            + list(self.no_branch_one)
            + [self.no_branch_pair]
        )

    def total_size(self) -> int:
        from .formula import formula_size

        return sum(formula_size(c.formula) for c in self.all_checks())

    def describe(self) -> str:
        lines = [f"Formula library for {self.params.describe()}"]
        lines.extend(f"  {check.describe()}" for check in self.all_checks())
        return "\n".join(lines)


def build_library(
    params: EncodingParams, machine: ATM, word: Sequence[str]
) -> FormulaLibrary:
    """All formulas of Sec. 3.4 for one machine/input pair."""
    k_max = 4 * params.d + 11
    must = []
    zero = []
    one = []
    for k in range(4, k_max + 1):
        check = must_branch_formula(params, k)
        if check is not None:
            must.append(check)
        check = no_branch_zero_formula(params, k)
        if check is not None:
            zero.append(check)
        check = no_branch_one_formula(params, k)
        if check is not None:
            one.append(check)
    return FormulaLibrary(
        params=params,
        good=good_formula(params),
        must_branch=tuple(must),
        no_branch_zero=tuple(zero),
        no_branch_one=tuple(one),
        no_branch_pair=no_branch_pair_formula(params),
        step=step_formula(params, machine),
        init=init_formula(params, machine, word),
        reject=reject_formula(params, machine),
    )
