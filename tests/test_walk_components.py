import itertools
import math
import random

import numpy as np
import pytest

from hybridts.formula import UNSET, CnfFormula
from hybridts.generators import random_kcnf
from hybridts.qcircuit.core import Circuit, simulate, trace_basis
from hybridts.qcircuit.walk import (
    _rebase,
    assembled_r_a_wires,
    build_v_a_static,
    build_v_leaf,
    build_v_marked,
    build_v_next,
    build_v_pure,
    build_v_unit,
    encode_vertex,
    read_wires,
    set_wire,
    val_wire,
)
from reference import (
    PartialAssignment,
    Predicate,
    evaluate_predicate,
    pure_literal_rule,
    unit_rule,
)

F = CnfFormula.from_clauses


def all_partials(n):
    for vals in itertools.product((UNSET, 0, 1), repeat=n):
        yield {v + 1: x for v, x in enumerate(vals) if x != UNSET}


def run_on(comp, pairs, n):
    idx = encode_vertex(pairs, n, comp.num_wires)
    out = trace_basis(comp.circuit, idx).output_index
    return idx, out


def assert_restored(comp, idx, out):
    width = comp.num_wires
    for w in comp.scratch_wires + comp.vertex_wires:
        assert ((out >> (width - 1 - w)) & 1) == ((idx >> (width - 1 - w)) & 1)


def test_v_unit_example_and_exhaustive():
    f = F(3, [[2], [1, 3]])
    comp = build_v_unit(f)
    idx, out = run_on(comp, {}, 3)
    assert read_wires(out, comp.num_wires, comp.outputs["j"]) == 2
    assert read_wires(out, comp.num_wires, comp.outputs["s"]) == 1

    rng = random.Random(71)
    for _ in range(6):
        n = rng.randint(3, 4)
        f = random_kcnf(rng, n, rng.randint(1, 6))
        comp = build_v_unit(f)
        for pairs in all_partials(n):
            a = PartialAssignment.of(n, pairs)
            if evaluate_predicate(f, a) == Predicate.CONTRADICTION:
                continue
            idx, out = run_on(comp, pairs, n)
            want = unit_rule(f, a)
            got_found = read_wires(out, comp.num_wires, comp.outputs["found"])
            if want is None:
                assert got_found == 0
            else:
                assert got_found == 1
                assert read_wires(out, comp.num_wires, comp.outputs["j"]) == want[0]
                assert read_wires(out, comp.num_wires, comp.outputs["s"]) == want[1]
            assert_restored(comp, idx, out)


def test_v_pure_example_and_exhaustive():
    f = F(2, [[1, 2], [1, -2]])
    comp = build_v_pure(f)
    idx, out = run_on(comp, {}, 2)
    assert read_wires(out, comp.num_wires, comp.outputs["j"]) == 1
    assert read_wires(out, comp.num_wires, comp.outputs["s"]) == 1

    rng = random.Random(72)
    for _ in range(5):
        n = rng.randint(3, 4)
        f = random_kcnf(rng, n, rng.randint(1, 5))
        comp = build_v_pure(f)
        for pairs in all_partials(n):
            a = PartialAssignment.of(n, pairs)
            if evaluate_predicate(f, a) == Predicate.CONTRADICTION:
                continue
            idx, out = run_on(comp, pairs, n)
            want = pure_literal_rule(f, a)
            got_found = read_wires(out, comp.num_wires, comp.outputs["found"])
            if want is None:
                assert got_found == 0
            else:
                assert (read_wires(out, comp.num_wires, comp.outputs["j"]),
                        read_wires(out, comp.num_wires, comp.outputs["s"])) == want
            assert_restored(comp, idx, out)


def test_v_leaf_v_marked_exhaustive():
    rng = random.Random(73)
    for _ in range(5):
        n = rng.randint(3, 4)
        f = random_kcnf(rng, n, rng.randint(1, 6))
        leaf = build_v_leaf(f)
        marked = build_v_marked(f)
        for pairs in all_partials(n):
            a = PartialAssignment.of(n, pairs)
            pred = evaluate_predicate(f, a)
            idx, out = run_on(leaf, pairs, n)
            assert read_wires(out, leaf.num_wires, leaf.outputs["b"]) == \
                (pred != Predicate.UNDETERMINED)
            assert_restored(leaf, idx, out)
            idx, out = run_on(marked, pairs, n)
            assert read_wires(out, marked.num_wires, marked.outputs["b"]) == \
                (pred == Predicate.SATISFIED)
            assert_restored(marked, idx, out)


def test_components_self_inverse_on_basis_states():
    f = F(3, [[1, 2], [-2, 3]])
    for build in (build_v_unit, build_v_pure, build_v_leaf, build_v_marked):
        comp = build(f)
        doubled = comp.circuit.inverse()
        for pairs in ({}, {1: 1}, {2: 0, 3: 1}):
            idx = encode_vertex(pairs, 3, comp.num_wires)
            once = trace_basis(comp.circuit, idx).output_index
            back = trace_basis(doubled, once).output_index
            assert back == idx


def test_v_next():
    comp = build_v_next(3)
    width = comp.num_wires
    for pairs, j, b in (({}, 1, 0), ({1: 1}, 2, 1), ({2: 0}, 3, 1)):
        idx = encode_vertex(pairs, 3, width)
        j_reg = comp.outputs["j"]
        for pos in range(len(j_reg)):
            if (j >> (len(j_reg) - 1 - pos)) & 1:
                idx |= 1 << (width - 1 - j_reg[pos])
        if b:
            idx |= 1 << (width - 1 - comp.outputs["b"][0])
        out = trace_basis(comp.circuit, idx).output_index
        child = read_wires(out, width, comp.outputs["child"])
        want_pairs = dict(pairs)
        want_pairs[j] = b
        want = read_wires(encode_vertex(want_pairs, 3, 6), 6, range(6))
        assert child == want


def test_v_a_star_preparation_superposition():
    rng = random.Random(74)
    checked_root = checked_inner = 0
    for _ in range(10):
        f = random_kcnf(rng, 2, rng.randint(1, 3), k=2)
        comp = build_v_a_static(f, depth_bound=2, include_leaf_detector=False)
        width = comp.num_wires
        child_wires = comp.outputs["child"]
        index_wires = comp.outputs["index"]

        def star_state(base_pairs, stars, weight=1.0):
            base = encode_vertex(base_pairs, 2, width)
            out = {}
            for pairs, amp in stars:
                tgt = base
                for var, val in pairs.items():
                    tgt |= 1 << (width - 1 - child_wires[set_wire(var)])
                    if val:
                        tgt |= 1 << (width - 1 - child_wires[val_wire(var)])
                out[tgt] = out.get(tgt, 0) + amp * weight
            return base, out

        if evaluate_predicate(f, PartialAssignment.empty(2)) == Predicate.UNDETERMINED:
            norm = math.sqrt(1 + 2 * 2)
            base, expected = star_state({}, [({}, 1 / norm),
                                             ({1: 0}, math.sqrt(2) / norm),
                                             ({1: 1}, math.sqrt(2) / norm)])
            state = simulate(comp.circuit, basis_input=base)
            nz = np.flatnonzero(np.abs(state) > 1e-9)
            got = {int(i): complex(state[i]) for i in nz}
            assert set(got) == set(expected)
            assert all(abs(got[k] - expected[k]) < 1e-9 for k in expected)
            assert all(read_wires(int(i), width, index_wires) == 0 for i in nz)
            checked_root += 1

        inner = PartialAssignment.of(2, {1: 1})
        if evaluate_predicate(f, inner) == Predicate.UNDETERMINED:
            base, expected = star_state({1: 1}, [({1: 1}, 1 / math.sqrt(3)),
                                                 ({1: 1, 2: 0}, 1 / math.sqrt(3)),
                                                 ({1: 1, 2: 1}, 1 / math.sqrt(3))])
            state = simulate(comp.circuit, basis_input=base)
            nz = np.flatnonzero(np.abs(state) > 1e-9)
            got = {int(i): complex(state[i]) for i in nz}
            assert set(got) == set(expected)
            assert all(abs(got[k] - expected[k]) < 1e-9 for k in expected)
            checked_inner += 1
    assert checked_root >= 3 and checked_inner >= 3


def test_v_a_disentangles_superposed_parents():
    rng = random.Random(75)
    done = 0
    for _ in range(10):
        f = random_kcnf(rng, 2, rng.randint(1, 3), k=2)
        if evaluate_predicate(f, PartialAssignment.empty(2)) != Predicate.UNDETERMINED:
            continue
        if evaluate_predicate(f, PartialAssignment.of(2, {1: 1})) != Predicate.UNDETERMINED:
            continue
        comp = build_v_a_static(f, depth_bound=2, include_leaf_detector=False)
        width = comp.num_wires
        i_root = encode_vertex({}, 2, width)
        i_x = encode_vertex({1: 1}, 2, width)
        init = np.zeros(2 ** width, dtype=complex)
        init[i_root] = init[i_x] = 1 / math.sqrt(2)
        state = simulate(comp.circuit, state=init)
        index_wires = comp.outputs["index"]
        nz = np.flatnonzero(np.abs(state) > 1e-9)
        assert all(read_wires(int(i), width, index_wires) == 0 for i in nz)
        # Norm preserved and mass split across exactly two parent sectors.
        assert np.abs(np.linalg.norm(state) - 1) < 1e-9
        done += 1
    assert done >= 3


def test_full_v_a_identity_on_leaves():
    rng = random.Random(76)
    for _ in range(4):
        f = random_kcnf(rng, 2, rng.randint(1, 3), k=2)
        comp = build_v_a_static(f, depth_bound=2)
        for pairs in ({1: 0, 2: 0}, {1: 0, 2: 1}, {1: 1, 2: 0}, {1: 1, 2: 1}):
            idx = encode_vertex(pairs, 2, comp.num_wires)
            assert trace_basis(comp.circuit, idx).output_index == idx


def test_r_a_accounting_4n_plus_w():
    rng = random.Random(77)
    f = random_kcnf(rng, 8, 20)
    acc = assembled_r_a_wires(f)
    assert acc["vertexRegisters"] == 32
    overhead = acc["overhead"]
    assert acc["total"] == 32 + overhead
    # w stays logarithmic: generous affine-in-log bound, pinned here.
    assert overhead <= 16 * math.log2(8) + 8

    for n in (4, 6, 10):
        f = random_kcnf(rng, n, 3 * n)
        acc = assembled_r_a_wires(f)
        assert acc["total"] - 4 * n <= 16 * math.log2(n) + 8


def random_cnf(rng):
    n = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return F(n, clauses)


def test_component_wires_partition_the_circuit():
    rng = random.Random(78)
    for _ in range(40):
        f = random_cnf(rng)
        comps = [build_v_leaf(f), build_v_marked(f), build_v_unit(f), build_v_pure(f),
                 build_v_next(f.num_vars), build_v_a_static(f),
                 build_v_a_static(f, include_leaf_detector=False)]
        for comp in comps:
            wires = list(comp.vertex_wires) + list(comp.scratch_wires)
            for reg in comp.outputs.values():
                wires += reg
            assert sorted(wires) == list(range(comp.num_wires)), comp.name
            assert comp.vertex_wires == tuple(range(2 * f.num_vars))


def test_encode_vertex_rejects_foreign_pairs():
    assert encode_vertex({1: 0, 3: 1}, 3, 6) == 0b100011
    with pytest.raises(ValueError, match="variable 5 outside 1..3"):
        encode_vertex({5: 1}, 3, 12)
    with pytest.raises(ValueError, match="variable 0 outside 1..3"):
        encode_vertex({0: 1}, 3, 12)
    with pytest.raises(ValueError, match="value 2, not 0 or 1"):
        encode_vertex({2: 2}, 3, 12)


@pytest.mark.parametrize("depth_bound", [0, -1])
def test_v_a_rejects_depth_bound_below_1(depth_bound):
    with pytest.raises(ValueError, match="depth_bound must be at least 1"):
        build_v_a_static(F(2, [[1, 2]]), depth_bound=depth_bound)


def test_rebase_relabels_wires():
    f = F(3, [[1, -2], [2, 3], [-1, -3]])
    leaf = build_v_leaf(f)
    w = leaf.num_wires
    perm = list(range(w))
    random.Random(5).shuffle(perm)
    wire_map = {u: perm[u] + 1 for u in range(w)}      # wires 0 and w+1 idle
    moved = _rebase(leaf.circuit, wire_map, w + 2)

    def relabel(index):
        return sum(1 << (w + 1 - wire_map[u])
                   for u in range(w) if (index >> (w - 1 - u)) & 1)

    for pairs in all_partials(3):
        idx, out = run_on(leaf, pairs, 3)
        assert trace_basis(moved, relabel(idx)).output_index == relabel(out)

    c = Circuit(3)
    block = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0]
    c.unitary((0, 2), block, ((1, 0),))
    gate = _rebase(c, {0: 2, 1: 0, 2: 1}, 3).gates[0]
    assert (gate.kind, gate.targets, gate.controls) == ("unitary", (2, 1), ((0, 0),))
    assert gate.block is c.gates[0].block
    with pytest.raises(ValueError, match="wire 3 out of range"):
        _rebase(c, {0: 3, 1: 0, 2: 1}, 3)
    with pytest.raises(ValueError, match="used twice"):
        _rebase(c, {0: 1, 1: 0, 2: 1}, 3)
