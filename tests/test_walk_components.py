import itertools
import math
import random

import numpy as np
import pytest

from hybridts.formula import UNSET, CnfFormula
from hybridts.generators import random_kcnf
from hybridts.qcircuit.core import (
    _PERMUTE,
    UNITARY_KIND,
    Circuit,
    _basis_planes,
    _indices,
    _map_planes,
    _split_runs,
    simulate,
    trace_basis,
)
from hybridts.qcircuit.walk import (
    _rebase,
    build_v_a_static,
    build_v_leaf,
    encode_vertex,
    read_wires,
    set_wire,
    val_wire,
)
from hybridts.treesearch import DPLL, EngineConfig, tree_stats
from reference import PartialAssignment, Predicate, evaluate_predicate

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


def sparse_simulate(circuit: Circuit, terms: dict[int, complex]) -> dict[int, complex]:
    """A state held as {basis index: amplitude}, sent through the circuit.
    Each run of phase-permutation gates maps every index at once on bit
    planes (`_map_planes`); each UNITARY block is applied term by term, and a
    zero amplitude is dropped. Only the support is stored, so the circuit may
    be far wider than `simulate`'s statevector cap."""
    width = circuit.num_wires
    for kind, run in _split_runs(circuit.gates):
        if kind == _PERMUTE:
            planes, n = _basis_planes(width, terms)
            out, phase = _map_planes(run, planes, n)
            amps = list(terms.values())
            if phase is not None:
                amps = [a * p for a, p in zip(amps, phase)]
            terms = dict(zip(map(int, _indices(out, n)), amps))
            continue
        for gate in run:
            assert gate.kind == UNITARY_KIND, gate.kind
            k = len(gate.targets)
            bits = [1 << (width - 1 - w) for w in gate.targets]
            patterns = [sum(bit for pos, bit in enumerate(bits) if row >> (k - 1 - pos) & 1)
                        for row in range(2 ** k)]
            mask = patterns[-1]
            new: dict[int, complex] = {}
            for index, amp in terms.items():
                if all((index >> (width - 1 - w) & 1) == bit for w, bit in gate.controls):
                    col = patterns.index(index & mask)
                    base = index & ~mask
                    images = [(base | pattern, gate.block[row, col] * amp)
                              for row, pattern in enumerate(patterns)]
                else:
                    images = [(index, amp)]
                for image, a in images:
                    if a:
                        new[image] = new.get(image, 0) + a
            terms = new
    return terms


def assert_same_state(terms: dict[int, complex], expected: dict[int, complex], tol: float):
    for index in terms.keys() | expected.keys():
        assert abs(terms.get(index, 0) - expected.get(index, 0)) < tol, index


def child_bits(comp, pairs: dict[int, int]) -> int:
    """Basis bits of the child register loaded with the vertex `pairs`."""
    width, child = comp.num_wires, comp.outputs["child"]
    out = 0
    for var, val in pairs.items():
        out |= 1 << (width - 1 - child[set_wire(var)])
        if val:
            out |= 1 << (width - 1 - child[val_wire(var)])
    return out


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def random_state(rng: random.Random, width: int, terms: int) -> dict[int, complex]:
    amps = {rng.randrange(2 ** width): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(terms)}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return {index: a / norm for index, a in amps.items()}


def dense_terms(circuit: Circuit, terms: dict[int, complex]) -> dict[int, complex]:
    state = np.zeros(2 ** circuit.num_wires, dtype=complex)
    for index, amp in terms.items():
        state[index] = amp
    out = simulate(circuit, state=state)
    return {int(i): complex(out[i]) for i in np.flatnonzero(out)}


def test_sparse_simulate_matches_dense_simulate():
    rng, np_rng = random.Random(70), np.random.default_rng(70)
    for _ in range(30):
        width = rng.randint(3, 12)
        circ = Circuit(width)
        for _ in range(rng.randint(1, 40)):
            wires = rng.sample(range(width), rng.randint(2, min(4, width)))
            if rng.random() < 0.5:
                targets, rest = wires[:1], wires[1:]
            else:
                targets, rest = wires[:2], wires[2:]
            controls = tuple((w, rng.randint(0, 1)) for w in rest)
            if len(targets) == 1:
                circ.x(targets[0], controls)
            elif rng.random() < 0.3:     # diagonal: joins a permutation run
                phases = np.exp(1j * np.array([rng.uniform(0, 2 * math.pi) for _ in range(4)]))
                circ.unitary(targets, np.diag(phases), controls)
            else:
                circ.unitary(targets, random_unitary(np_rng, 4), controls)
        terms = random_state(rng, width, rng.randint(1, 4))
        assert_same_state(sparse_simulate(circ, terms), dense_terms(circ, terms), 1e-12)

    # The whole V_A at n = 1 (19 wires) on a superposition of its three
    # vertices and two other basis states.
    comp = build_v_a_static(F(1, [[1]]))
    assert comp.num_wires == 19
    terms = random_state(rng, 19, 2)
    for pairs in ({}, {1: 0}, {1: 1}):
        terms[encode_vertex(pairs, 1, 19)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    terms = {index: a / norm for index, a in terms.items()}
    assert_same_state(sparse_simulate(comp.circuit, terms),
                      dense_terms(comp.circuit, terms), 1e-12)


def test_v_a_is_the_star_of_engine_trees():
    """V_A on every vertex of exhaustive DPLL trees with no reduction rules,
    which branch on the first free variable as V_A does: a non-leaf vertex
    maps to its star under qwalk's weights (the root's children weighted by
    sqrt(n)) with the index register back at zero, and a leaf to itself."""
    rng = random.Random(79)
    sizes = []
    for n in range(8, 17):
        f = random_kcnf(rng, n, round(4.26 * n))
        tree = tree_stats(f, EngineConfig(kind=DPLL, reduction_rules=()),
                          collect_tree=True).tree
        comp = build_v_a_static(f)
        width = comp.num_wires
        inputs, expected = {}, {}
        for v in range(tree.size):
            pairs = tree.assignment_pairs(v)
            x = encode_vertex(pairs, n, width)
            inputs[x] = 1.0
            kids = tree.children[v]
            if not kids:
                expected[x] = 1.0
                continue
            weight = math.sqrt(tree.depth_bound) if v == 0 else 1.0
            norm = math.sqrt(1 + weight ** 2 * len(kids))
            expected[x | child_bits(comp, pairs)] = 1 / norm
            for u in kids:
                expected[x | child_bits(comp, tree.assignment_pairs(u))] = weight / norm
        # Distinct vertices keep distinct vertex registers, so one sparse run
        # over all of them holds each vertex's image on its own terms.
        assert_same_state(sparse_simulate(comp.circuit, inputs), expected, 1e-12)
        sizes.append(tree.size)
    assert min(sizes) > 100 and max(sizes) > 1000


def test_v_leaf_exhaustive():
    rng = random.Random(73)
    for _ in range(5):
        n = rng.randint(3, 4)
        f = random_kcnf(rng, n, rng.randint(1, 6))
        leaf = build_v_leaf(f)
        for pairs in all_partials(n):
            pred = evaluate_predicate(f, PartialAssignment.of(n, pairs))
            idx, out = run_on(leaf, pairs, n)
            assert read_wires(out, leaf.num_wires, leaf.outputs["b"]) == \
                (pred != Predicate.UNDETERMINED)
            assert_restored(leaf, idx, out)


def test_components_self_inverse_on_basis_states():
    f = F(3, [[1, 2], [-2, 3]])
    comp = build_v_leaf(f)
    doubled = comp.circuit.inverse()
    for pairs in ({}, {1: 1}, {2: 0, 3: 1}):
        idx = encode_vertex(pairs, 3, comp.num_wires)
        once = trace_basis(comp.circuit, idx).output_index
        back = trace_basis(doubled, once).output_index
        assert back == idx


def test_v_a_star_preparation_superposition():
    rng = random.Random(74)
    checked_root = checked_inner = 0
    for _ in range(10):
        f = random_kcnf(rng, 2, rng.randint(1, 3), k=2)
        comp = build_v_a_static(f, depth_bound=2)
        width = comp.num_wires
        index_wires = comp.outputs["index"]

        def star_state(base_pairs, stars):
            base = encode_vertex(base_pairs, 2, width)
            return base, {base | child_bits(comp, pairs): amp for pairs, amp in stars}

        if evaluate_predicate(f, PartialAssignment.empty(2)) == Predicate.UNDETERMINED:
            norm = math.sqrt(1 + 2 * 2)
            base, expected = star_state({}, [({}, 1 / norm),
                                             ({1: 0}, math.sqrt(2) / norm),
                                             ({1: 1}, math.sqrt(2) / norm)])
            got = sparse_simulate(comp.circuit, {base: 1.0})
            assert_same_state(got, expected, 1e-9)
            assert all(read_wires(i, width, index_wires) == 0 for i in got)
            checked_root += 1

        inner = PartialAssignment.of(2, {1: 1})
        if evaluate_predicate(f, inner) == Predicate.UNDETERMINED:
            base, expected = star_state({1: 1}, [({1: 1}, 1 / math.sqrt(3)),
                                                 ({1: 1, 2: 0}, 1 / math.sqrt(3)),
                                                 ({1: 1, 2: 1}, 1 / math.sqrt(3))])
            assert_same_state(sparse_simulate(comp.circuit, {base: 1.0}), expected, 1e-9)
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
        comp = build_v_a_static(f, depth_bound=2)
        width = comp.num_wires
        i_root = encode_vertex({}, 2, width)
        i_x = encode_vertex({1: 1}, 2, width)
        state = sparse_simulate(comp.circuit, {i_root: 1 / math.sqrt(2), i_x: 1 / math.sqrt(2)})
        index_wires = comp.outputs["index"]
        nz = [i for i, a in state.items() if abs(a) > 1e-9]
        assert all(read_wires(i, width, index_wires) == 0 for i in nz)
        # Norm preserved and mass split evenly across the two parent sectors.
        vertex = comp.vertex_wires
        for parent in (i_root, i_x):
            sector = [a for i, a in state.items()
                      if read_wires(i, width, vertex) == read_wires(parent, width, vertex)]
            assert abs(sum(abs(a) ** 2 for a in sector) - 0.5) < 1e-9
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


def random_cnf(rng):
    n = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return F(n, clauses)


def expected_v_a_width(f: CnfFormula) -> int:
    n, m = f.num_vars, f.num_clauses
    return (4 * n + f.max_clause_size + 9 + n.bit_length() + (n + 1).bit_length()
            + 2 * max(1, m.bit_length()))


def test_v_a_width():
    rng = random.Random(77)
    for n, wires in ((8, 64), (12, 80), (16, 100)):
        f = random_kcnf(rng, n, round(4.26 * n))
        assert build_v_a_static(f).num_wires == expected_v_a_width(f) == wires
    for _ in range(40):
        f = random_cnf(rng)
        assert build_v_a_static(f).num_wires == expected_v_a_width(f)


def test_component_wires_partition_the_circuit():
    rng = random.Random(78)
    for _ in range(40):
        f = random_cnf(rng)
        for comp in (build_v_leaf(f), build_v_a_static(f)):
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
