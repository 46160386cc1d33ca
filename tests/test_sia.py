import itertools
import random

import pytest

from hybridts.formula import CnfFormula, index_width
from hybridts.generators import bounded_width_cnf
from hybridts.sia import (
    FLAG_CONTRADICTION,
    FLAG_OUT_OF_ADVICE,
    FLAG_SATISFIED,
    Cell,
    double_execute_cells,
    grover_advice_success_set,
    locality_check,
    reference_assignment,
    resource_account,
    sia_reference,
    siab_block,
    siac_run,
    siar_execute,
    siar_schedule,
)
from hybridts.treesearch import DNCPPSZ, EngineConfig, tree_stats

F = CnfFormula.from_clauses

# Corrected Alg.-4 derivation of the k=3 example sequence: the printed paper
# version misnumbers blocks 7/8 in lines 13-15 and never computes block 8.
EXAMPLE_1_K3 = """M[0] ^= SIAB_1(M[-1])
M[1] ^= SIAB_2(M[0])
M[0] ^= SIAB_1(M[-1])
M[0] ^= SIAB_3(M[1])
M[2] ^= SIAB_4(M[0])
M[0] ^= SIAB_3(M[1])
M[0] ^= SIAB_1(M[-1])
M[1] ^= SIAB_2(M[0])
M[0] ^= SIAB_1(M[-1])
M[0] ^= SIAB_5(M[2])
M[1] ^= SIAB_6(M[0])
M[0] ^= SIAB_5(M[2])
M[0] ^= SIAB_7(M[1])
M[3] ^= SIAB_8(M[0])
M[0] ^= SIAB_7(M[1])
M[0] ^= SIAB_5(M[2])
M[1] ^= SIAB_6(M[0])
M[0] ^= SIAB_5(M[2])
M[0] ^= SIAB_1(M[-1])
M[1] ^= SIAB_2(M[0])
M[0] ^= SIAB_1(M[-1])
M[0] ^= SIAB_3(M[1])
M[2] ^= SIAB_4(M[0])
M[0] ^= SIAB_3(M[1])
M[0] ^= SIAB_1(M[-1])
M[1] ^= SIAB_2(M[0])
M[0] ^= SIAB_1(M[-1])"""


def test_reference_examples():
    out = sia_reference(F(1, [[1]]), "")
    assert out.kind == "zeroChildren" and out.reason == "satisfied"
    assert out.advice_consumed == 0

    out = sia_reference(F(2, [[1, 2]]), "")
    assert out.kind == "twoChildren" and out.at_variable == 1
    assert out.flag == FLAG_OUT_OF_ADVICE

    out = sia_reference(F(2, [[1, 2], [-1, 2], [-2]]), "1", s=1)
    assert out.kind == "zeroChildren" and out.reason == "contradiction"
    assert out.advice_consumed == 1


def test_reference_flag_values():
    assert sia_reference(F(1, [[1], [-1]]), "", s=2).flag == FLAG_CONTRADICTION
    assert sia_reference(F(1, [[1]]), "").flag == FLAG_SATISFIED


def test_siab_identity_when_flag_set():
    f = F(4, [[1, 2], [3, 4]])
    cell = Cell((1, 0), 1, FLAG_CONTRADICTION, 1)
    out = siab_block(f, 2, 2, cell, "101")
    assert out == cell


def test_siab_forced_chain_consumes_no_advice():
    f = F(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
    cell = siab_block(f, 1, 2, Cell.zero(2), "11")
    assert cell.cursor == 0
    assert cell.block == (1, 1)


def test_siac_matches_reference():
    rng = random.Random(81)
    for _ in range(120):
        n = rng.randint(2, 12)
        w = rng.randint(1, min(4, n))
        f = bounded_width_cnf(rng, n, w, rng.randint(1, 3 * n))
        advice = "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(0, n)))
        s = rng.choice((1, 2))
        ref = sia_reference(f, advice, s)
        out, assignment = siac_run(f, advice, w, s)
        assert out.comparable() == ref.comparable()
        if out.kind == "twoChildren":
            assert out.at_variable == ref.at_variable
        assert assignment == reference_assignment(f, advice, s)


def test_schedule_shapes():
    assert [e.as_text() for e in siar_schedule(0).entries] == ["M[0] ^= SIAB_1(M[-1])"]
    k1 = [e.as_text() for e in siar_schedule(1).entries]
    assert k1 == ["M[0] ^= SIAB_1(M[-1])", "M[1] ^= SIAB_2(M[0])",
                  "M[0] ^= SIAB_1(M[-1])"]
    for k in range(7):
        assert len(siar_schedule(k).entries) == 3 ** k


def test_schedule_k3_matches_corrected_example():
    assert siar_schedule(3).as_text() == EXAMPLE_1_K3
    # The compute and uncompute wings of the first half are identical.
    lines = EXAMPLE_1_K3.splitlines()
    assert lines[:9] == lines[18:]


def test_siar_execute_equivalence_and_trace():
    rng = random.Random(82)
    for _ in range(120):
        n = rng.randint(2, 12)
        w = rng.randint(1, min(3, n))
        f = bounded_width_cnf(rng, n, w, rng.randint(1, 3 * n))
        advice = "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(0, n)))
        s = rng.choice((1, 2))
        ref = sia_reference(f, advice, s)
        out, trace = siar_execute(f, advice, w, s)
        assert out.comparable()[0] == ref.comparable()[0]
        assert (out.reason, out.advice_consumed, out.flag) == \
            (ref.reason, ref.advice_consumed, ref.flag)
        assert trace.restored
        assert trace.peak_live_intermediate <= _k_of(trace.siab_calls)


def _k_of(calls):
    k = 0
    while 3 ** k < calls:
        k += 1
    return k


def test_siar_peak_cells_measured():
    rng = random.Random(83)
    f = bounded_width_cnf(rng, 16, 2, 30)
    out, trace = siar_execute(f, "10110", 2)
    assert trace.siab_calls == 27            # k = 3 for 8 blocks
    assert trace.peak_live_intermediate == 3


def test_double_execution_restores_everything():
    rng = random.Random(84)
    for _ in range(10):
        n = rng.randint(3, 10)
        w = rng.randint(1, 3)
        f = bounded_width_cnf(rng, n, w, rng.randint(2, 2 * n))
        advice = "".join(str(rng.randint(0, 1)) for _ in range(3))
        cells = double_execute_cells(f, advice, w)
        assert all(cell.is_zero() for cell in cells.values())


def test_width_precondition():
    f = F(5, [[1, 5]])   # width 4
    with pytest.raises(ValueError):
        siar_execute(f, "1", 2)
    with pytest.raises(ValueError):
        siab_block(f, 1, 2, Cell.zero(2), "1")


def test_locality_examples():
    chain = F(6, [[1], [-1, 2], [-2, 3], [-3, 4], [-4, 5], [-5, 6]])
    assert locality_check(chain, 1, 40, seed=1)["ok"]

    rng = random.Random(85)
    lattice_like = bounded_width_cnf(rng, 16, 4, 30)
    assert locality_check(lattice_like, 4, 60, seed=2)["ok"]

    wide = F(6, [[1, 6]])
    with pytest.raises(ValueError):
        locality_check(wide, 2, 10, seed=3)


def test_resource_account():
    acc = resource_account(8, 1, 1, 3)
    assert acc["scheduleLength"] == 27 and acc["k"] == 3
    rng = random.Random(86)
    f = bounded_width_cnf(rng, 8, 1, 12)
    _, trace = siar_execute(f, "101", 1)
    assert trace.siab_calls == acc["scheduleLength"]

    degenerate = resource_account(8, 8, 1, 3)
    assert degenerate["k"] == 0 and degenerate["scheduleLength"] == 1
    assert degenerate["space"] == sum(degenerate["polylogItemized"][key]
                                      for key in ("cursor", "flag", "satCounter"))


def test_grover_over_advice_matches_dnc_branch_sequences():
    rng = random.Random(87)
    done = 0
    for _ in range(40):
        n = rng.randint(2, 8)
        f = bounded_width_cnf(rng, n, rng.randint(1, 3), rng.randint(1, 2 * n))
        budget = rng.randint(0, min(5, n))
        s = rng.choice((1, 2))
        config = EngineConfig(kind=DNCPPSZ, reduction_rules=("sImplication",),
                              s=s, guess_budget=budget).validated(f)
        res = tree_stats(f, config, collect_tree=True)
        tree = res.tree
        kids = tree.children
        sequences = set()

        def walk(v, seq):
            children = kids[v]
            if not children:
                if tree.marked[v]:
                    sequences.add(seq)
                return
            if len(children) == 1:
                walk(children[0], seq)
            else:
                for child in children:
                    walk(child, seq + str(tree.edges[child][1]))

        walk(0, "")
        expected = set()
        for bits in itertools.product("01", repeat=budget):
            word = "".join(bits)
            if any(word.startswith(seq) for seq in sequences):
                expected.add(word)
        assert grover_advice_success_set(f, budget, s) == expected
        done += 1
    assert done == 40
