"""Library code that only the tests reach (ROADMAP item 13).

Each top-level `def` and `class` in `src/hybridts` should have a caller in
`src/` or `benchmark/`. A caller is a name or attribute reference outside the
definition itself; imports, `__all__` entries and docstrings are not
references. A private name always has one, so a deletion cannot leave its
helpers behind. The public names below have none yet; each is listed with
the ROADMAP item that gives it a caller, moves it to the tests or deletes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hybridts"

UNCALLED = {
    # Item 1's scan, or the tests.
    "decomposition.check_metatheorem_conditions",
    "decomposition.uniform_density_scan",
    "decomposition.leaves_bound_check",
    "decomposition.sia_region_feasible",
    # Item 8.
    "decomposition.tree_size_estimation_cost",
    # The benchmark's workloads.dimacs (item 5).
    "formula.serialize_dimacs",
    # The circuit walk: item 1's scan, if it reports V_A widths, or the tests.
    "qcircuit.walk.build_v_a_static",
    "qcircuit.walk.encode_vertex",
    "qcircuit.walk.read_wires",
}


def definitions() -> dict[str, str]:
    """Name -> module for each top-level def and class in the library."""
    found = {}
    for path in sorted(LIBRARY.rglob("*.py")):
        module = ".".join(path.relative_to(LIBRARY).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name not in found, f"{node.name} is defined twice"
                found[node.name] = module
    return found


def referenced_names() -> set[str]:
    """Identifiers read as a name or attribute in src/ and benchmark/, except
    inside the top-level definition of the same name."""
    seen = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and node.id != own:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for base in ("src", "benchmark"):
        for path in sorted((ROOT / base).rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                visit(node, getattr(node, "name", None))
    return seen


def uncalled_definitions() -> set[str]:
    called = referenced_names()
    return {f"{module}.{name}" for name, module in definitions().items()
            if name not in called}


def test_uncalled_library_names_are_the_listed_ones():
    assert {name for name in uncalled_definitions()
            if not name.rsplit(".", 1)[1].startswith("_")} == UNCALLED


def test_private_library_names_have_a_caller():
    assert {name for name in uncalled_definitions()
            if name.rsplit(".", 1)[1].startswith("_")} == set()
