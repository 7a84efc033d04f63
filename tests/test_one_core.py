"""The package integrates through one core: scipy's solve_ivp appears only
in the two independent oracles, whose value is that they share nothing
with the propagator core."""

import ast
from pathlib import Path

import quadmode

SRC = Path(quadmode.__file__).resolve().parent
ORACLES = {"verify.py": "riccati_oracle",
           "characteristic.py": "classical_mode_equivalence"}


def _mentions(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "solve_ivp")
            or (isinstance(node, ast.Attribute) and node.attr == "solve_ivp")
            or (isinstance(node, ast.alias) and "solve_ivp" in (node.name, node.asname))
            or (isinstance(node, ast.Constant) and node.value == "solve_ivp"))


def test_solve_ivp_only_in_the_oracles():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == ORACLES.get(path.name):
                allowed.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.ImportFrom) and path.name in ORACLES:
                allowed.update(id(alias) for alias in node.names)  # its module import
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _mentions(node) and id(node) not in allowed]
    assert not offenders, offenders
