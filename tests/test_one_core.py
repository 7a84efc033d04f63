"""One of each under src/quadmode.  The package integrates through one core:
scipy's solve_ivp appears only in the two independent oracles, whose value
is that they share nothing with the propagator core.  And a config number
is checked by one rule: the "not a boolean" test of a number is written
only in errors._number."""

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


def _bool_test(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def test_number_rule_written_once():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            found += [(path.name, getattr(stmt, "name", "<module>"))
                      for node in ast.walk(stmt) if _bool_test(node)]
    # grid.adaptive is the one config value that is a boolean
    assert sorted(found) == [("config.py", "_parse_grid"), ("errors.py", "_number")]
