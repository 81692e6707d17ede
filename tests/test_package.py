"""The package keeps only what its commands run.

Every public top-level definition of ``src/amplab`` must be reached, through
the names that code uses, from a definition in ``cli.py`` or from a name in
``LIBRARY_API``.  A helper or reference that only the tests call belongs in
``tests/genutil.py``.  Names are followed in code only: a docstring that
names a function does not reach it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "amplab"

# the names that stay in the package though no subcommand calls them
LIBRARY_API = {
    "amplitudes.amplitude": "the one entry point for a single Setup",
    "amplitudes.relative_deviation": "the README documents the deviation rule by this name",
    "regrade.additivity_residual": "a regrade's residual at any n_axis; recover_regrade reports 24",
    "lattice.save_kernel": "the benchmark writes the kernel file of its chain workload with it",
}


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _package():
    """Every top-level definition as ``module.name`` -> its statement, and
    each module's relative imports as ``(module, local name)`` -> what it
    names: ``module.name`` for ``from .module import name``, ``module`` for
    ``from . import module``."""
    definitions, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports, and the version
            continue
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    target = f"{stmt.module}.{alias.name}" if stmt.module else alias.name
                    imports[(module, alias.asname or alias.name)] = target
            for name in _defined_names(stmt):
                definitions[f"{module}.{name}"] = stmt
    return definitions, imports


def _reached(roots) -> set[str]:
    definitions, imports = _package()
    modules = {key.split(".")[0] for key in definitions}

    def references(key):
        module = key.split(".")[0]
        found = set()
        for node in ast.walk(definitions[key]):
            if isinstance(node, ast.Name):
                found.add(imports.get((module, node.id), f"{module}.{node.id}"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = imports.get((module, node.value.id))
                if target in modules:
                    found.add(f"{target}.{node.attr}")
        return found & definitions.keys()

    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(references(key))
    return seen


def _cli_roots() -> set[str]:
    return {key for key in _package()[0] if key.startswith("cli.")}


def test_every_public_definition_is_reached_from_the_cli_or_the_library_api():
    definitions, _ = _package()
    reached = _reached(_cli_roots() | set(LIBRARY_API))
    unreached = sorted(
        key for key in definitions
        if key not in reached and not key.split(".")[1].startswith("_")
    )
    assert not unreached, f"reached by no subcommand, move to tests/genutil.py: {unreached}"


def test_every_library_api_name_is_needed():
    # each name exists, and no subcommand reaches it: else it needs no reason
    definitions, _ = _package()
    assert set(LIBRARY_API) <= definitions.keys()
    assert not set(LIBRARY_API) & _reached(_cli_roots())
