"""Every public function, class and method of ucont has a reader in the
package or the benchmark harness, or is listed below with the reason it
stays: a name that only its own unit tests call pins nothing the lab
checks."""

import ast
from pathlib import Path

import ucont

SRC = Path(ucont.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that nothing in src/ucont or perfbench reads, each with the
# test that reads it
READ_BY_TESTS = {
    "operators.conjugated_operator": "oracle of the split S + A",
    "operators.DiffOperator.compose":
        "oracle of the commutator; perfbench patches it by name",
    "operators.t_decomposition_terms":
        "the graded pieces alone, which the T-decomposition tests read; "
        "verify_T_decomposition builds them on its shared derivative table, "
        "and perfbench patches the name",
    "evolution.linear_potential_closed_form": "oracle of criterion 04",
    "grids.l2_inner": "the adjoint identities of criterion 03",
    "diagnostics.gaussian_decay_schedule": "criterion 08",
    "diagnostics.decay_schedule_companion": "criterion 08",
    "operators.TDecompositionReport.ok": "criterion 01",
    "evolution.Trajectory.final": "criterion 07",
    "evolution.read_checkpoint":
        "the checkpoint round trip and corruption tests; it reads simulate's "
        "checkpoint, and ROADMAP aim 3 and the README's CheckpointError "
        "contract depend on it",
}


def _definitions(module: str, tree: ast.Module) -> dict:
    """qualified name -> (kind, node) of the public module-level functions
    and classes of ``tree`` and the public methods of its classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = ("global", node)
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    out[f"{module}.{node.name}.{sub.name}"] = ("method", sub)
    return out


def _reads(tree: ast.Module, classes: set[str]) -> list:
    """(identifier, is an attribute, class it is read from or None, ids of
    the enclosing definitions) for each name and attribute read in
    ``tree``.  ``X.m`` is read from class C when X is C, ends in C, or is
    a name assigned such an expression."""
    aliases = {}

    def owner(node):
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
        return aliases.get(name, name if name in classes else None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and owner(node.value):
            aliases[node.targets[0].id] = owner(node.value)
    out = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, False, None, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True, owner(node.value), enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)
    visit(tree, frozenset())
    return out


def test_every_public_name_has_a_reader():
    """A name read only inside its own definition, or inside a definition
    that itself has no reader, has no reader.  A read in perfbench of a name
    that perfbench defines itself reads perfbench's definition."""
    src = {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    bench = [ast.parse(path.read_text()) for path in BENCH.glob("*.py")]
    defs = {}
    for path, tree in src.items():
        defs.update(_definitions(path.stem, tree))
    classes = {node.name for _, node in defs.values()
               if isinstance(node, ast.ClassDef)}
    own = {node.name for tree in bench for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reads = [r for tree in src.values() for r in _reads(tree, classes)]
    reads += [r for tree in bench for r in _reads(tree, classes)
              if r[0] not in own]

    def is_read(qual, dead_ids):
        kind, node = defs[qual]
        *_, cls, name = qual.split(".")
        return any(ident == name and not enclosing & dead_ids
                   and id(node) not in enclosing
                   and (attr and source in (None, cls) if kind == "method"
                        else source is None)
                   for ident, attr, source, enclosing in reads)

    dead: set[str] = set()
    while True:
        dead_ids = {id(defs[q][1]) for q in dead}
        unread = {q for q in defs if not is_read(q, dead_ids)}
        if unread - READ_BY_TESTS.keys() == dead:
            break
        dead = unread - READ_BY_TESTS.keys()
    assert not dead, f"no reader: {sorted(dead)}"
    assert unread == READ_BY_TESTS.keys()
