"""Every public function, class and method of ucont has a reader in the
package or the benchmark harness, and every optional parameter of one has a
setter there, or is listed below with the reason it stays: a name that only
its own unit tests call, or an option that only they set, pins nothing the
lab checks."""

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
    "evolution.read_checkpoint":
        "the checkpoint round trip and corruption tests; it reads simulate's "
        "checkpoint, and ROADMAP aim 3 and the README's CheckpointError "
        "contract depend on it",
}

# optional parameters that nothing in src/ucont or perfbench sets, each with
# the reason it stays
SET_BY_TESTS = {
    "cli.main.argv": "the console entry point reads sys.argv; tests pass "
                     "their own command lines",
    "diagnostics.weighted_norm.alpha":
        "alpha = 3/2 is the paper's cubic-exponential weight e^{2 kappa "
        "|x|^3}, which test_persistence_companion_free_flow measures and "
        "ROADMAP item 7 needs",
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
    the enclosing definitions, the call it is the callee of or None) for
    each name and attribute read in ``tree``.  ``X.m`` is read from class C
    when X is C, ends in C, or is a name assigned such an expression; inside
    class C, ``cls`` reads C."""
    aliases = {}

    def owner(node):
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
        return aliases.get(name, name if name in classes else None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and owner(node.value):
            aliases[node.targets[0].id] = owner(node.value)
    callees = {id(node.func): node for node in ast.walk(tree)
               if isinstance(node, ast.Call)}
    out = []

    def visit(node, enclosing, cls):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.ClassDef):
            cls = node.name
        call = callees.get(id(node))
        if isinstance(node, ast.Name):
            ident = cls if node.id == "cls" and cls else node.id
            out.append((ident, False, None, enclosing, call))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True, owner(node.value), enclosing, call))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, cls)
    visit(tree, frozenset(), None)
    return out


def _package_reads():
    """The public definitions of ucont, and the reads of src/ucont and
    perfbench; a read in perfbench of a name that perfbench defines itself
    reads perfbench's definition and is left out."""
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
    return defs, reads


def _reads_of(qual, kind, reads):
    """The reads in ``reads`` that may read the definition ``qual``: a
    method is read as an attribute from its class or from an instance, any
    other definition from no class."""
    *_, cls, name = qual.split(".")
    return [r for r in reads if r[0] == name
            and (r[1] and r[2] in (None, cls) if kind == "method"
                 else r[2] is None)]


def test_every_public_name_has_a_reader():
    """A name read only inside its own definition, or inside a definition
    that itself has no reader, has no reader."""
    defs, reads = _package_reads()

    def is_read(qual, dead_ids):
        kind, node = defs[qual]
        return any(not enclosing & dead_ids and id(node) not in enclosing
                   for *_, enclosing, _ in _reads_of(qual, kind, reads))

    dead: set[str] = set()
    while True:
        dead_ids = {id(defs[q][1]) for q in dead}
        unread = {q for q in defs if not is_read(q, dead_ids)}
        if unread - READ_BY_TESTS.keys() == dead:
            break
        dead = unread - READ_BY_TESTS.keys()
    assert not dead, f"no reader: {sorted(dead)}"
    assert unread == READ_BY_TESTS.keys()


def _options(kind, node):
    """(name, index among the positional arguments of a call or None) of
    each optional parameter of a public function, a method or a class's
    ``__init__``; the first parameter of a method or ``__init__`` is bound."""
    if isinstance(node, ast.ClassDef):
        node = next((sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                     and sub.name == "__init__"), None)
        if node is None:
            return []
        kind = "method"
    args = node.args
    positional = (args.posonlyargs + args.args)[kind == "method":]
    first = len(positional) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] \
        + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
           if d is not None]


def _sets(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or
    through a * or ** splat, which may set any parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and index < len(call.args)


def test_every_public_option_has_a_setter():
    """An optional parameter that no call in src/ucont or perfbench passes
    has one value in the lab, which the code can state itself."""
    defs, reads = _package_reads()
    unset = set()
    for qual, (kind, node) in defs.items():
        calls = [call for *_, call in _reads_of(qual, kind, reads) if call]
        owner = f"{qual}.__init__" if isinstance(node, ast.ClassDef) else qual
        unset |= {f"{owner}.{name}" for name, index in _options(kind, node)
                  if not any(_sets(call, name, index) for call in calls)}
    assert not unset - SET_BY_TESTS.keys(), \
        f"no setter: {sorted(unset - SET_BY_TESTS.keys())}"
    assert unset == SET_BY_TESTS.keys()
