"""Source hygiene: no unused imports in the package, the tests or the demos,
no ``assert`` statement or ``raise AssertionError`` in the package, no
tolerance floored at one unit, one radius-r test, no private function the
package never references, no private module-level constant the package
never reads, no import inside a function of the package, no
artifact reader that leaves its keys unchecked, no dataclass argument
that ``__post_init__`` overwrites unread, no numpy call in the float
chain sampler, the cluster checks or the shared-arc matching, no read of
a curve's edge views outside ``arc_geometry``, no curve constructor but
``ArcCurve(rows, closed)``, and no cluster input but its container, its
cells and its area.

Package ``__init__.py`` files are skipped by the import scan, since their
imports are re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for p in (ROOT / "src" / "cheegerlab").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _is_assertion(node) -> bool:
    # an assert statement, or a raise of AssertionError (bare or called)
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_package():
    # python -O strips assert statements, and an AssertionError is no named
    # error either, so the package raises the errors of cheegerlab.errors
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_assertion(node)
    ]
    assert not found, "assertions in the package:\n" + "\n".join(found)


def _is_unit_floor(node) -> bool:
    # max(1.0, ...): a floor that ties a tolerance to the unit of length
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max"
            and any(isinstance(a, ast.Constant) and type(a.value) is float and a.value == 1.0
                    for a in node.args))


def test_no_floored_tolerance():
    # tolerances are relative to the extent of the object they judge, so a
    # verdict does not change when the object is moved or dilated
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_unit_floor(node)
    ]
    assert not found, "max(1.0, ...) floors:\n" + "\n".join(found)


def _is_radius_test(node) -> bool:
    # abs(<arc>.radius - r) or abs(radius - r), either way round: an arc's
    # radius against the domain radius r (a name r or an attribute .r)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs"
            and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Sub)):
        return False
    diff = node.args[0]

    def is_r(side):
        return (isinstance(side, ast.Name) and side.id == "r"
                or isinstance(side, ast.Attribute) and side.attr == "r")

    def is_radius(side):
        return (isinstance(side, ast.Attribute) and side.attr == "radius"
                or isinstance(side, ast.Name) and side.id == "radius")

    return is_radius(diff.left) and is_r(diff.right) or is_r(diff.left) and is_radius(diff.right)


def test_one_radius_r_test():
    # "this arc has radius r" has one tolerance, that of has_radius; comparing
    # two arcs' radii with each other is another question
    found, inside = [], []
    for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name == "has_radius"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if _is_radius_test(node):
                (inside if id(node) in allowed else found).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert len(inside) == 1
    assert not found, "radius-r tests outside has_radius:\n" + "\n".join(found)


def _package_trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))}


def test_no_uncalled_private_functions():
    # a module-level _name function that nothing in the package names is a
    # fork left behind by a rewrite; the tests may not keep it alive
    trees = _package_trees()
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in named
    ]
    assert not found, "private functions nothing references:\n" + "\n".join(found)


def _read_names(trees) -> set:
    # every name the package loads, bare or as an attribute
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _module_constants(tree):
    # (line, name) of each module-level assignment target
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_no_unread_private_constants():
    # a module-level _name that nothing in the package reads is a tuning
    # constant left behind by a removed pass; the tests may not keep it alive
    trees = _package_trees()
    read = _read_names(trees)
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in _module_constants(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not found, "private constants nothing reads:\n" + "\n".join(found)


def test_no_function_local_imports():
    # every import of the package sits at module level, where a reader sees
    # all of a module's dependencies; none of them breaks an import cycle
    found = sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert not found, "imports inside functions:\n" + "\n".join(found)


def test_edge_objects_stay_in_arc_geometry():
    # curves are stored as float rows; outside arc_geometry the package reads
    # c.rows, not the Segment and Arc views that c.edges builds
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _package_trees().items() if path.name != "arc_geometry.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "edges" and isinstance(node.ctx, ast.Load)
    ]
    assert not found, ".edges reads outside arc_geometry:\n" + "\n".join(found)


def _edges_views(tree) -> set:
    # the nodes of ArcCurve.edges, the one place that builds Segment and Arc views
    return {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "ArcCurve"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "edges"
            for node in ast.walk(fn)}


def test_rows_are_the_one_way_into_a_curve():
    # ArcCurve(rows, closed) builds every curve: the package calls Segment(
    # and Arc( only inside ArcCurve.edges, and neither defines nor names a
    # second constructor or a helper of the old object form
    retired = {"_from_rows", "_store", "edge_row", "split_edge", "full_circle"}
    found = []
    for path, tree in _package_trees().items():
        views = _edges_views(tree)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)) else None)
            if name in retired:
                found.append(f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', '?')}: {name}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("Segment", "Arc") and id(node) not in views):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.func.id}(")
    assert any(_edges_views(tree) for tree in _package_trees().values())
    assert not found, "curve construction outside ArcCurve(rows, closed):\n" + "\n".join(found)


def _calls_require_keys(func) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "require_keys"
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "jsonio"
               for node in ast.walk(func))


def test_readers_check_their_keys():
    # each artifact reader owns its schema: it rejects missing and unknown
    # keys itself, so an object is checked the same at the top level and nested
    readers = [
        (path, node)
        for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_dict")
    ]
    assert len(readers) >= 6
    found = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
             for path, node in readers if not _calls_require_keys(node)]
    assert not found, "readers that do not call jsonio.require_keys:\n" + "\n".join(found)


def _numpy_root(func) -> bool:
    # np.f or np.a.b...: an attribute chain that starts at the name np
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "np"


def _numpy_calls(functions):
    """``file:line: name`` of every numpy call in the named functions, per module
    file; a name ``Class.method`` is a method.  Every name must exist."""
    found = []
    for module, names in functions.items():
        tree = ast.parse((ROOT / "src" / "cheegerlab" / module).read_text(encoding="utf-8"))
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        funcs.update((f"{cls.name}.{node.name}", node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for node in cls.body if isinstance(node, ast.FunctionDef))
        assert set(names) <= funcs.keys(), set(names) - funcs.keys()
        found += [f"{module}:{node.lineno}: {name}" for name in names for node in ast.walk(funcs[name])
                  if isinstance(node, ast.Call) and _numpy_root(node.func)]
    return found


def test_chain_sampler_makes_no_numpy_call():
    # the sampler and the pocket outline are plain float arithmetic; a numpy
    # call there would be a copy of numpy's rounding, which is no rule of the chains
    found = _numpy_calls({"chamber_lemmas.py": ("_try_chain", "_step", "pocket_outline"),
                          "arc_geometry.py": ("_circle_intersections",)})
    assert not found, "numpy calls in the float chain sampler:\n" + "\n".join(found)


def test_cluster_checks_make_no_numpy_call():
    # containment, disjointness and the shared-arc matching are closed forms
    # on each pair of edge rows, in plain floats, like the sampler
    found = _numpy_calls({
        "cluster.py": ("Cluster._check_containment", "Cluster._check_disjointness", "_meet",
                       "_box_pairs", "_holds", "_corners", "_cell_overlap", "_shared_arcs",
                       "_edges_coincide"),
        "arc_geometry.py": ("_edge_support", "_edge_box", "_arc_overlap", "_circle_intersections",
                            "_edge_crossing", "locate_on_edge", "winding_number", "_scalar_turn",
                            "edge_point"),
        "cheeger.py": ("_tangent",),
    })
    assert not found, "numpy calls in the cluster checks:\n" + "\n".join(found)


def test_a_cluster_is_its_container_and_cells():
    # the canonical graph is read off the cells and the empty-chamber bound
    # is only reported: Cluster takes no hand-written graph and no optimality
    # claim, and no package module names them or their row reader
    tree = ast.parse((ROOT / "src" / "cheegerlab" / "cluster.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Cluster"]
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["container", "cells", "container_area"]
    retired = re.compile(r"\b(Adjacency|BorderContact|border_contacts|claimed_optimal|_index_rows)\b")
    found = [f"{path.relative_to(ROOT)}:{line}: {m.group(0)}"
             for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
             for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for m in retired.finditer(text)]
    assert not found, "retired cluster inputs named in the package:\n" + "\n".join(found)


def _init_false(value) -> bool:
    # the default of a field(..., init=False, ...) declaration
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in value.keywords))


def _overwritten_init_fields(cls: ast.ClassDef):
    """Fields that ``__post_init__`` sets through ``object.__setattr__``
    before any read of them, although the class takes them as arguments."""
    fields = {node.target.id: node.value for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    for post in cls.body:
        if not (isinstance(post, ast.FunctionDef) and post.name == "__post_init__"):
            continue
        reads = [(node.lineno, node.col_offset, node.attr) for node in ast.walk(post)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and isinstance(node.value, ast.Name) and node.value.id == "self"]
        for call in ast.walk(post):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__setattr__" and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "object" and isinstance(call.args[1], ast.Constant)):
                continue
            name = call.args[1].value
            end = (call.end_lineno, call.end_col_offset)
            read_first = any(attr == name and (line, col) < end for line, col, attr in reads)
            if name in fields and not read_first and not _init_false(fields[name]):
                yield cls.lineno, f"{cls.name}.{name}"


def test_post_init_overwrites_no_argument():
    # a field that __post_init__ computes without reading it ignores whatever
    # a caller passes, so it must be field(init=False) and not an argument
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "cheegerlab").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for line, name in _overwritten_init_fields(cls)
    ]
    assert not found, "fields __post_init__ overwrites unread:\n" + "\n".join(found)
