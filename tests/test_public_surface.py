"""Every name that szego_quad exports has a reader outside its own module.

A name is read when a program other than its defining module and the
package ``__init__`` names it: another module of the package, a demo, a
benchmark script or the acceptance battery.  It counts when that program
imports it from the package or reads it as an attribute of a package
module (``sq.moments``, ``mods["quadrature"].circle_zero_angles``); a string
such as a span name in ``bench/tracing.py`` does not count.  Two kinds of
names pass on other grounds: an error class must be raised by some module
of the package, and a type passes when an exported function returns it.
A name that only a test reads passes when that test uses it as its
reference; ``TEST_REFERENCES`` names the test, and the name must still
appear in it.
"""

import ast
import inspect
import pathlib

import szego_quad
from szego_quad.errors import SzegoQuadError

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ""  # the szego_quad namespace itself, as the module of a read

# name -> (test file, the function in it that compares against the name)
TEST_REFERENCES = {
    "accumulation_set": ("test_support.py", "per_anchor_estimate"),
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


MODULES = {
    p.stem: _parse(p) for p in sorted((ROOT / "src" / "szego_quad").glob("*.py"))
    if p.stem != "__init__"
}
OUTSIDE = [
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
EXPORTED = sorted(
    name for name, obj in vars(szego_quad).items()
    if not name.startswith("_") and not inspect.ismodule(obj)
)


def _module_of(node, bound):
    """The package module an expression denotes (PACKAGE for szego_quad), or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return node.slice.value if node.slice.value in MODULES else None
    return None


def names_read(tree):
    """(module, name) pairs a program imports from the package or reads off a
    package module; module is PACKAGE for the szego_quad namespace."""
    bound, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "szego_quad":
                    bound[a.asname or a.name] = parts[-1] if parts[1:] else PACKAGE
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level:
                mod = node.module or PACKAGE
            elif parts[0] == "szego_quad":
                mod = parts[-1] if parts[1:] else PACKAGE
            else:
                continue
            out.update((mod, a.name) for a in node.names)
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            mod = _module_of(node.value, bound)
            if mod is not None:
                out.add((mod, node.attr))
    return out


def _top_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_exported_name_has_a_reader():
    defined_in = {name: mod for mod, tree in MODULES.items() for name in _top_level(tree)}
    reads = {mod: names_read(tree) for mod, tree in MODULES.items()}
    reads.update((p.relative_to(ROOT).as_posix(), names_read(_parse(p))) for p in OUTSIDE)
    returned = set()
    for name in EXPORTED:
        obj = getattr(szego_quad, name)
        ann = obj.__annotations__.get("return") if inspect.isfunction(obj) else None
        if isinstance(ann, str):
            returned.update(n.id for n in ast.walk(ast.parse(ann)) if isinstance(n, ast.Name))
    raised = {
        n.func.id
        for mod, tree in MODULES.items()
        if mod != "errors"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }
    unread = []
    for name in EXPORTED:
        obj = getattr(szego_quad, name)
        module = getattr(obj, "__module__", None) or ""
        home = module.rsplit(".", 1)[-1] if module.startswith("szego_quad.") else defined_in[name]
        if isinstance(obj, type) and issubclass(obj, SzegoQuadError) and obj is not SzegoQuadError:
            ok = name in raised
        else:
            readers = [
                r for r, pairs in reads.items()
                if r != home and ((PACKAGE, name) in pairs or (home, name) in pairs)
            ]
            ok = bool(readers) or name in returned or name in TEST_REFERENCES
        if not ok:
            unread.append(name)
    assert not unread, f"exported names without a reader: {unread}"


def test_test_references_still_compare_against_their_name():
    for name, (file, func) in TEST_REFERENCES.items():
        assert name in EXPORTED
        [fn] = [
            n for n in _parse(ROOT / "tests" / file).body
            if isinstance(n, ast.FunctionDef) and n.name == func
        ]
        assert name in {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}, (name, func)
