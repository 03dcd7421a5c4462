"""Every top-level function, class and method of `src/realcubic` has a
caller in the program: a Name or Attribute node that refers to it, in
`src/` or `scripts/`, outside its own definition.  Code that only the
tests need lives in the `tests/*_reference.py` modules."""

import ast
import importlib
from pathlib import Path

import realcubic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realcubic"

# kept without a caller, with the reason
ALLOWED = {
    "WallGraph.wall_between": "the wall-crossing corpus planned in "
                              "ROADMAP.md looks up the wall between two "
                              "classes",
}


def _names(tree, skip) -> set:
    """What the Name and Attribute nodes of `tree` refer to, outside the
    subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            out.add(getattr(node, "id", None) or getattr(node, "attr", None))
            stack.extend(ast.iter_child_nodes(node))
    return out


def _exempt(module: str, qual: str) -> bool:
    """Public names, dunders, the allowlist, and methods that override
    one of a base class, which calls them."""
    cls, _, name = qual.rpartition(".")
    if (name in realcubic.__all__ or qual in ALLOWED
            or name.startswith("__") and name.endswith("__")):
        return True
    if not cls:
        return False
    owner = getattr(importlib.import_module(f"realcubic.{module}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:])


def test_every_definition_in_src_has_a_caller_in_the_program():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    names = {path: _names(tree, None) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        defs = [(n.name, n) for n in body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{c.name}.{n.name}", n) for c in body
                 if isinstance(c, ast.ClassDef) for n in c.body
                 if isinstance(n, ast.FunctionDef)]
        for qual, node in defs:
            elsewhere = any(node.name in names[p] for p in files if p != path)
            if not (_exempt(path.stem, qual) or elsewhere
                    or node.name in _names(trees[path], node)):
                unused.append(f"{path.stem}.{qual}")
    assert unused == [], "\n".join(unused)
