"""Every public library function and class is reached by the package or
the acceptance battery, and every private function and method by the
package, not only by its own unit tests; and no package module reads or
sets the environment, so the package has no runtime knob."""

import ast
import collections
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "klab")
ACCEPTANCE = os.path.join(os.path.dirname(__file__), "test_acceptance.py")
# the [project.scripts] entry point
ENTRY_POINTS = {"cli.main"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _definitions(tree):
    """(qualified name, node) of the module-level functions and classes
    and the methods of a module; special methods such as __init__, which
    Python calls by itself, are left out."""
    for node in tree.body:
        items = [("", node)]
        if isinstance(node, ast.ClassDef):
            items += [(f"{node.name}.", item) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        for prefix, item in items:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not item.name.startswith("__")):
                yield prefix + item.name, item


def _references(tree) -> collections.Counter:
    """How often each name is used as a Name or an Attribute; a
    docstring mention is a string constant and does not count."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def unreached_definitions() -> list:
    """module.name of each public function, method or class that no
    package module and no acceptance test refers to, and of each private
    one that no package module refers to, its own definition aside."""
    trees = {name[:-3]: _parse(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    in_src = sum((_references(t) for t in trees.values()),
                 collections.Counter())
    acceptance = _references(_parse(ACCEPTANCE))
    missing = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            label = f"{module}.{qualname}"
            if label in ENTRY_POINTS or (not node.name.startswith("_")
                                         and acceptance[node.name]):
                continue
            if in_src[node.name] > _references(node)[node.name]:
                continue
            missing.append(label)
    return missing


def test_every_public_function_is_reached():
    assert unreached_definitions() == []


ENVIRONMENT = {"environ", "getenv", "putenv"}


def test_package_reads_no_environment():
    """No os.environ, os.getenv or os.putenv, as an attribute or as a
    name imported from os, in any package module."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_parse(os.path.join(SRC, name))):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
                found.append(f"{name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.alias) and node.name in ENVIRONMENT:
                found.append(f"{name} imports {node.name}")
    assert found == []
