"""Checks on the package source itself, read as syntax trees."""

import ast
from collections import Counter
from pathlib import Path

import chromatic_schur

ROOT = Path(__file__).resolve().parents[1]
# the classes whose public methods are checked, beside every public
# module-level function
CHECKED_CLASSES = frozenset({"LabeledGraph", "CoefficientVector", "VerificationReport"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.AST) -> Counter:
    """Every name the code under ``tree`` reads: ``ast.Name`` ids,
    ``ast.Attribute`` attributes and import aliases.  Strings, docstrings
    among them, are not names."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
            if node.asname:
                names[node.asname] += 1
    return names


def _public_defs(tree: ast.Module):
    """The public module-level functions of ``tree`` and the public methods
    of its checked classes, each as ``(qualified name, def node)``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in CHECKED_CLASSES:
            members = [(f"{node.name}.", member) for member in node.body]
        else:
            members = [("", node)]
        for prefix, member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield prefix + member.name, member


def test_no_public_function_or_method_is_called_only_by_tests():
    """Every public function of ``src/chromatic_schur`` and every public
    method of ``LabeledGraph``, ``CoefficientVector`` and
    ``VerificationReport`` is exported in ``chromatic_schur.__all__``, or
    read by name in the package's code outside its own ``def``, or read by
    name in the benchmark's code under ``perfbench/`` (its tests aside).

    The check goes by name alone, so a name that another definition shares
    can hide a dead one: ``CoefficientVector.degree`` is called, and would
    keep a ``LabeledGraph.degree`` that only tests call.  It is a tripwire,
    not a proof.
    """
    trees = {path.name: _parse(path) for path in sorted((ROOT / "src" / "chromatic_schur").glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    in_bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            in_bench.update(_names(_parse(path)))
    exported = set(chromatic_schur.__all__)
    unread = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, node in _public_defs(tree)
        if node.name not in exported
        and in_src[node.name] <= _names(node)[node.name]
        and node.name not in in_bench
    ]
    assert not unread, f"public code that only tests call: {unread}"
