"""Every package name the benchmark reaches exists.

``perfbench/layers.py`` and ``perfbench/workloads.py`` call into the
package through a namespace ``P`` of its modules and wrap functions by
name, so a renamed or deleted function breaks the benchmark, not the
package's own tests.  Both files are read here as source with ``ast``;
nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _chain(node):
    """The dotted names of an attribute chain, innermost first, or None
    when it does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *reversed(names)]
    return None


def _pairs(assign):
    """The (target, value) pairs of an assignment, tuples unpacked."""
    for target in assign.targets:
        if isinstance(target, ast.Tuple) and isinstance(assign.value, ast.Tuple):
            yield from zip(target.elts, assign.value.elts)
        else:
            yield target, assign.value


def reached_names(tree):
    """The package paths (module, attribute, ...) that a perfbench file
    reaches through ``P``, directly or through a local alias of a path
    (``flags = P.flags``), function by function."""
    reached = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {"P": ()}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target, value in _pairs(node):
                    chain = _chain(value)
                    if isinstance(target, ast.Name) and chain and chain[0] == "P":
                        aliases[target.id] = tuple(chain[1:])
        for node in ast.walk(fn):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in aliases:
                reached.add(aliases[chain[0]] + tuple(chain[1:]))
    return reached


def spans_table(tree):
    """The (module, function) pairs of the tracer's SPANS table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and _chain(node.targets[0]) == ["SPANS"]:
            return {(module, attr) for _, module, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/layers.py has no SPANS table")


def _parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as f:
        return ast.parse(f.read())


def test_every_package_name_the_benchmark_reaches_exists():
    layers, workloads = _parse("layers.py"), _parse("workloads.py")
    paths = spans_table(layers) | reached_names(layers) | reached_names(workloads)
    # the seams the tracer wraps and a sample of what the workloads call
    for path in [
        ("flags", "_count"),
        ("flags", "enumerate_subspaces"),
        ("verify", "_class_derivation"),
        ("linalg", "Matrix"),
        ("linalg", "rank"),
        ("linalg", "rref"),
        ("module", "restrict"),
        ("flags", "count_flags_fp"),
        ("flags", "fingerprint"),
        ("homext", "middle_term"),
        ("cli", "main"),
    ]:
        assert path in paths, path
    missing = []
    for path in sorted(paths):
        value = importlib.import_module(f"preproj.{path[0]}")
        for attr in path[1:]:
            if not hasattr(value, attr):
                missing.append(".".join(path))
                break
            value = getattr(value, attr)
    assert missing == []
