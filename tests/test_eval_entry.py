"""Numeric reads in `exform` go through `expr.evaluate_pack`.

Each module of the package is read with `ast`.  The kernel evaluators
`_kernels.eval_pack` and `_kernels.eval_tape` may be named only in `expr`,
which builds `evaluate_pack` and its one-expression cases on them, and in
the one function that needs the kernels' raw (values, error codes) instead
of a raise: `forms._integrals`, which reads a failed cell integral as NaN.
Any other numeric read goes through `ex.evaluate_pack` or its masked form
`ex.evaluate_masked`, so it follows one error rule.
"""

import ast
import pathlib

import pytest

import exform

EVALUATORS = {"eval_pack", "eval_tape"}
# module -> the top-level functions that may name an evaluator; None: any
ALLOWED = {
    "expr": None,
    "forms": {"_integrals"},
}
PACKAGE = pathlib.Path(exform.__file__).resolve().parent


def _owners(tree):
    """(name, node) of each top-level statement; a class gives its methods
    as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def _evaluator_owners(path):
    """The owners that name an evaluator, as `_kernels.<name>` or in a
    `from ._kernels import`."""
    owners = set()
    for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"))):
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr in EVALUATORS
                    and isinstance(sub.value, ast.Name) and sub.value.id == "_kernels"):
                owners.add(owner)
            elif (isinstance(sub, ast.ImportFrom) and (sub.module or "").endswith("_kernels")
                    and EVALUATORS & {a.name for a in sub.names}):
                owners.add(owner)
    return owners


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "_kernels"),
                         ids=lambda p: p.stem)
def test_kernel_evaluators_are_named_only_where_allowed(path):
    allowed = ALLOWED.get(path.stem, set())
    owners = _evaluator_owners(path)
    if allowed is None:
        assert owners, f"{path.stem} no longer names a kernel evaluator"
        return
    assert owners <= allowed, (
        f"{path.stem}: {sorted(owners - allowed)} should read through ex.evaluate_pack")
    assert owners == allowed, f"{path.stem}: stale allowance {sorted(allowed - owners)}"
