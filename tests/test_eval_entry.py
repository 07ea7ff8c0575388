"""Numeric reads in `exform` go through `expr.evaluate_pack`.

Each module of the package is read with `ast`.  The kernel entries
`_kernels.eval_pack`, `_kernels.eval_tape` and `_kernels.rk4` may be named
only in `expr`, which builds `evaluate_pack`, its one-expression cases and
`rk4` on them, and in the one function that needs the kernels' raw (values,
error codes) instead of a raise: `forms._integrals`, which reads a failed
cell integral as NaN.  Any other numeric read goes through `ex.evaluate_pack`,
its masked form `ex.evaluate_masked` or `ex.rk4`, so it follows one error rule.

And the tape layer is reached through `expr`: the compilers
`tape.pack_exprs` and `tape.compile_expr` and the tape cache `expr._tape_for`
may be named only in `expr` (and in `tape`, which defines them) and, for
`pack_exprs`, in `forms._integrals`.  `_integrals` keeps that direct,
uncached path on measurement: routed through `_tape_for`, each cell's pack of
maps and minors is used once but stays alive in the cache, and `verdicts`
peak RSS went 45.8 → 49.9 MiB in 4 of 4 alternating 10 s pairs while op/s
fell 1-4% (2-core x86 host, Python 3.11, numpy 2.4).

Likewise every zero verdict reads one sampled residual: the sampler
`expr.sampled_abs_max` may be named only in `expr` and in
`forms.form_residual`, the max over a form's coefficients that the form
verdicts and the CLI read.

And the error rule has one home: `_kernels._CHECK`, the may-fail operations
and their tests, is named only in `_kernels`, whose interpreter decides
which operations to check and carries their codes through the program, so
the compiler and any program transform need no check lists of their own.

And an expression is derived one way: the raw node classes `Binary`, `Unary`
and `Power` are named only in `expr`, whose operators and helpers apply the
simplification rules as they build, and in `tape.pack_exprs`, which reads
them to dispatch on a node's kind.  Any other module derives an expression
with the operators, so it never builds a raw tree to simplify in a second
walk.

And a node, once built, does not change: its fields (`chart`, `value`,
`axis`, `op`, `left`, `right`, `base`, `exponent`, `fn`, `arg`) are plain
slots, assigned in `expr` only in the `__init__` of the node classes that
have them.  These names are generic, so other modules, whose objects may
carry the same names, are not read for them; those modules cannot name the
inner node classes anyway (above).  The two caches are slots too, and their
names are the nodes' own: in every module, the simplified mark `_simple` may
be set only in the node classes' `__init__` and the constructors `_bin`,
`_pow` and `_un`, and the derivative memo `_partials` only there and in
`partial`.  Nothing else assigns or deletes them, directly or through
`setattr`/`object.__setattr__`.
"""

import ast
import pathlib

import pytest

import exform

EVALUATORS = {"eval_pack", "eval_tape", "rk4"}
# module -> the top-level functions that may name an evaluator; None: any
ALLOWED = {
    "expr": None,
    "forms": {"_integrals"},
}
TAPE_NAMES = ("pack_exprs", "compile_expr", "_tape_for")
# (module, tape name) -> the top-level functions that may name it, beside expr
TAPE_ALLOWED = {("forms", "pack_exprs"): {"_integrals"}}
SAMPLER = "sampled_abs_max"
SAMPLER_ALLOWED = {
    "expr": None,
    "forms": {"form_residual"},
}
ERROR_RULE = "_CHECK"
NODE_CLASSES = ("Binary", "Unary", "Power")
NODE_ALLOWED = {
    "expr": None,
    "tape": {"pack_exprs"},
}
# node class -> its fields
NODE_FIELDS = {
    "Const": ("chart", "value"),
    "Coord": ("chart", "axis"),
    "Binary": ("chart", "op", "left", "right"),
    "Power": ("chart", "base", "exponent"),
    "Unary": ("chart", "fn", "arg"),
}
NODE_INITS = {f"{cls}.__init__" for cls in NODE_FIELDS}
# node cache -> the functions besides the node classes' __init__ that set it
NODE_CACHES = {"_simple": {"_bin", "_pow", "_un"}, "_partials": {"partial"}}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}
PACKAGE = pathlib.Path(exform.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def _name_owners(path, name):
    """The owners that name `name`, bare, as an attribute or in an import."""
    owners = set()
    for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"))):
        for sub in ast.walk(node):
            if ((isinstance(sub, ast.Attribute) and sub.attr == name)
                    or (isinstance(sub, ast.Name) and sub.id == name)
                    or (isinstance(sub, ast.ImportFrom)
                        and name in {a.name for a in sub.names})):
                owners.add(owner)
    return owners


def _store_owners(path, name):
    """The owners that assign or delete an attribute `name`: as a target, or
    through a setter call that names it as a string."""
    owners = set()
    for owner, node in _owners(ast.parse(path.read_text(encoding="utf-8"))):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == name:
                if isinstance(sub.ctx, (ast.Store, ast.Del)):
                    owners.add(owner)
            elif (isinstance(sub, ast.Call) and len(sub.args) >= 2
                    and getattr(sub.func, "id", getattr(sub.func, "attr", None)) in SETTERS
                    and isinstance(sub.args[1], ast.Constant) and sub.args[1].value == name):
                owners.add(owner)
    return owners


def _check_owners(stem, owners, allowed, what, instead):
    if allowed is None:
        assert owners, f"{stem} no longer names {what}"
        return
    assert owners <= allowed, f"{stem}: {sorted(owners - allowed)} should {instead}"
    assert owners == allowed, f"{stem}: stale allowance {sorted(allowed - owners)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "_kernels"],
                         ids=lambda p: p.stem)
def test_kernel_evaluators_are_named_only_where_allowed(path):
    _check_owners(path.stem, _evaluator_owners(path), ALLOWED.get(path.stem, set()),
                  "a kernel evaluator", "read through ex.evaluate_pack")


@pytest.mark.parametrize("name", TAPE_NAMES)
@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in ("expr", "tape")],
                         ids=lambda p: p.stem)
def test_tape_layer_is_named_only_where_allowed(path, name):
    _check_owners(path.stem, _name_owners(path, name), TAPE_ALLOWED.get((path.stem, name), set()),
                  f"the tape name {name}", "evaluate through expr")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_sampler_is_named_only_where_allowed(path):
    _check_owners(path.stem, _name_owners(path, SAMPLER), SAMPLER_ALLOWED.get(path.stem, set()),
                  "the sampler", "read forms.form_residual or ex.probably_zero")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_error_rule_is_named_only_in_kernels(path):
    _check_owners(path.stem, _name_owners(path, ERROR_RULE),
                  None if path.stem == "_kernels" else set(),
                  "the error rule", "leave error codes to the kernels")


@pytest.mark.parametrize("name", NODE_CLASSES)
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_raw_nodes_are_named_only_where_allowed(path, name):
    _check_owners(path.stem, _name_owners(path, name), NODE_ALLOWED.get(path.stem, set()),
                  f"the node class {name}", "derive expressions with the operators")


def _node_store_allowed(stem, name):
    if stem != "expr":
        return set()
    if name in NODE_CACHES:
        return NODE_INITS | NODE_CACHES[name]
    return {f"{cls}.__init__" for cls, fields in NODE_FIELDS.items() if name in fields}


# the field names are generic, so they are checked in `expr`, where the node
# classes live; the cache names are the nodes' own, so they are checked in
# every module
@pytest.mark.parametrize("path, name",
                         [(p, name) for p in MODULES
                          for name in sorted({f for fs in NODE_FIELDS.values() for f in fs}
                                             | set(NODE_CACHES))
                          if p.stem == "expr" or name in NODE_CACHES],
                         ids=lambda v: getattr(v, "stem", v))
def test_node_slots_are_assigned_only_where_allowed(path, name):
    _check_owners(path.stem, _store_owners(path, name), _node_store_allowed(path.stem, name),
                  f"the node slot {name}", "leave a built node as it is")
