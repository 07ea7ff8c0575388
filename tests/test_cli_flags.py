"""Each `exform` subcommand takes exactly the flags its handler reads.

The parser is checked against a declared table, and `cli.py` itself is read
with `ast`: the `args.<name>` reads of every handler (and of the helpers it
hands `args` to) must be the flags its subcommand declares.  A flag that no
handler reads, or a read of a flag that was never declared, fails here.
"""

import argparse
import ast
import inspect

import pytest

from exform import cli

# subcommand -> its input files and the flags it takes besides --seed and --out
DECLARED = {
    "form d": ("--in",),
    "form wedge": ("--a", "--b"),
    "form commutator": ("--in",),
    "form closure": ("--in", "--trials", "--tol", "--assert-closed"),
    "form star": ("--in",),
    "form cr": ("--in", "--trials", "--tol"),
    "form harmonic": ("--in", "--trials", "--tol"),
    "form stokes": ("--form", "--cell", "--quad-order"),
    "form antiderivative": ("--in", "--trials", "--tol", "--base", "--at"),
    "geom torsion": ("--in",),
    "geom curvature": ("--in",),
    "geom evcommutator": ("--omega", "--gamma"),
    "geom relation": ("--psi", "--omega", "--trials", "--tol"),
    "geom bistructure": ("--in",),
    "pde charpit": ("--in", "--steps", "--format"),
    "pde hj": ("--in", "--steps", "--format"),
    "pde caustics": ("--in", "--steps"),
    "pde classify": ("--in", "--tol"),
    "pde bracket": ("--in",),
}
# the seven flags every subcommand once took
SHARED = ("--seed", "--out", "--trials", "--tol", "--quad-order", "--steps", "--format")


def _choices(parser):
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _subcommands() -> dict:
    return {f"{group} {name}": sub
            for group, group_parser in _choices(cli.build_parser()).items()
            for name, sub in _choices(group_parser).items()}


def _options(parser) -> set:
    return {flag for action in parser._actions for flag in action.option_strings}


def test_every_subcommand_is_declared():
    assert sorted(_subcommands()) == sorted(DECLARED)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_options_are_the_declared_set(name):
    expected = {"-h", "--help", "--seed", "--out", *DECLARED[name]}
    assert _options(_subcommands()[name]) == expected


def test_flag_slots():
    """Of the seven once-shared flags, 55 slots are left of 19 x 7 = 133."""
    slots = sum(len(_options(p) & set(SHARED)) for p in _subcommands().values())
    assert slots == 55


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_undeclared_flags_rejected(name, tmp_path, capsys):
    parser = _subcommands()[name]
    required = [part for action in parser._actions if action.required
                for part in (action.option_strings[0], "x")]
    out = tmp_path / "out"
    undeclared = [flag for flag in SHARED[2:] if flag not in DECLARED[name]]
    for flag in undeclared:
        with pytest.raises(SystemExit) as exit_:
            cli.main(name.split() + required + [flag, "1", "--out", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["form", "antiderivative", "--in", "form_exact_pair.json", "--base", "0,0",
     "--quad-order", "64"],
    ["form", "d", "--in", "form_curl_input.json", "--trials", "5"],
])
def test_unread_flag_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _functions() -> dict:
    tree = ast.parse(inspect.getsource(cli))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _is_args(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "args"


def _reads(functions: dict, name: str) -> set:
    """The args attributes function `name` reads, as `args.<name>` or
    getattr(args, "<name>"), following each call that passes `args` on."""
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and _is_args(node.value):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if (node.func.id == "getattr" and _is_args(node.args[0])
                    and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
            elif node.func.id in functions and any(map(_is_args, node.args)):
                reads |= _reads(functions, node.func.id)
    return reads


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_handler_reads_what_it_declares(name):
    parser = _subcommands()[name]
    declared = {action.dest for action in parser._actions} - {"help"}
    reads = _reads(_functions(), parser.get_default("handler").__name__)
    assert reads <= declared, f"{name} reads undeclared {sorted(reads - declared)}"
    # --seed is resolved for every subcommand; only it may go unread
    unread = declared - reads - {"seed"}
    assert not unread, f"{name} never reads {sorted(unread)}"
