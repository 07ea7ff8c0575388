"""Every CLI fixture command pinned: exit code, stdout and artifact digests.

The expected values live in `golden_artifacts.json`.  Symbolic or numeric
changes that are meant to leave results alone must keep every command's
stdout and every artifact byte-identical.  To regenerate the file after a
change that is meant to alter results, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It prints each command key it added, removed or changed against the file it
overwrites, with the changed fields, so a change can name what moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from exform import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_artifacts.json"
SEED = "42"

F = str(FIXTURES) + "/"
# (argv, expected exit code): one command per committed fixture
COMMANDS = [
    (["geom", "bistructure", "--in", F + "bistructure_event.json"], 0),
    (["pde", "bracket", "--in", F + "bracket_momentum.json"], 0),
    (["pde", "bracket", "--in", F + "bracket_self.json"], 0),
    (["form", "stokes", "--form", F + "form_unclosed.json",
      "--cell", F + "cell_unit_square.json"], 0),
    (["pde", "classify", "--in", F + "classify_field.json"], 0),
    (["geom", "curvature", "--in", F + "conn_symmetric.json"], 0),
    (["geom", "torsion", "--in", F + "conn_torsion.json"], 0),
    (["form", "cr", "--in", F + "cr_pair.json"], 0),
    (["form", "d", "--in", F + "form_curl_input.json"], 0),
    (["form", "d", "--in", F + "form_div_input.json"], 0),
    (["form", "wedge", "--a", F + "form_curl_input.json", "--b", F + "form_dx3.json"], 0),
    (["form", "closure", "--in", F + "form_exact_pair.json"], 0),
    (["form", "d", "--in", F + "form_gradient_input.json"], 0),
    (["form", "closure", "--in", F + "form_unclosed.json", "--assert-closed"], 1),
    (["geom", "relation", "--psi", F + "form_zero_psi.json",
      "--omega", F + "form_unclosed.json"], 0),
    (["form", "harmonic", "--in", F + "scalar_harmonic.json"], 0),
    (["form", "harmonic", "--in", F + "scalar_nonharmonic.json"], 0),
    (["pde", "caustics", "--in", F + "hj_focusing.json"], 0),
    (["pde", "hj", "--in", F + "hj_free_particle.json"], 0),
    (["pde", "charpit", "--in", F + "pde_eikonal.json"], 0),
    # the JSON strip format, on the two commands that write strips
    (["pde", "hj", "--in", F + "hj_free_particle.json", "--format", "json"], 0),
    (["pde", "charpit", "--in", F + "pde_eikonal.json", "--format", "json"], 0),
    # the subcommands and flags not run above
    (["form", "star", "--in", F + "form_exact_pair.json"], 0),
    (["form", "commutator", "--in", F + "form_curl_input.json"], 0),
    (["form", "antiderivative", "--in", F + "form_exact_pair.json",
      "--base", "0,0", "--at", "0.5,0.4"], 0),
    (["form", "antiderivative", "--in", F + "form_exact_pair.json", "--base", "0,0"], 0),
    (["geom", "evcommutator", "--omega", F + "form_exact_pair.json",
      "--gamma", F + "conn_torsion.json"], 0),
]


def command_key(argv) -> str:
    """Fixture-relative name of a command, stable across checkouts."""
    return " ".join(arg.replace(F, "") for arg in argv)


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run_command(argv, out_dir: pathlib.Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv) + ["--seed", SEED, "--out", str(out_dir)])
    artifacts = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            artifacts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"code": code, "stdout": stdout.getvalue(), "artifacts": artifacts}


@pytest.mark.parametrize("argv, expect_code", COMMANDS,
                         ids=[command_key(argv) for argv, _ in COMMANDS])
def test_command_matches_golden(argv, expect_code, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[command_key(argv)]
    got = run_command(argv, tmp_path / "out")
    assert got["code"] == expect_code == golden["code"]
    assert got["stdout"] == golden["stdout"]
    assert got["artifacts"] == golden["artifacts"]
    # every JSON artifact, and each line of a JSON-lines log, is strict JSON
    for path in (tmp_path / "out").glob("*.json*"):
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=reject_constant)


def table_changes(old: dict, new: dict) -> list[str]:
    """One line per command key added, removed or changed from old to new;
    a changed key lists its changed fields (code, stdout, artifact names)."""
    lines = [f"added: {key}" for key in sorted(new.keys() - old.keys())]
    lines += [f"removed: {key}" for key in sorted(old.keys() - new.keys())]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        fields = [f for f in ("code", "stdout") if a[f] != b[f]]
        fields += sorted(name for name in a["artifacts"].keys() | b["artifacts"].keys()
                         if a["artifacts"].get(name) != b["artifacts"].get(name))
        if fields:
            lines.append(f"changed: {key} ({', '.join(fields)})")
    return lines


def test_table_changes_names_each_moved_key():
    row = {"code": 0, "stdout": "x\n", "artifacts": {"a.json": "1", "b.json": "2"}}
    moved = {**row, "stdout": "y\n", "artifacts": {"a.json": "1", "b.json": "3"}}
    old = {"kept": row, "moved": row, "gone": row}
    new = {"kept": row, "moved": moved, "new": row}
    assert table_changes(old, new) == [
        "added: new", "removed: gone", "changed: moved (stdout, b.json)"]


def test_golden_covers_every_fixture():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(command_key(argv) for argv, _ in COMMANDS)
    used = {pathlib.Path(arg).name for argv, _ in COMMANDS for arg in argv
            if arg.startswith(F)}
    assert used == {path.name for path in FIXTURES.glob("*.json")}


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = {command_key(argv): run_command(argv, pathlib.Path(tmp) / f"out{k}")
                 for k, (argv, _) in enumerate(COMMANDS)}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
    print("\n".join(table_changes(old, table)) or "no command changed")
