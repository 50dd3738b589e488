"""tools/cli_identity.py: its command list and its report."""

import importlib.util
from pathlib import Path

from ncfree import cli

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cli_identity", _ROOT / "tools" / "cli_identity.py")
cli_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_identity)


def test_commands_cover_every_suite_and_family():
    assert set(cli_identity.SUITES) == set(cli.SUITES)
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    family = next(a for a in subcommands["enumerate"]._actions if a.dest == "family")
    assert set(cli_identity.FAMILIES) == set(family.choices)
    commands = cli_identity.commands()
    assert len(commands) == 2 * len(cli.SUITES) + 1 + 2 * (len(family.choices) - 1)
    assert len({tuple(c) for c in commands}) == len(commands)


def test_differences_name_each_part_and_its_first_line():
    same = (0, "a\nb\n", "")
    assert cli_identity.differences(same, same) == []
    assert cli_identity.differences(same, (1, "a\nc\n", "warn\n")) == [
        "exit code 0 vs 1",
        "stdout differs at line 2: 'b' vs 'c'",
        "stderr differs at line 1: '<end>' vs 'warn'",
    ]
    assert cli_identity.differences(same, (0, "a\nb\nz\n", "")) == [
        "stdout differs at line 3: '<end>' vs 'z'"]


def test_main_runs_both_checkouts_and_exits_1_on_a_difference(monkeypatch, capsys):
    monkeypatch.setattr(cli_identity, "commands",
                        lambda: [["enumerate", "--family", "nc", "--n", "3"]])
    assert cli_identity.main(["--parent", str(_ROOT), "--change", str(_ROOT)]) == 0
    assert capsys.readouterr().out == "0 of 1 commands differ\n"
    code, out, err = cli_identity.run(str(_ROOT), ["enumerate", "--family", "nc", "--n", "3"])
    assert code == 0 and len(out.splitlines()) == 1 + 5 and err == "count=5 closed_form=5\n"

    monkeypatch.setattr(cli_identity, "run",
                        lambda root, argv: (0, root, "") if root.endswith("b") else (0, "", ""))
    assert cli_identity.main(["--parent", "/a", "--change", "/b"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ncfree enumerate --family nc --n 3: stdout differs at line 1: '<end>' vs '/b'",
        "1 of 1 commands differ",
    ]
