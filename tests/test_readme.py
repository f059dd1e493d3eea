"""The README's code stays runnable, and its CLI section names the flags and report keys the CLI has."""

import argparse
import json
import re
from pathlib import Path

from thetaquartic.cli import build_parser, main

README = Path(__file__).parent.parent / "README.md"
TAU = Path(__file__).parent / "data" / "tau_seed3.json"


def test_readme_library_recipe():
    # the python block under "Library entry points" runs as printed; its last line asserts 28/28
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_flags_match_parser():
    # the --flags of the "CLI" section's sh block and of its code spans that begin with -- are
    # exactly those the subcommands declare; prose may name another program's options
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    usage = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    spans = re.findall(r"`(--[^`]*)`", re.sub(r"```.*?```", "", section, flags=re.S))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join([usage, *spans])))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert named == declared - {"-h", "--help"}


def test_readme_output_keys_match_commands(capsys):
    # each "`command` prints" block under "Output format" gives that command's top-level keys, in order
    section = README.read_text().split("### Output format", 1)[1].split("\n## ", 1)[0]
    blocks = dict(re.findall(r"`([a-z]+)` prints.*?```json\n(.*?)```", section, re.S))
    assert sorted(blocks) == ["bitangents", "quartic", "verify"]
    for command, block in blocks.items():
        assert main([command, "--tau", str(TAU)]) == 0
        printed = list(json.loads(capsys.readouterr().out))
        assert re.findall(r'^  "([a-z]+)":', block, re.M) == printed, command
