"""README stays in step with the package: entry points, methods and CLI flags."""

import argparse
import re
from pathlib import Path

import anchorsched as asd
from anchorsched import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_entry_points_resolve():
    start = README.index("Lower-level entry points:")
    paragraph = README[start : README.index("\n\n", start)]
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) >= 10
    missing = [n for n in names if n not in asd.__all__ or not hasattr(asd, n)]
    assert not missing


def _subparser_flags() -> set[str]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        opt
        for p in sub.choices.values()
        for action in p._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }


def test_readme_flags_match_the_cli():
    lines = [line for line in README.splitlines() if "pip install" not in line]
    named = set(re.findall(r"(?<![\w-])(--[a-z][a-z-]*)", "\n".join(lines)))
    flags = _subparser_flags()
    assert named - flags == set(), "README names flags no subcommand accepts"
    assert flags - named == set(), "subcommand flags README does not name"


def test_readme_methods_match_the_package():
    start = README.index("## Solve methods")
    table = README[start : README.index("\n\n", README.index("| method", start))]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = tuple(re.match(r"\| `(\w+)`", line).group(1) for line in rows)
    assert names == asd.METHODS
