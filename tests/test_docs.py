"""The README's command synopsis, output schemas and public API list
against the code."""

import argparse
import re
import types
from pathlib import Path

import talentsched
from talentsched import SolveConfig, generate_instance, solve, testkit
from talentsched.cli import BENCH_FIELDS, SUMMARY_FIELDS, build_parser, result_to_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _code_blocks(heading: str) -> list[str]:
    return _section(heading).split("```\n")[1::2]


def _csv_schema(block: str) -> list[str]:
    return [f.strip() for f in block.replace("\n", "").split(",")]


def _synopsis() -> dict[str, set[str]]:
    """Flags per subcommand in the first code block under "Command line"."""
    block = _section("Command line").split("```\n", 2)[1]
    flags: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("talentsched "):
            command = line.split()[1]
            flags[command] = set()
        flags[command].update(re.findall(r"(?:^|[\s\[])(--?[a-z][\w-]*)", line))
    return flags


def test_synopsis_lists_exactly_the_parsers_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    documented = _synopsis()
    assert set(documented) == set(sub.choices)
    for name, command in sub.choices.items():
        options = [
            set(a.option_strings)
            for a in command._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        # each flag documented under one of its spellings, and nothing else
        assert all(len(spellings & documented[name]) == 1 for spellings in options), name
        assert documented[name] <= set().union(*options), name


def test_api_list_names_exactly_the_package_exports():
    text = _section("Library use").split("The public API", 1)[1].split("\n\n", 1)[1]
    text = text.split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", text)))
    exported = {
        name
        for name, value in vars(talentsched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported


def test_testkit_paragraph_names_exactly_the_modules_names():
    text = _section("Library use").split("`talentsched.testkit`", 1)[1]
    listed = set(re.findall(r"`(\w+)`", text.split("\n\n", 1)[0]))
    defined = {
        name
        for name, value in vars(testkit).items()
        if not name.startswith("_")
        and getattr(value, "__module__", testkit.__name__) == testkit.__name__
    }
    assert listed == defined


def test_bench_csv_schemas_name_exactly_the_written_columns():
    rows, summary = _code_blocks("Bench CSV")
    assert _csv_schema(rows) == BENCH_FIELDS
    assert _csv_schema(summary) == SUMMARY_FIELDS


def test_json_key_list_names_exactly_the_emitted_keys():
    (block,) = _code_blocks("JSON output")
    block = re.sub(r"\([^)]*\)", "", block)  # drop the remarks on values
    nested = {
        name: set(re.findall(r"\w+", keys))
        for name, keys in re.findall(r"(\w+) \{([^}]*)\}", block)
    }
    top = set(re.findall(r"\w+", re.sub(r"\{[^}]*\}", "", block)))
    inst = generate_instance(5, 3, seed=1)
    cfg = SolveConfig(cache_capacity=1 << 4)
    payload = result_to_json(inst, cfg, solve(inst, cfg), include_trace=True)
    assert top == set(payload)
    assert nested == {"cache": set(payload["cache"]), "config": set(payload["config"])}
