"""Library code has a caller outside the tests.

Every module-level function, class and constant of src/fabricprune, and
every method of its classes, is read somewhere in src/ or perfbench/ beyond
its own definition, or exported from the package's __init__.py as public
API. Code that only tests call belongs in the tests (tests/oracles.py).

No module takes an underscore name from a sibling module: what another
module needs is public.
"""

import argparse
import ast
import re
import shlex
from collections import Counter
from dataclasses import fields
from pathlib import Path

from fabricprune import cli, runner

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fabricprune"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree):
    """Every name the tree reads: bare names and attribute names. Import
    statements and assignment targets are not reads."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names[node.attr] += 1
    return names


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name,
    and of each method, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _exported(init_tree):
    return {alias.asname or alias.name for node in init_tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreferenced_library_names():
    trees = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    readers = list(trees.values()) + [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    reads = sum((_read_names(tree) for tree in readers), Counter())
    public = _exported(trees[PACKAGE / "__init__.py"])
    found = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if reads[name] - _read_names(node)[name] <= 0:
                found.append(f"{path.stem}.{name}")
    return found


def test_every_library_name_has_a_caller_outside_the_tests():
    assert unreferenced_library_names() == []


def private_cross_module_imports():
    """(module, name) of each underscore name a package module takes from a
    sibling: imported by a relative or a fabricprune import, or read as an
    attribute of a sibling module it imported."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree, siblings = _parse(path), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("fabricprune")):
                found += [(path.stem, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
                siblings |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                siblings |= {alias.asname or alias.name for alias in node.names
                             if alias.name.startswith("fabricprune")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.startswith("__") \
                    and isinstance(node.value, ast.Name) and node.value.id in siblings:
                found.append((path.stem, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_cross_module_imports() == []


def test_readme_names_every_config_rule():
    # each field ExperimentConfig.check holds to a rule, as `dotted.field`
    readme = (ROOT / "README.md").read_text()
    assert [name for name in runner._RULES if f"`{name}`" not in readme] == []


def subcommands(parser):
    """The parser's command name -> subparser map."""
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_readme_flag_table_names_the_commands_that_take_each_flag():
    # a command with --config takes an override flag exactly where README says;
    # export-dot's --out, its DOT file, is no override
    taking = {flag: sorted(name for name, parser in subcommands(cli.build_parser()).items()
                           if {"--config", f"--{flag}"} <= set(parser._option_string_actions))
              for flag in cli.OVERRIDES}
    rows = re.findall(r"^\| `--([a-z]+)[^|]*\|[^|]*\|(.*)\|$",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    listed = {flag: sorted(re.findall(r"`([a-z-]+)`", cell)) for flag, cell in rows}
    assert listed == taking


def test_every_config_field_has_a_rule():
    # out_dir, a deployment path, is the one leaf field with no rule
    def leaves(cls, path):
        for f in fields(cls):
            dotted = f"{path}.{f.name}".lstrip(".")
            yield from (leaves(runner._SECTIONS[dotted], dotted) if dotted in runner._SECTIONS
                        else [dotted])
    assert set(runner._RULES) == set(leaves(runner.ExperimentConfig, "")) - {"out_dir"}


def readme_commands():
    """Each `fabricprune ...` line of README's sh blocks, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fabricprune ")]


def test_readme_command_examples_parse():
    # each command has an example, and every example is one the CLI accepts
    parser = cli.build_parser()
    examples = readme_commands()
    assert sorted({argv[0] for argv in examples}) == sorted(subcommands(parser))
    for argv in examples:
        parser.parse_args(argv)
