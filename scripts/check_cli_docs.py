#!/usr/bin/env python3
"""Checks that documented aptsim invocations use only flags their subcommand takes.

aptsim rejects an unknown or misplaced flag, so a wrong flag in a README
example or a CI step fails in a user's shell. This script catches it in
review instead. It scans the given files (default: README.md,
results/README.md and .github/workflows/ci.yml) for every
``aptsim <cmd> ...`` invocation and fails when a ``--flag`` there is not
listed by ``aptsim <cmd> --help``.

An invocation runs to the end of its line. A shell line ending in a
backslash continues on the next line, and so does an inline code span
(`aptsim ...`) whose closing backtick is on a later line. Words after
``aptsim`` that are not subcommands (prose such as "aptsim already...")
are skipped. The subcommands and their flags come from the binary's own
--help, which is generated from the same table as its parser.

Usage:
    check_cli_docs.py [--aptsim PATH] [--root DIR] [FILE ...]

Exit status: 0 clean, 1 unknown flags found, 2 usage error.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

DEFAULT_FILES = ("README.md", "results/README.md", ".github/workflows/ci.yml")
INVOCATION_RE = re.compile(r"(?<![\w-])aptsim\s+([\w-]+)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
HELP_ROW_RE = re.compile(r"^  (\S+)")


def run_help(aptsim, *args):
    """stdout of ``aptsim ARGS --help``."""
    done = subprocess.run(
        [aptsim, *args, "--help"], capture_output=True, text=True, check=True
    )
    return done.stdout


def subcommands(aptsim):
    """Maps every subcommand spelling (aliases too) to its --help name."""
    names = {}
    lines = run_help(aptsim).splitlines()
    start = lines.index("commands:") + 1
    for line in lines[start:]:
        if not line.strip():
            break
        label = line.strip().split("  ")[0]
        spellings = [s.strip() for s in label.split(",")]
        for spelling in spellings:
            names[spelling] = spellings[0]
    return names


def accepted_flags(aptsim, command):
    """The --flags that ``aptsim COMMAND --help`` lists."""
    flags = set()
    for line in run_help(aptsim, command).splitlines():
        match = HELP_ROW_RE.match(line)
        if match and match.group(1).startswith("--"):
            flags.add(match.group(1))
    return flags


def logical_lines(text):
    """(first line number, text) pairs with continuations joined."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        number, line = i + 1, lines[i]
        while i + 1 < len(lines) and continues(line):
            i += 1
            line = line.rstrip().rstrip("\\") + " " + lines[i].strip()
        yield number, line
        i += 1


def continues(line):
    """True when an invocation on `line` goes on past its end."""
    if line.rstrip().endswith("\\"):
        return True
    at = line.find("aptsim")
    return at > 0 and line[at - 1] == "`" and line.count("`", at) == 0


def invocations(line):
    """(subcommand word, argument text) for every aptsim call on `line`."""
    for match in INVOCATION_RE.finditer(line):
        rest = line[match.end():]
        if match.start() > 0 and line[match.start() - 1] == "`":
            rest = rest.split("`")[0]
        yield match.group(1), rest


def check_file(path, shown, aptsim, commands, cache):
    """Problems in one file, as 'file:line: message' strings."""
    problems = []
    for number, line in logical_lines(path.read_text(encoding="utf-8")):
        for word, rest in invocations(line):
            if word not in commands:
                continue
            command = commands[word]
            if command not in cache:
                cache[command] = accepted_flags(aptsim, command)
            for flag in FLAG_RE.findall(rest):
                if flag not in cache[command]:
                    problems.append(
                        f"{shown}:{number}: aptsim {word}: {flag} is not a "
                        f"flag of '{command}' (see aptsim {command} --help)"
                    )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--aptsim", default="build/aptsim", help="aptsim binary")
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("files", nargs="*", help="files to scan (default: docs + CI)")
    args = parser.parse_args(argv)

    root = Path(args.root)
    try:
        commands = subcommands(args.aptsim)
    except (OSError, subprocess.CalledProcessError, ValueError) as err:
        print(f"check_cli_docs: cannot read '{args.aptsim} --help': {err}", file=sys.stderr)
        return 2
    cache = {}
    problems = []
    checked = 0
    for name in args.files or DEFAULT_FILES:
        path = root / name
        if not path.is_file():
            print(f"check_cli_docs: no such file: {path}", file=sys.stderr)
            return 2
        problems += check_file(path, name, args.aptsim, commands, cache)
        checked += 1
    for problem in problems:
        print(problem)
    print(
        f"check_cli_docs: {checked} files, {len(problems)} unknown flags",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
