#!/usr/bin/env python3
"""Mutation probe: how many small faults in a module do the named tests catch?

Each mutant changes one spot of the module's syntax tree:
  - a comparison operator is swapped: < and <=, > and >=, == and !=,
    is and is not, in and not in;
  - a + becomes - and a - becomes + (in +=, -= too);
  - an int constant is moved by +1 and, separately, by -1.

The repository is copied once to a temporary directory. Each mutant is
written over the module in that copy, and the named test files run against
the copy with `pytest -x`; a failing or timed-out run kills the mutant. The
working tree is never written. The unmutated module is first run through
the same round trip (ast.unparse), and must pass.

    python scripts/mutants.py src/itiguard/validation.py \
        --tests tests/test_validation.py tests/test_correction.py

prints each surviving mutant and one `killed K of N` line per module; -v
prints killed mutants too. Standard library only. One pytest run per
mutant makes it slow, so it is run by hand, not in CI.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Is: (ast.IsNot, "is", "is not"),
    ast.IsNot: (ast.Is, "is not", "is"),
    ast.In: (ast.NotIn, "in", "not in"),
    ast.NotIn: (ast.In, "not in", "in"),
    ast.Add: (ast.Sub, "+", "-"),
    ast.Sub: (ast.Add, "-", "+"),
}


def sites(tree: ast.AST):
    """Yield (line, description, apply) for each mutation of tree, in
    ast.walk order; apply() makes the change in place."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new, old_text, new_text = SWAPS[type(op)]
                    yield node.lineno, f"{old_text} -> {new_text}", _setter(node.ops, k, new())
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub)):
            new, old_text, new_text = SWAPS[type(node.op)]
            yield node.lineno, f"{old_text} -> {new_text}", _setter(node, "op", new())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                value = node.value + delta
                yield node.lineno, f"{node.value} -> {value}", _setter(node, "value", value)


def _setter(target, key, value):
    if isinstance(target, list):
        return lambda: target.__setitem__(key, value)
    return lambda: setattr(target, key, value)


def mutants(source: str):
    """Yield (line, description, mutated source) for every site in source."""
    count = sum(1 for _ in sites(ast.parse(source)))
    for i in range(count):
        tree = ast.parse(source)
        line, description, apply = next(itertools.islice(sites(tree), i, None))
        apply()
        yield line, description, ast.unparse(tree)


def run_tests(copy: Path, tests: list[str], timeout: float) -> bool:
    """True when every named test passes against the copy."""
    # No bytecode: a mutant the same size as the last one, written within
    # the same second, would otherwise be served from a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def probe(module: str, copy: Path, tests: list[str], verbose: bool) -> tuple[int, int]:
    """Run every mutant of module; return (killed, total)."""
    target = copy / module
    source = (ROOT / module).read_text(encoding="utf-8")
    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    started = time.monotonic()
    if not run_tests(copy, tests, timeout=600):
        sys.exit(f"mutants: the tests fail on unmutated {module}; nothing to measure")
    timeout = max(30.0, 10 * (time.monotonic() - started))
    killed = total = 0
    for line, description, mutated in mutants(source):
        target.write_text(mutated, encoding="utf-8")
        dead = not run_tests(copy, tests, timeout)
        killed += dead
        total += 1
        if verbose or not dead:
            print(f"{'killed' if dead else 'SURVIVED'} {module}:{line}: {description}", flush=True)
    target.write_text(source, encoding="utf-8")
    print(f"{module}: killed {killed} of {total}", flush=True)
    return killed, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the mutants of each module that the tests kill.")
    parser.add_argument("modules", nargs="+", help="module paths relative to the repository root")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run per mutant")
    parser.add_argument("-v", "--verbose", action="store_true", help="also print killed mutants")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")
        )
        for module in args.modules:
            probe(module, copy, args.tests, args.verbose)
    return 0


if __name__ == "__main__":
    sys.exit(main())
