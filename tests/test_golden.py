"""Byte-for-byte guard on the CLI output.

Each case runs `cli.main` and compares its stdout with a file under
`tests/golden/`.  The cases reach every series loop, both reductions to
the fundamental domain and the quadrature, so a refactor of the numeric
core that changes any printed digit fails here.

To write the files afresh (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden.py

It prints every JSON path whose value moves, as old -> new, before it
writes a file, so a review can see which digits changed.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from etamock.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "catalogue": ["catalogue"],
    "verify-theta": ["verify", "theta", "--seed", "0"],
    "verify-vmn": ["verify", "vmn", "--seed", "0"],
    "verify-mu": ["verify", "mu", "--seed", "0"],
    "verify-quantum-closure": ["verify", "quantum-closure", "--seed", "0"],
    "verify-shadow": ["verify", "shadow", "--seed", "0"],
    "verify-thm11": ["verify", "thm11", "--seed", "0", "--samples", "1"],
    "verify-corollary": ["verify", "corollary", "--m", "5", "--x", "1/2"],
    "verify-corollary-4": ["verify", "corollary", "--m", "4", "--x", "1/3"],
    "verify-radial": ["verify", "radial", "--seed", "0"],
    "verify-columns": ["verify", "columns", "--seed", "0"],
    "eval-theta": ["eval", "theta", "--v", "0.1+0.0002i",
                   "--tau", "0.13+0.001i", "--crosscheck"],
    "eval-eta": ["eval", "eta", "--tau", "0.01+0.002i", "--crosscheck"],
    "eval-g": ["eval", "g", "--a", "1/12", "--b", "1/2", "--tau", "0.3+0.01i"],
    "eval-V": ["eval", "V", "4", "3", "--tau", "0.2+0.9i", "--crosscheck"],
    "eval-E": ["eval", "E", "4", "--tau", "0.1+0.5i", "--crosscheck"],
    "eval-Etilde": ["eval", "Etilde", "2", "--z", "0.1-0.3i"],
    "eval-mu": ["eval", "mu", "--u", "0.3+0.4i", "--v", "0.1+0.2i",
                "--tau", "0.2+0.9i"],
    "eval-Fhk": ["eval", "Fhk", "--x", "3/7", "--m", "2"],
    "eval-Fhk-4pp": ["eval", "Fhk", "--x", "3/7", "--m", "4pp"],
    "quantum-5-3": ["quantum", "5", "3", "1/3"],
    "quantum-2-1": ["quantum", "2", "1", "1/3"],
    "quantum-4-1": ["quantum", "4", "1", "1/3"],
    "qexp-e7": ["qexp", "e7", "--both-routes", "--order", "40"],
    "qexp-E4": ["qexp", "E4", "--both-routes", "--order", "60"],
    "qexp-factors": ["qexp", "--factors", "1:1,2:-1", "--order", "30"],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def golden_path(name):
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    with open(golden_path(name)) as fh:
        expected = fh.read()
    assert run_case(CASES[name]) == expected


def changed_paths(old, new, path="$"):
    """(path, old, new) for every leaf at which two JSON values differ.

    Objects are compared key by key and lists of equal length item by
    item; anything else that differs is reported whole.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from changed_paths(old.get(key), new.get(key), "%s.%s" % (path, key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_paths(a, b, "%s[%d]" % (path, i))
    elif old != new or type(old) is not type(new):
        yield path, old, new


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(CASES):
        path = golden_path(name)
        text = run_case(CASES[name])
        old = None
        if os.path.exists(path):
            with open(path) as fh:
                old = fh.read()
        if old == text:
            print("unchanged", path, file=sys.stderr)
            continue
        if old is not None:
            for where, a, b in changed_paths(json.loads(old), json.loads(text)):
                print("  %s: %s -> %s" % (where, json.dumps(a), json.dumps(b)),
                      file=sys.stderr)
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", path, file=sys.stderr)
