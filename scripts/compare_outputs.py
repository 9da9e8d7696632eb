"""Run the CLI's 21 pinned outputs in two source trees and say whether each is byte-identical.

    python3 scripts/compare_outputs.py PARENT_TREE [CHANGE_TREE]

CHANGE_TREE defaults to the checkout holding this script; a tree is any directory with the
package under ``src/bergman`` (a ``git archive`` copy of a commit, say).  Each command runs
as ``python -m bergman.cli <args> --out <file>`` with ``PYTHONPATH=<tree>/src``, from a
fresh temporary directory, and its output is the file written through ``--out``
(``reproduce`` prints wall-clock seconds, so its standard output is not compared).  One
line per output says ``identical`` or ``differs``; an exit status that differs between the
trees, or an output that is missing, counts as a difference.  Exits 1 on any difference.
Uses the standard library alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> CLI arguments, --out excluded
OUTPUTS = {
    "reproduce.json": ["reproduce", "--format", "json"],
    "reproduce.csv": ["reproduce", "--format", "csv"],
    **{f"norm-p{p}": ["norm", "--p", p] for p in ("2", "3", "inf", "1.01")},
    **{f"br-scan-{d}": ["br-scan", "--domain", d]
       for d in ("disc", "ball2", "bidisc", "halfplane", "punctured-disc", "hartogs")},
    "blowup": ["blowup"],
    **{f"berezin-{d}-{s}": ["berezin", "--domain", d, "--z", z, "--symbol", s]
       for d, z, s in (("disc", "0.3+0.2i", "one"), ("disc", "0.3+0.2i", "abs2"),
                       ("ball2", "0.3,0.2i", "one"), ("ball2", "0.3,0.2i", "abs2"),
                       ("bidisc", "0.3,0.2i", "abs2"), ("hartogs", "0.5,0.1i", "one"),
                       ("hartogs", "0.5,0.1i", "blowup:0.1"))},
    "kernel-hartogs": ["kernel", "--domain", "hartogs", "--z", "0.5,0.1i", "--w", "0.4,-0.2i"],
}


def run(tree: str, args: list) -> tuple:
    """(exit status, bytes of the --out file or None) of one command on ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        done = subprocess.run([sys.executable, "-m", "bergman.cli", *args, "--out", out],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if not os.path.exists(out):
            return done.returncode, None
        with open(out, "rb") as fh:
            return done.returncode, fh.read()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = argv[0], argv[1] if len(argv) == 2 else HERE
    for tree in (parent, change):
        if not os.path.isdir(os.path.join(tree, "src", "bergman")):
            print(f"error: {tree} has no src/bergman", file=sys.stderr)
            return 2
    differ = 0
    for name, args in OUTPUTS.items():
        a, b = run(parent, args), run(change, args)
        same = a == b and a[1] is not None
        differ += not same
        print(f"{name:<28} {'identical' if same else 'differs'}", flush=True)
    print(f"{len(OUTPUTS) - differ}/{len(OUTPUTS)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
