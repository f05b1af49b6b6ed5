"""Print the output of 210 CLI cases, for comparing two checkouts byte for byte.

Usage: python tools/output_check.py <src-dir>

<src-dir> is the ``src`` directory of a checkout.  The cases are every builtin
x {check, ltc, conditions, reduce, converge on a short ladder} x {text, json}
x --seed {0, 7}, plus ``reduce --mode standard|nonstandard`` on mm2d and mm3d
and the inconsistent partition ``--fast s`` of mm3d.  Each case prints its
argv, exit code, stdout and stderr.  Compare two checkouts with

    diff <(python tools/output_check.py OLD/src) <(python tools/output_check.py src)
"""

import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])

from tfred.builtin_models import BUILTINS  # noqa: E402
from tfred.cli import main  # noqa: E402

CMDS = [["check"], ["ltc"], ["conditions"], ["reduce"],
        ["converge", "--ladder", "1e-1,5e-2,2.5e-2", "--t2", "1.0"]]
cases = [[*c, "--builtin", b, "--format", f, "--seed", s]
         for b in sorted(BUILTINS) for c in CMDS for f in ("text", "json") for s in ("0", "7")]
cases += [["reduce", "--builtin", b, "--mode", m, "--format", f]
          for b in ("mm2d", "mm3d") for m in ("standard", "nonstandard") for f in ("text", "json")]
cases += [[c, "--builtin", "mm3d", "--fast", "s"] for c in ("reduce", "converge")]
for argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print("###", " ".join(argv), "exit", code)
    print(out.getvalue(), end="")
    print("stderr:", err.getvalue())
