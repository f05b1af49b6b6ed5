"""A grammar fuzzer for the exit-code contract: any raw-system model file exits 0, 2, 3 or 4.

The grammar builds the two rows of a raw system in the states x, y and the
parameters k, a from numbers, names, long constants, zero divisors, nesting
deeper than ``MAX_NESTING``, multi-term powers and products of multi-term
expressions up to and past ``MAX_POWER_TERMS`` and names the model does not
declare.  ``check``, ``ltc``, ``conditions`` and ``reduce`` run on each file
through ``cli.main``; none may crash, print a traceback or an internal error,
or take longer than the deadline.  An exit 2 without a report is one line:
``error: ...`` for bad input, or the verdict on an inconsistent scaling.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from tfred.cli import main
from tfred.rational import MAX_NESTING, MAX_POWER_TERMS

COMMANDS = (["check"], ["ltc"], ["conditions", "--fast", "y"], ["reduce"])

# (x + y + k + a + 1)^n has C(n + 4, 4) terms: 1820 at n = 12, 2380 at n = 13
UNDER, OVER = 12, 13
assert 1820 <= MAX_POWER_TERMS < 2380

plain = st.one_of(st.sampled_from(["x", "y", "k", "a", "eps"]), st.integers(0, 99).map(str))
special = st.one_of(
    # undeclared names
    st.sampled_from(["z", "kk", "e0"]),
    # long constants: under, at and past the digits an int may print
    st.sampled_from(["10^4299", "10^4300", "2^14285", "7" * 5000, "2^100000"]),
    # zero divisors
    st.sampled_from(["1/(x - x)", "k/0", "(y - y)^-1", "a/(k*0)"]),
    # nesting at and past the parser's bound
    st.sampled_from([MAX_NESTING, MAX_NESTING + 1]).map(lambda d: "(" * d + "x" + ")" * d),
    # multi-term powers: expanded and cancelled under the budget, refused past it
    st.sampled_from([f"0*(x + y + k + a + 1)^{UNDER}", f"(x + y + k + a + 1)^{OVER}", "(x + y + 1)^400"]),
    # products: 28 * 28 terms formed and cancelled under the budget, 210 * 210 refused past it
    st.sampled_from(["(x + k + 1)^6*(y + a + 1)^6*0", "(x + y + k + a + 1)^6*(x + y + k + a + 1)^6"]),
)
# about one leaf in ten is special, so that most files get past the parser
leaves = st.integers(0, 9).flatmap(lambda i: special if i == 0 else plain)


def combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    )


rows = st.recursive(leaves, combine, max_leaves=6)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, derandomize=True, database=None, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(rows, rows.map("eps*({})".format)), st.one_of(rows, rows.map("-y + eps*({})".format)))
@example("eps*x*y + eps*(x+y+1)^400 - eps*(x+y+1)^400", "-y + eps*x")
@example(f"eps*x*y + 0*(x + y + k + a + 1)^{UNDER}", "-y + eps*x")
@example("eps*x*y + (x + k + 1)^6*(y + a + 1)^6*0", "-y + eps*x")
@example("1/(x - x)", "-y")
@example("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), "-y")
def test_any_raw_model_keeps_the_exit_code_contract(slow, fast):
    model = {"name": "fuzz", "states": ["x", "y"], "parameters": ["k", "a"], "raw_system": [slow, fast],
             "fast": ["y"]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(model))
        for command in COMMANDS:
            code, out, err = run([command[0], "--model", str(path), *command[1:]])
            event(f"{command[0]} exit {code}")
            assert code in (0, 2, 3, 4), (command, code, err)
            assert "Traceback" not in out + err and "internal error" not in err, (command, err)
            lines = err.splitlines()
            if code == 2 and not out:
                # one line: bad input, or the verdict on an inconsistent scaling
                assert len(lines) == 1 and lines[0].startswith(("error: ", "consistency check failed: ")), (command, err)
            else:
                assert not any(line.startswith("error:") for line in lines), (command, err)
