"""The command line's exit contract as a property over drawn argument vectors.

Each example runs ``qldp.cli.main(argv)`` in process, with edge values for
every argument: eps from 5e-324 to MAX_EPSILON, nan, +-0 and +-inf; n, k and a
out of range; empty and reversed grids. Whatever the input, the exit code is
0 or 1. Exit 1 means a message on stderr, nothing on stdout and no file
written; exit 0 means output on stdout.

Excluded by design:
- ``verify``: ``verify all`` exits 2 on some seeds because a suite margin
  crosses its bound. That is a failing check, not a malformed input.
- Files mutated from valid ones, and the round trips ``mech *`` -> ``mech
  audit``: a sigma-star file written at large eps can fail its own audit, so
  that property does not hold yet.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from qldp.cli import main
from qldp.errors import MAX_EPSILON

EDGE_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, -1.0, 5e-324, 1e-300, 3e-16, MAX_EPSILON, 800.0]
epsilons = st.one_of(
    st.floats(min_value=-323.3, max_value=math.log10(MAX_EPSILON)).map(lambda x: 10.0**x),  # every decade
    st.floats(min_value=5e-324, max_value=MAX_EPSILON),
    st.sampled_from(EDGE_FLOATS),
)
# Sizes whose frames and mechanisms stay small (d <= 16), and sizes past every bound.
OUT_OF_RANGE = [-2, 0, 1, 15, 16, 1000]
sizes = st.one_of(st.integers(2, 10), st.sampled_from(OUT_OF_RANGE))
small_ints = st.one_of(st.integers(2, 40), st.sampled_from(OUT_OF_RANGE))
grid_ends = st.sampled_from([-1.0, 0.0, 0.05, 0.5, 1.0, 2.0, math.nan, math.inf])
grid_steps = st.sampled_from([-0.5, 0.0, 0.05, 0.5, 1.0, math.nan, math.inf])


def option(name, values, show=repr):
    """``--name=value`` for each drawn value, or nothing when None is drawn."""
    return st.one_of(st.none(), values).map(lambda v: [] if v is None else [f"--{name}={show(v)}"])


def required(name, values, show=repr):
    return values.map(lambda v: [f"--{name}={show(v)}"])


def command(words, *options):
    """``words`` followed by each option's drawn arguments."""
    return st.tuples(*options).map(lambda drawn: [*words, *(arg for args in drawn for arg in args)])


int_lists = st.one_of(
    small_ints.map(str),
    st.lists(small_ints, min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.tuples(small_ints, small_ints).map(lambda r: f"{r[0]}..{r[1]}"),
)
float_grids = st.one_of(
    epsilons.map(repr),
    st.lists(epsilons, min_size=1, max_size=3).map(lambda es: ",".join(map(repr, es))),
    st.tuples(grid_ends, grid_ends, grid_steps).map(lambda g: ":".join(map(repr, g))),
)
utilities = option("utility", st.sampled_from(["mi", "pairwise_sqrt", "none"]), show=str)
OUT = ["--out", "{out}"]
argvs = st.one_of(
    command(["frame", "build", *OUT], required("n", sizes), option("a", st.integers(-3, 8))),
    command(["mech", "sigma-star"], required("n", sizes), required("eps", epsilons)),
    command(["mech", "binary"], required("n", sizes), required("eps", epsilons)),
    command(
        ["mech", "subset"],
        required("n", st.one_of(st.integers(2, 10), st.sampled_from([-2, 0, 1]))),
        required("k", st.one_of(st.integers(1, 5), st.sampled_from([-1, 0, 11]))),
        required("eps", epsilons),
    ),
    command(
        ["exp", "sweep", *OUT],
        required("n", int_lists, show=str),
        required("eps", float_grids, show=str),
        option("eta", st.sampled_from(EDGE_FLOATS + [0.5, 1.0])),
        option("alt-u", st.sampled_from([0.4, 0.0, -0.4, math.nan])),
    ),
    command(["exp", "thresholds"], required("n", int_lists, show=str)),
    command(
        ["exp", "crossover"],
        required("n", small_ints),
        required("mode", st.sampled_from(["sym", "asym", "x"]), show=str),
    ),
    command(
        ["opt", "lp"],
        required("n", st.one_of(st.integers(2, 14), st.sampled_from(OUT_OF_RANGE))),
        required("eps", epsilons),
        utilities,
        st.sampled_from([[], ["--full"], ["--symmetric"], ["--full", "--symmetric"]]),
    ),
    command(["opt", "predict"], required("n", small_ints), utilities),
    command(["reproduce", *OUT], st.sampled_from([["fig1"], ["fig2"], ["thresholds"], ["ratios"], ["fig3"]])),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argvs)
def test_every_argument_vector_exits_zero_with_output_or_one_with_a_message(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.format(out=os.path.join(tmp, "out")) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        written = os.listdir(tmp)
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert err.getvalue() and not out.getvalue() and not written, (argv, err.getvalue())
    else:
        assert out.getvalue(), argv
