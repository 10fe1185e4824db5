"""Property test of the command line: any argv ends in a documented exit code.

Each example runs ``main`` in-process on tiny-2conv models.  Exit 0 and 1
are results; exit 2 (usage) and 3 (I/O) must leave exactly one ``error:``
line on stderr; no exception may escape ``main`` other than argparse's
``SystemExit``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from interactive import RasterImage, generate_model, save_model, write_image
from interactive.cli import EXIT_IO, EXIT_USAGE, MAX_SAMPLES, main

# Examples are capped so the four tests together stay within a few seconds.
FAST = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Path placeholders, resolved per test: "@model" and the images exist,
# "@out" can be written, "@missing" lies under a directory that does not
# exist and "@dir" is a directory.  None leaves the flag out.
PATHS = st.sampled_from(["@missing", "@dir", "", None])
LAYERS = ["input", "pool-1"]
ODD_LAYERS = ["conv-1", "conv-2", "nope", "", " input", "-x"]
SEEDS = st.integers(0, 2**70).map(str)
ODD_SEEDS = st.integers(-3, -1).map(str) | st.sampled_from(["", "x", "1.5", "-inf", None])
ODD_MEANS = st.floats(allow_nan=True, allow_infinity=True).map(str) | st.sampled_from(
    ["-nan", "-inf", "-Infinity", "1e308", "-1e308", "1e400", "1e200", "1e154", "-.5e3", "", "abc"]
)


@st.composite
def argv_for(draw, name, flags):
    """argv for subcommand ``name``.  ``flags`` maps each flag to a
    (valid, odd) pair of strategies; all flags take a valid value but up to
    two, which take an odd one.  A drawn None leaves the flag out, a list
    gives it several values."""
    odd = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    # global flags: -v and -h, and a --seed that belongs after the subcommand (a usage error)
    argv = draw(st.sampled_from([*[[]] * 4, ["-v"], ["--seed", "3"], ["-h"]])) + [name]
    for flag, (valid, unusual) in flags.items():
        value = draw(unusual if flag in odd else valid)
        if value is not None:
            argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv + draw(st.sampled_from([*[[]] * 6, ["--bogus"], ["extra"]]))


GEN_MODEL = argv_for("gen-model", {
    "--arch": (
        st.sampled_from(["tiny-2conv", "tiny-3conv", "tiny-fc", "toy-cnn"]),
        st.sampled_from(["bogus", "", None]),
    ),
    "--seed": (SEEDS | st.none(), ODD_SEEDS),
    "--input": (
        st.tuples(st.integers(8, 24), st.integers(8, 24), st.sampled_from([1, 3])).map(
            lambda d: [*map(str, d)]
        ) | st.none(),
        st.lists(st.integers(-2, 24) | st.sampled_from([100000, -100000]), min_size=2, max_size=4).map(
            lambda d: [*map(str, d)]
        ),
    ),
    "--out": (st.just("@out"), PATHS),
})
ACTIVENESS = argv_for("activeness", {
    "--model": (st.just("@model"), PATHS),
    "--image": (st.sampled_from(["@color", "@gray", "@dot"]), PATHS),
    "--layer": (st.sampled_from(LAYERS), st.sampled_from([*ODD_LAYERS, None])),
    "--config": (st.sampled_from(["last", "next", None]), st.sampled_from(["bogus", ""])),
    "--p": (st.sampled_from(["1", "2", None]), st.sampled_from(["3", "0", ""])),
    "--summarize": (st.sampled_from(["max", "average", None]), st.sampled_from(["x", ""])),
    "--mean": (st.floats(-300, 300).map(str) | st.none(), ODD_MEANS),
    "--heatmap": (st.sampled_from(["@out", None]), PATHS),
    "--features": (st.sampled_from(["@feat", None]), PATHS),
})
# --samples is never left out: its default of 200 would make examples slow
GRADCHECK = argv_for("gradcheck", {
    "--model": (st.just("@model"), PATHS),
    "--seed": (SEEDS | st.none(), ODD_SEEDS),
    "--samples": (
        st.integers(1, 20).map(str),
        st.integers(-2, 0).map(str) | st.sampled_from([str(MAX_SAMPLES + 1), "10" * 20, "", "x"]),
    ),
})
TOYBENCH = argv_for("toybench", {
    "--model": (st.just("@model"), PATHS),
    "--dataset-seed": (SEEDS | st.none(), ODD_SEEDS),
    "--layers": (
        st.lists(st.sampled_from(LAYERS), min_size=1, max_size=2, unique=True).map(",".join) | st.none(),
        st.lists(st.sampled_from([*LAYERS, *ODD_LAYERS]), max_size=3).map(",".join),
    ),
    "--out": (st.just("@out"), PATHS),
    "--json": (st.sampled_from(["@json", None]), PATHS),
})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    save_model(generate_model("tiny-2conv", seed=7), root / "m.model")
    rng = np.random.default_rng(0)
    for name, shape in (("color.ppm", (24, 30, 3)), ("gray.pgm", (5, 3, 1)), ("dot.pgm", (1, 1, 1))):
        write_image(RasterImage(pixels=rng.integers(0, 256, size=shape, dtype=np.uint8)), root / name)
    return root


def run_argv(argv, inputs, tmp_path, capsys):
    paths = {
        "@model": inputs / "m.model",
        "@color": inputs / "color.ppm",
        "@gray": inputs / "gray.pgm",
        "@dot": inputs / "dot.pgm",
        "@missing": tmp_path / "absent" / "x",
        "@dir": tmp_path,
        "@out": tmp_path / "out.bin",
        "@feat": tmp_path / "f.bin",
        "@json": tmp_path / "r.json",
    }
    argv = [str(paths.get(token, token)) for token in argv]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (EXIT_USAGE, EXIT_IO):
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (argv, err)


@FAST
@given(argv=GEN_MODEL)
@example(argv=["gen-model", "--arch", "tiny-2conv", "--input", "5", "5", "-1", "--out", "@out"])
@example(argv=["gen-model", "--arch", "toy-cnn", "--out", "@dir"])
def test_gen_model_argv(inputs, tmp_path, capsys, argv):
    run_argv(argv, inputs, tmp_path, capsys)


@FAST
@given(argv=ACTIVENESS)
@example(argv=["activeness", "--model", "@model", "--image", "@dot", "--layer", "input",
               "--mean", "1e154", "--heatmap", "@out"])
@example(argv=["activeness", "--model", "@model", "--image", "@color", "--layer", "input",
               "--heatmap", "", "--features", "@out"])
def test_activeness_argv(inputs, tmp_path, capsys, argv):
    run_argv(argv, inputs, tmp_path, capsys)


@FAST
@given(argv=GRADCHECK)
def test_gradcheck_argv(inputs, tmp_path, capsys, argv):
    run_argv(argv, inputs, tmp_path, capsys)


@FAST
@given(argv=TOYBENCH)
@example(argv=["toybench", "--model", "@model", "--layers", "input,input", "--out", "@out"])
@example(argv=["toybench", "--model", "@model", "--layers", "", "--out", "@out", "--json", ""])
def test_toybench_argv(inputs, tmp_path, capsys, argv):
    run_argv(argv, inputs, tmp_path, capsys)
