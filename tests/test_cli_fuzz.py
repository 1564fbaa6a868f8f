"""Property test of the CLI's error contract over a grammar of hostile argv.

Every case exits 0, 1 or 2 and prints no traceback; exit 1 is exactly one
``tecsim: error:`` line on stderr and nothing on stdout.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim.cli import main

from reference import shared_boundary_json

FLOATS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "-0", "-0.0", "1e308", "-1e308", "0", "5e-324", "1e-161", "0.1", "1", "1.5", "x"]
) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
HUGE_INTS = st.integers(0, 2**70) | st.sampled_from([-1, -(10**30), 2**64, 10**30])
# a sweep runs its 3 points or fewer in this process, however large --workers is
STEPS = st.integers(1, 3) | st.sampled_from([-(10**30), -1, 0])
# the state engines get few trials so the whole test stays within seconds; a fast point costs the
# same at any trial count, so it also gets counts at and past the int64 limit of its multinomial draw
TRIALS = {
    engine: st.integers(1, most) | st.sampled_from([-2, 0, *huge])
    for engine, most, huge in (
        ("fast", 1000, (10**12, 2**63 - 1, 2**63, 10**30)), ("tableau", 40, ()), ("dense", 10, ())
    )
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "bad.json").write_text("{not json")
    (root / "repeated.json").write_text(  # a volume that lists face f1 twice
        '{"volumes": {"v": ["f1", "f2", "f1"]}, "faces": {"f1": ["e7", "e8"], "f2": ["e7", "e8"]},'
        ' "edges": {"e7": ["s", "t"], "e8": ["s", "t"]}}'
    )
    (root / "crossdim.json").write_text(  # f2 names both a face and an edge
        '{"volumes": {"v": ["f1", "f2"]}, "faces": {"f1": ["e7", "f2"], "f2": ["e7", "f2"]},'
        ' "edges": {"e7": ["s", "t"], "f2": ["s", "t"]}}'
    )
    (root / "crowded.json").write_text(shared_boundary_json(400))  # 79,800 two-face surfaces
    return {
        "dir": str(root),
        "deep": str(root / "deep.json"),
        "bad": str(root / "bad.json"),
        "repeated": str(root / "repeated.json"),
        "crossdim": str(root / "crossdim.json"),
        "crowded": str(root / "crowded.json"),
        "file": str(root / "out.txt"),
        "missing": str(root / "no-such-dir" / "out.txt"),
    }


def _opt(flag, values):
    return st.lists(values, max_size=1).map(lambda vs: [f"{flag}={v}" for v in vs])


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(["syndrome-table", "sweep", "witness", "complex"]))
    argv = [command]
    if command == "syndrome-table":
        argv += draw(_opt("--format", st.sampled_from(["text", "csv", "json", "yaml"])))
    elif command == "sweep":
        engine = draw(st.sampled_from(sorted(TRIALS)))
        argv += [f"--engine={engine}", f"--trials={draw(TRIALS[engine])}"]
        # half the grids are valid, so the success and write-failure paths are reached too
        p_range = st.lists(st.floats(0, 1), min_size=2, max_size=2).map(sorted)
        p_min, p_max = draw(p_range | st.tuples(FLOATS, FLOATS))
        argv += [f"--steps={draw(STEPS)}", f"--p-min={p_min}", f"--p-max={p_max}"]
        argv += draw(_opt("--seed", HUGE_INTS)) + draw(_opt("--workers", HUGE_INTS))
        argv += draw(_opt("--format", st.sampled_from(["csv", "json", "xml"])))
    elif command == "witness":
        argv += [f"--visibility={v}" for v in draw(st.lists(FLOATS, max_size=3))]
    else:
        names = ["g8", "elementary", "cuboid 1x1x1", "cuboid 0x1x1", "cuboid 99999x99999x99999",
                 "cuboid 9223372036854775808x1x1", "cuboid 99999999999999999999x1x1", "cuboid:1x1x1", "cuboid", "",
                 "dodecahedron"]
        files = ("dir", "deep", "bad", "repeated", "crossdim", "crowded", "missing")
        name = draw(st.sampled_from(names + [paths[k] for k in files]))
        argv += name.split(" ") if name.startswith("cuboid") else [name]
    out = st.sampled_from(["", paths["dir"], paths["file"], paths["missing"]])
    return argv + draw(_opt("--out", out))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_every_argv_exits_cleanly_with_at_most_one_error_line(paths, data):
    argv = data.draw(argvs(paths), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            code = exc.code
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("tecsim: error:") and err.count("\n") == 1, (argv, err)
