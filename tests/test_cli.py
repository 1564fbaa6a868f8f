import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim import __version__, cli, tec, witness
from tecsim.cli import main

from reference import shared_boundary_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_syndrome_table_text(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"# tecsim {__version__}")
    body = lines[2:]
    assert len(body) == 16
    assert body[2].split() == ["+1", "+1", "-1", "-1", "{3}"]
    assert body[6].split() == ["+1", "+1", "+1", "+1", "{}"]
    assert any(row.split() == ["+1", "-1", "-1", "+1", "{5,6}"] for row in body)


def test_syndrome_table_json(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == __version__
    assert len(payload["rows"]) == 16
    assert payload["rows"][0] == {
        "c12": -1,
        "c25": 1,
        "c36": 1,
        "c34": 1,
        "correction": [1],
    }


def test_sweep_grid_and_trivial_rows(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--steps",
        "3",
        "--trials",
        "2000",
        "--seed",
        "5",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "max |MC - analytic|" in err
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith(f"# tecsim {__version__} sweep seed=5")
    assert lines[1] == (
        "p,mc_protected,se_protected,mc_unprotected,se_unprotected,"
        "analytic_protected,analytic_unprotected"
    )
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    assert rows[0] == ["0"] * 7
    assert rows[2][1] == "0" and rows[2][3] == "0"


def test_sweep_analytic_columns(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--steps",
        "11",
        "--trials",
        "1000",
        "--seed",
        "5",
        "--out",
        str(out_file),
    )
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out_file.read_text().splitlines()[2:]}
    p01 = rows["0.1"]
    assert p01[5] == "0.054432"
    assert p01[6] == "0.18"


def test_sweep_outputs_are_byte_identical(tmp_path, capsys):
    args = ["sweep", "--steps", "4", "--trials", "5000", "--seed", "99"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    assert run_cli(capsys, *args, "--out", str(paths[0]))[0] == 0
    assert run_cli(capsys, *args, "--out", str(paths[1]))[0] == 0
    assert run_cli(capsys, *args, "--workers", "2", "--out", str(paths[2]))[0] == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("seed", ["7", "13", "99"])
def test_state_engine_sweeps_print_the_fast_rows(capsys, seed):
    """Every engine reads the same flips, so only the header comment names the engine."""
    def rows(*argv):
        code, out, _ = run_cli(capsys, "sweep", "--seed", seed, "--trials", "300", "--steps", "4", *argv)
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith("#")]

    fast = rows("--engine", "fast")
    for engine in ("tableau", "dense"):
        for workers in ("1", "2"):
            assert rows("--engine", engine, "--workers", workers) == fast, (engine, workers)


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--steps", "2", "--trials", "500", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == __version__
    assert len(payload["points"]) == 2


def test_sweep_zero_failure_point_is_not_a_false_alarm(capsys):
    # p = 0.01 expects 0.6 protected failures in 1000 trials, so observing
    # none is ordinary; its observed standard error is 0, the analytic one is not
    code, out, err = run_cli(
        capsys, "sweep", "--engine", "fast", "--trials", "1000", "--p-min", "0",
        "--p-max", "0.1", "--steps", "11", "--seed", "0",
    )
    assert code == 0, err
    assert out.splitlines()[2].startswith("0,")


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sweep_exact_point_fails_on_any_deviation(monkeypatch, capsys, p):
    def one_stray_failure(grid, trials, seed, engine):
        return [tec.SweepPoint(grid[0], trials, 0, 1, *tec.G8_CODE.rates(grid[0]))]

    monkeypatch.setattr(tec, "monte_carlo_sweep", one_stray_failure)
    code, out, err = run_cli(
        capsys, "sweep", "--trials", "1000000", "--steps", "1", "--p-min", str(p),
        "--p-max", str(p),
    )
    assert code == 3
    assert out == ""
    assert err == f"tecsim: internal error: zero-variance point p={p} deviates from the analytic value\n"


def test_a_one_point_sweep_evaluates_the_rates_once(monkeypatch, capsys):
    """The point carries its analytic values, so the CSV and the self-check read them, not the rates again."""
    rates, calls = tec.TopologicalCode.rates, []
    def counted(self, p):
        calls.append(p)
        return rates(self, p)

    monkeypatch.setattr(tec.TopologicalCode, "rates", counted)
    code, out, err = run_cli(capsys, "sweep", "--trials", "100", "--steps", "1", "--p-min", "0.25", "--p-max", "0.25")
    assert code == 0, err
    assert calls == [0.25]


def test_a_failed_enumeration_self_check_is_an_internal_error(monkeypatch, capsys):
    exact = tec.exact_enumeration
    monkeypatch.setattr(tec, "exact_enumeration", lambda p, *code: exact(p, *code) + 1e-6)
    code, out, err = run_cli(capsys, "sweep", "--trials", "100", "--steps", "1", "--p-min", "0.25", "--p-max", "0.25")
    assert code == 3
    assert out == ""
    assert err == "tecsim: internal error: enumeration oracle mismatch at p=0.25\n"


def test_a_syndrome_table_missing_a_row_is_an_internal_error(monkeypatch, capsys):
    rows = cli._syndrome_rows
    monkeypatch.setattr(cli, "_syndrome_rows", lambda: rows()[:-1])
    code, out, err = run_cli(capsys, "syndrome-table")
    assert (code, out) == (3, "")
    assert err == "tecsim: internal error: syndrome table does not cover all 16 syndromes\n"


def test_witness_forms_that_disagree_are_an_internal_error(monkeypatch, capsys):
    from_settings = witness.witness_from_settings
    monkeypatch.setattr(witness, "witness_from_settings", lambda values: from_settings(values) + 1e-6)
    model = witness.white_noise_model(0.5)
    w_proj, w_set = witness.witness_expectation(model), from_settings(witness.setting_expectations(model)) + 1e-6
    code, out, err = run_cli(capsys, "witness", "--visibility", "0.5")
    assert (code, out) == (3, "")
    assert err == f"tecsim: internal error: witness forms disagree at visibility 0.5: {w_proj} vs {w_set}\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_nonpositive_workers(capsys, workers):
    code, out, err = run_cli(capsys, "sweep", "--steps", "2", "--trials", "10",
                             "--workers", workers)
    assert code == 1
    assert out == ""
    assert err == "tecsim: error: workers must be >= 1\n"


@pytest.mark.parametrize("engine", ["fast", "tableau", "dense"])
def test_sweep_workers_start_no_process_and_change_no_byte(monkeypatch, capsys, engine):
    """Every point runs in this process, so --workers 8 needs no process pool and prints --workers 1's bytes."""
    def no_pool(*args, **kwargs):
        raise RuntimeError("a sweep started a process pool")

    argv = ("sweep", "--engine", engine, "--steps", "5", "--trials", "200", "--seed", "7")
    serial = run_cli(capsys, *argv, "--workers", "1")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    assert run_cli(capsys, *argv, "--workers", "8") == serial
    assert serial[0] == 0


@pytest.mark.parametrize("engine", ["fast", "tableau", "dense"])
def test_sweep_negative_seed_is_one_error_line(capsys, engine):
    code, out, err = run_cli(capsys, "sweep", "--engine", engine, "--seed", "-1",
                             "--steps", "2", "--trials", "10")
    assert code == 1
    assert out == ""
    assert err == "tecsim: error: seed must be >= 0, got -1\n"


def test_sweep_unwritable_path_fails(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--steps",
        "2",
        "--trials",
        "10",
        "--out",
        "/nonexistent-dir/sweep.csv",
    )
    assert code != 0
    assert "cannot write" in err


def test_witness_report(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--visibility", "1.0", "--visibility", "0.605",
        "--visibility", "0.0",
    )
    assert code == 0
    payload = json.loads(out)
    results = {r["visibility"]: r for r in payload["results"]}
    assert results[1.0]["witness_expectation"] == pytest.approx(-0.5)
    assert results[1.0]["fidelity_bound"] == pytest.approx(1.0)
    assert results[0.605]["witness_expectation"] == pytest.approx(-0.105)
    assert results[0.605]["fidelity_bound"] == pytest.approx(0.605)
    assert results[0.0]["witness_expectation"] == pytest.approx(0.5)
    assert results[1.0]["settings"]["A0"] == pytest.approx(1.0)


def test_witness_evaluates_the_settings_once_per_visibility(monkeypatch, capsys):
    calls = []
    for name in ("setting_expectations", "witness_expectation"):
        def counted(model, *args, _name=name, _original=getattr(witness, name)):
            calls.append((_name, *args))
            return _original(model, *args)

        monkeypatch.setattr(witness, name, counted)
    assert run_cli(capsys, "witness", "--visibility", "0.605")[0] == 0
    assert calls == [("witness_expectation",), ("setting_expectations",)]


def test_consecutive_calls_do_not_leak_parsed_state(capsys):
    """The parser is built once per process; every call still starts from the defaults."""
    assert run_cli(capsys, "witness", "--visibility", "0.5")[0] == 0
    code, out, _ = run_cli(capsys, "witness")
    assert code == 0
    assert [r["visibility"] for r in json.loads(out)["results"]] == list(cli.DEFAULT_VISIBILITIES)

    sweep = ("sweep", "--steps", "1", "--trials", "20", "--p-min", "0.5", "--p-max", "0.5")
    assert run_cli(capsys, *sweep, "--engine", "tableau")[1].startswith("#")
    code, out, _ = run_cli(capsys, *sweep, "--format", "json")
    assert code == 0
    assert json.loads(out)["engine"] == "fast"
    assert cli._build_parser() is cli._build_parser()


def test_witness_rejects_bad_visibility(capsys):
    code, _, err = run_cli(capsys, "witness", "--visibility", "1.5")
    assert code == 1
    assert "visibility" in err


def test_complex_builtins(capsys):
    code, out, _ = run_cli(capsys, "complex", "elementary")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"volumes": 1, "faces": 6, "edges": 12, "vertices": 8}
    assert payload["boundary_of_boundary_ok"] is True

    code, out, _ = run_cli(capsys, "complex", "g8")
    payload = json.loads(out)
    assert payload["counts"] == {"volumes": 4, "faces": 6, "edges": 2, "vertices": 2}
    assert payload["homology_classes"] == 2

    code, out, _ = run_cli(capsys, "complex", "cuboid", "2x1x1")
    payload = json.loads(out)
    assert payload["counts"]["faces"] == 11
    assert payload["counts"]["edges"] == 20


def test_complex_from_file_round_trip(tmp_path, capsys):
    from tecsim.complexes import build_g8_complex

    from reference import complex_to_json

    path = tmp_path / "g8.json"
    path.write_text(complex_to_json(build_g8_complex()))
    code, out, _ = run_cli(capsys, "complex", str(path))
    assert code == 0
    assert json.loads(out)["counts"]["volumes"] == 4


def test_complex_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "complex", str(path))
    assert code == 1
    assert "line" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"volumes": {}, "faces": {"f": 5}, "edges": {}}',
        "5",
        '{"volumes": {}, "faces": {"f": [[1]]}, "edges": {}}',
        # under GF(2) the repeated f1 cancels: the boundary of v would be f2, whose own boundary is not zero
        ('{"volumes": {"v": ["f1", "f2", "f1"]}, "faces": {"f1": ["e7", "e8"], "f2": ["e7", "e8"]},'
         ' "edges": {"e7": ["s", "t"], "e8": ["s", "t"]}}'),
    ],
)
def test_complex_wrongly_typed_json_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "typed.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "complex", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("tecsim: error: ") and err.count("\n") == 1


def test_complex_directory_is_one_error_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "complex", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("tecsim: error: cannot read complex file") and err.count("\n") == 1


def test_sweep_tiny_p_is_not_a_false_alarm(capsys):
    # the analytic rate at p = 1e-9 is 6e-18; a closed form that cancels to a
    # negative number has zero sigma and turns the exact zero count into an error
    code, out, err = run_cli(
        capsys, "sweep", "--p-min", "1e-9", "--steps", "1", "--trials", "1000"
    )
    assert code == 0, err
    row = out.splitlines()[2].split(",")
    assert float(row[5]) == pytest.approx(6e-18, rel=1e-6)


@pytest.mark.parametrize("p", ["1e-161", "1e-320"])
@pytest.mark.parametrize("engine", ["fast", "tableau", "dense"])
def test_sweep_subnormal_rate_is_not_a_false_alarm(capsys, engine, p):
    # at p = 1e-161 the analytic protected rate is 5.9e-322, at 1e-320 the unprotected one is 2e-320; for either,
    # rate (1 - rate) / 100,000 underflows to 0, and a zero sigma turns the exact zero count into an error
    code, out, err = run_cli(
        capsys, "sweep", "--engine", engine, "--trials", "100000", "--p-min", p, "--p-max", p, "--steps", "1"
    )
    assert code == 0 and err == "max |MC - analytic| = 0.000 sigma over 1 points\n", err
    row = out.splitlines()[2].split(",")
    assert row[1:5] == ["0", "0", "0", "0"] and 0.0 < float(row[6]) < 1e-160


def test_complex_with_too_many_two_face_surfaces_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "crowded.json"
    path.write_text(shared_boundary_json(1000))
    code, out, err = run_cli(capsys, "complex", str(path))
    assert (code, out) == (1, "")
    assert err == "tecsim: error: 499500 two-face closed surfaces exceed the cap of 65536\n"


def test_complex_unknown_name(capsys):
    code, _, err = run_cli(capsys, "complex", "dodecahedron")
    assert code == 1
    assert "unknown complex" in err


def test_complex_cuboid_name_takes_a_space_not_a_colon(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no file of that name to fall back on
    code, out, err = run_cli(capsys, "complex", "cuboid:2x2x2")
    assert code == 1
    assert out == ""
    assert err == (
        "tecsim: error: unknown complex 'cuboid:2x2x2': expected elementary, g8, 'cuboid LxWxT',"
        " or a JSON file\n"
    )
    assert run_cli(capsys, "complex", "cuboid", "2x2x2")[0] == 0


def test_complex_empty_name_is_unknown_not_the_current_directory(capsys):
    code, out, err = run_cli(capsys, "complex", "")
    assert code == 1
    assert out == ""
    assert err == (
        "tecsim: error: unknown complex '': expected elementary, g8, 'cuboid LxWxT',"
        " or a JSON file\n"
    )


def test_sweep_steps_above_the_cap_is_one_error_line_and_allocates_no_grid(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(tec, "monte_carlo_sweep", lambda *args, **kwargs: calls.append(args))
    tracemalloc.start()
    try:
        code = main(["sweep", "--steps", str(cli.MAX_STEPS + 1), "--trials", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"tecsim: error: steps must be <= {cli.MAX_STEPS}\n"
    assert calls == []
    assert peak < 160 * 2**10  # a grid of MAX_STEPS floats alone takes over 300 KiB


def test_internal_invariant_failure_is_reported_apart_from_user_errors(monkeypatch, capsys):
    def broken():
        raise AssertionError("tableau rows lost GF(2) independence")

    monkeypatch.setattr(cli, "_syndrome_rows", broken)
    code, out, err = run_cli(capsys, "syndrome-table")
    assert code == 3
    assert out == ""
    assert err == "tecsim: internal error: tableau rows lost GF(2) independence\n"


def test_complex_deeply_nested_json_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "complex", str(path))
    assert code == 1
    assert out == ""
    assert err == "tecsim: error: complex JSON is nested too deeply\n"


def test_sweep_negative_zero_p_prints_as_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "1", "--p-min", "-0", "--p-max", "-0",
                           "--trials", "1")
    assert code == 0
    assert out.splitlines()[2] == ",".join(["0"] * 7)


def test_witness_negative_zero_visibility_prints_as_zero(capsys):
    code, out, _ = run_cli(capsys, "witness", "--visibility", "-0")
    assert code == 0
    assert '"visibility": 0.0,' in out
    assert out == run_cli(capsys, "witness", "--visibility", "0")[1]


def test_sweep_write_failure_is_the_only_stderr_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "--steps", "1", "--trials", "1", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("tecsim: error: cannot write output file") and err.count("\n") == 1
    with pytest.raises(ValueError, match="cannot write output file"):  # bad input, not a failed self-check
        cli._write_output("", str(tmp_path))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    bounds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    steps=st.integers(1, 60),
)
def test_grid_ends_are_exact_and_every_point_is_in_range(bounds, steps):
    p_min, p_max = bounds
    grid = cli._grid(p_min, p_max, steps)
    assert len(grid) == steps
    assert grid[0] == p_min
    if steps > 1:
        assert grid[-1] == p_max
    assert all(p_min <= p <= p_max for p in grid)
    assert grid == sorted(grid)
    for i, p in enumerate(grid[1:-1], 1):  # inner points keep the linear formula's value
        assert p == p_min + (p_max - p_min) * i / (steps - 1)


# ends where rounding comes closest to leaving [p_min, p_max]: p_min on either side of p_max / 2, where the
# span stops being exact; p_min = p_max (1 - 2^-52), a few ulps below it; both ends subnormal; and any two ends
GRID_ENDS = st.one_of(
    st.floats(0.0, 1.0).flatmap(
        lambda hi: st.tuples(st.floats(0.5 * hi * (1 - 2**-30), min(hi, 0.5 * hi * (1 + 2**-30))), st.just(hi))
    ),
    st.floats(0.0, 1.0).map(lambda hi: (hi * (1 - 2**-52), hi)),
    st.lists(st.floats(0.0, 2.0**-1022), min_size=2, max_size=2).map(sorted).map(tuple),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted).map(tuple),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ends=GRID_ENDS, steps=st.integers(1, cli.MAX_STEPS))
def test_unclamped_grid_points_stay_within_the_ends(ends, steps):
    """No clamp keeps the grid in range: monotone rounding does (the argument is in ``cli._grid``)."""
    p_min, p_max = ends
    grid = cli._grid(p_min, p_max, steps)
    assert len(grid) == steps and grid[0] == p_min and (steps == 1 or grid[-1] == p_max)
    assert all(p_min <= p <= p_max for p in grid), (p_min, p_max, steps)


def test_sweep_grid_reaching_one_is_not_rejected(capsys):
    code, out, err = run_cli(capsys, "sweep", "--p-min", "0.08", "--p-max", "1", "--steps", "11",
                             "--trials", "100")
    assert code == 0, err
    assert out.splitlines()[-1].startswith("1,")


def test_sweep_last_point_is_p_max_exactly(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p-max", "0.1", "--steps", "7", "--trials", "100",
                           "--format", "json")
    assert code == 0
    assert [pt["p"] for pt in json.loads(out)["points"]][::6] == [0.0, 0.1]
