"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from povmkit import cli


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "povmkit", *args],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------- build


def test_build_cyclic():
    r = run_cli("build", "cyclic", "-m", "3")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["povm"]["n"] == 3
    assert data["dilation"]["dim"] == 4
    assert data["dilation"]["method"] == "structured"
    assert data["dilation"]["padding_indices"] == [3]


def test_build_generic_method():
    r = run_cli("build", "octahedron", "--method", "generic")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["dilation"]["method"] == "generic"
    assert data["dilation"]["outcome_map"] == [[j, j] for j in range(6)]


def test_build_unknown_family_exits_2():
    assert run_cli("build", "hexagon").returncode == 2


def test_build_cyclic_without_m_exits_2():
    assert run_cli("build", "cyclic").returncode == 2


# ---------------------------------------------------------------- verify


def test_verify_single_family_text():
    r = run_cli("verify", "tetrahedron", "--states", "5")
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    assert "tetrahedron" in r.stdout


def test_verify_all_json():
    r = run_cli("verify", "--all", "--states", "3", "--format", "json")
    assert r.returncode == 0, r.stderr
    reports = json.loads(r.stdout)
    assert len(reports) == 17
    assert all(rep["passed"] for rep in reports)
    labels = {rep["label"] for rep in reports}
    assert "cyclic(m=16)" in labels
    assert "icosahedron" in labels


def test_verify_degenerate_seed_exits_3():
    r = run_cli(
        "verify", "dihedral", "-m", "3", "--alpha", "1.0", "--beta", "0.0"
    )
    assert r.returncode == 3
    assert "FAIL" in r.stdout


def test_verify_requires_family_or_all():
    assert run_cli("verify").returncode == 2


def test_verify_dihedral_from_angle():
    r = run_cli(
        "verify", "dihedral", "-m", "4", "--theta", "1.0471975511965976",
        "--states", "3", "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)[0]
    assert report["passed"]
    assert abs(report["family"]["alpha"] - np.cos(0.5235987755982988)) < 1e-12


# ---------------------------------------------------------------- simulate


def test_simulate_tetrahedron_csv():
    r = run_cli(
        "simulate", "tetrahedron", "--state", "0,0,1", "--format", "csv"
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "outcome,analytic,circuit,abs_error"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - (3 + np.sqrt(3)) / 12) < 1e-12
    assert float(first[3]) < 1e-9


def test_simulate_default_mixed_state_json():
    r = run_cli("simulate", "cyclic", "-m", "5")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert np.abs(np.array(data["analytic"]) - 0.2).max() < 1e-12
    assert data["max_abs_error"] < 1e-9


def test_simulate_amplitude_state():
    r = run_cli(
        "simulate", "cyclic", "-m", "2", "--state", "0.6,0,0.8,0"
    )
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    # |<(1,1)/sqrt2 | (0.6, 0.8)>|^2 = (1.4^2)/2 = 0.98
    assert abs(data["analytic"][0] - 0.98) < 1e-12


@pytest.mark.filterwarnings("error")
def test_simulate_large_amplitude_state_is_normalized(capsys):
    # its norm overflows unless the amplitudes are scaled first
    assert cli.main(["simulate", "cube", "--state", "1e200,0,0,0", "--format", "csv"]) == 0
    big = capsys.readouterr().out
    assert cli.main(["simulate", "cube", "--state", "1,0,0,0", "--format", "csv"]) == 0
    assert big == capsys.readouterr().out


def test_simulate_generic_method():
    r = run_cli("simulate", "dodecahedron", "--method", "generic")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["max_abs_error"] < 1e-9
    assert len(data["circuit"]) == 20


def test_simulate_bad_state_exits_2():
    r = run_cli("simulate", "cyclic", "-m", "3", "--state", "0,0,2")
    assert r.returncode == 2


# ---------------------------------------------------------------- sample


def test_sample_reports_seed_and_counts():
    r = run_cli("sample", "cyclic", "-m", "4", "--shots", "1000", "--seed", "7")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["seed"] == 7
    assert data["shots"] == 1000
    assert sum(data["counts"]) == 1000
    assert len(data["frequencies"]) == 4


def test_sample_is_deterministic():
    args = ("sample", "tetrahedron", "--shots", "2000")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 0x5EED


def test_sample_csv_has_seed_comment():
    r = run_cli(
        "sample", "cyclic", "-m", "2", "--shots", "100", "--format", "csv"
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("#")
    assert "seed" in lines[0]
    assert lines[1] == "outcome,count,frequency"
    assert len(lines) == 4


# ---------------------------------------------------------------- circuit


def test_circuit_text_output():
    r = run_cli("circuit", "cube")
    assert r.returncode == 0, r.stderr
    assert "cnot" in r.stdout
    assert "3 gates" in r.stdout


@pytest.mark.parametrize("command", ["verify", "simulate", "sample", "circuit"])
def test_no_merge_option(command):
    argv = [command, "dihedral", "-m", "3", "--theta", "1", "--no-merge"]
    if command == "sample":
        argv += ["--shots", "10"]
    r = run_cli(*argv)
    assert r.returncode == 2
    assert "unrecognized arguments: --no-merge" in r.stderr
    assert r.stdout == ""


def test_circuit_complex_beta():
    r = run_cli(
        "circuit", "dihedral", "-m", "2", "--alpha", "0.6", "--beta", "0.8j",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["n_qubits"] == 2


# ---------------------------------------------------------------- bloch


def test_bloch_csv():
    r = run_cli("bloch", "cyclic", "-m", "4", "--format", "csv")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "index,x,y,z"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert abs(float(row[1]) - 1.0) < 1e-12
    assert abs(float(row[3])) < 1e-12


def test_bloch_json_octahedron():
    r = run_cli("bloch", "octahedron")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    points = np.array(data["points"])
    assert points.shape == (6, 3)
    assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-10


# ---------------------------------------------------------------- output file


def test_output_to_file(tmp_path):
    target = tmp_path / "out.json"
    r = run_cli("build", "cyclic", "-m", "2", "--output", str(target))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
    data = json.loads(target.read_text())
    assert data["povm"]["n"] == 2


# ---------------------------------------------------------------- bad input


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dihedral", "-m", "3", "--theta", "nan"],
        ["verify", "dihedral", "-m", "3", "--alpha", "nan", "--beta", "0.8"],
        ["verify", "cyclic", "-m", "4", "--states", "-5"],
        ["verify", "cyclic", "-m", "4", "--states", "0"],
        ["sample", "tetrahedron", "--shots", "10", "--seed", "-1"],
        ["build", "cyclic", "-m", "100000"],
        ["simulate", "tetrahedron", "--state", "nan,0,0"],
        ["simulate", "tetrahedron", "--state", "1,0,inf,0"],
        ["sample", "tetrahedron", "--state", "0,nan,0", "--shots", "10"],
        ["verify", "cyclic", "-m", "4", "--seed", "-1"],
        ["simulate", "cube", "--state", "1e308,1e308,0"],
        # seed amplitudes whose squares overflow a float
        ["verify", "dihedral", "-m", "3", "--alpha", "1e200", "--beta", "0.5"],
        ["simulate", "dihedral", "-m", "3", "--alpha", "0.5", "--beta", "1e200"],
        ["bloch", "dihedral", "-m", "3", "--alpha", "0.6", "--beta", "1e200j"],
        # flag values that do not parse as their type
        ["verify", "dihedral", "-m", "3", "--alpha", "0.6", "--beta", "x"],
        ["bloch", "dihedral", "-m", "3", "--alpha", "0.6", "--beta", "0.8+"],
        ["verify", "dihedral", "-m", "3", "--alpha", "x", "--beta", "0.8"],
        ["verify", "cyclic", "-m", "x"],
        ["verify", "cyclic", "-m", "2.5"],
        ["verify", "dihedral", "-m", "3", "--theta", "x"],
        ["verify", "--all", "--states", "x"],
        ["verify", "--all", "--seed", "x"],
        ["sample", "cube", "--shots", "2.5"],
        ["sample", "cube", "--shots", "9223372036854775808"],
        ["simulate", "cube", "--state", "0,0,1.0000001"],
        # over 2^47 bytes: refused at once, whatever the overcommit setting
        ["bloch", "cyclic", "-m", "1000000000000000"],
        ["verify", "cyclic", "-m", "4", "--states", "1000000000000000"],
        # states whose (n, 2, 2) complex stack numpy cannot size
        ["verify", "cyclic", "-m", "4", "--states", "2305843009213693952"],
        ["verify", "cyclic", "-m", "4", "--states", "9223372036854775808"],
        # a family argument that would be ignored
        ["verify", "cube", "--all"],
        ["verify", "--all", "-m", "3"],
        ["verify", "dihedral", "-m", "3", "--theta", "1", "--alpha", "0.6", "--beta", "0.8"],
        ["circuit", "cube", "-m", "7"],
        ["bloch", "cyclic", "-m", "4", "--theta", "1"],
        ["verify", "--all", "--theta", "1"],
        ["verify", "cyclic", "-m", "4", "--alpha", "0.6"],
        ["circuit", "dihedral", "-m", "3", "--theta", "1", "--beta", "0.8"],
        ["simulate", "tetrahedron", "--theta", "1"],
        ["sample", "cube", "--alpha", "0.6", "--beta", "0.8", "--shots", "10"],
        ["build", "octahedron", "-m", "3"],
        # a ring without -m, which the family itself refuses
        ["verify", "cyclic"],
        ["verify", "dihedral", "--theta", "1"],
        ["circuit", "dihedral", "--alpha", "0.6", "--beta", "0.8"],
    ],
    ids=[
        "theta-nan",
        "alpha-nan",
        "states-negative",
        "states-zero",
        "seed-negative",
        "register-cap",
        "bloch-state-nan",
        "amplitude-state-inf",
        "sample-state-nan",
        "verify-seed-negative",
        "bloch-state-overflow",
        "verify-alpha-overflow",
        "simulate-beta-overflow",
        "bloch-imaginary-beta-overflow",
        "beta-not-a-number",
        "beta-half-a-complex",
        "alpha-not-a-number",
        "m-not-a-number",
        "m-not-an-integer",
        "theta-not-a-number",
        "states-not-a-number",
        "seed-not-a-number",
        "shots-not-an-integer",
        "shots-over-int64",
        "state-just-outside-the-ball",
        "bloch-out-of-memory",
        "verify-out-of-memory",
        "states-past-array-size",
        "states-past-array-dimension",
        "all-with-family",
        "all-with-m",
        "theta-with-alpha-beta",
        "platonic-with-m",
        "cyclic-with-theta",
        "all-with-theta",
        "cyclic-with-alpha",
        "theta-with-beta",
        "simulate-platonic-with-theta",
        "sample-platonic-with-alpha-beta",
        "build-platonic-with-m",
        "cyclic-without-m",
        "theta-without-m",
        "alpha-beta-without-m",
    ],
)
@pytest.mark.filterwarnings("error")
def test_invalid_input_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("error: ") and err.count("\n") == 1
    # short: a huge value prints in exponent form, not digit by digit
    assert len(err) < 160


@pytest.mark.parametrize("command", ["verify", "bloch"])
def test_a_ring_of_one_outcome_is_refused_by_its_family(command, capsys):
    assert cli.main([command, "cyclic", "-m", "1"]) == 2
    assert capsys.readouterr().err == "error: cyclic family needs m >= 2\n"


def test_an_unparsable_flag_names_the_flag(capsys):
    assert cli.main(["verify", "dihedral", "-m", "3", "--alpha", "0.6", "--beta", "x"]) == 2
    assert capsys.readouterr().err == "error: argument --beta: invalid complex value: 'x'\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["4", "3.2", "-4", "-3.2", "9"])
def test_polar_angle_past_pi_is_named_in_its_error(theta, capsys):
    # cos(theta / 2) < 0: once "seed amplitude alpha must be nonnegative",
    # though no --alpha was given
    assert cli.main(["verify", "dihedral", "-m", "3", "--theta", theta]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: polar angle theta={float(theta)}")
    assert "alpha" not in err and out == ""


@pytest.mark.parametrize("command", ["build", "verify", "simulate", "sample", "circuit"])
def test_register_cap_comes_before_point_scan(command, monkeypatch, capsys):
    import povmkit.families

    def no_scan(m, alpha, beta):
        raise AssertionError("the degeneracy check ran")

    monkeypatch.setattr(povmkit.families, "_ring_separation", no_scan)
    argv = [command, "dihedral", "-m", "5000", "--theta", "1"]
    if command == "sample":
        argv += ["--shots", "10"]
    assert cli.main(argv) == 2
    assert "register cap" in capsys.readouterr().err


def test_bloch_is_not_capped(capsys):
    assert cli.main(["bloch", "cyclic", "-m", "5000", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5001


def test_unwritable_output_exits_4(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert cli.main(["build", "cyclic", "-m", "2", "--output", str(target)]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_cli_import_leaves_the_thread_pool_unloaded():
    # sample imports concurrent.futures only when it runs spans on threads,
    # so a cold start does not pay for it (and for logging)
    code = "import sys, povmkit.cli; print('concurrent.futures' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_json_output_refuses_nan():
    assert json.loads(cli._json({"p": [0.5, 1e300]})) == {"p": [0.5, 1e300]}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._json({"p": [bad]})
