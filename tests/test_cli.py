import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import convexhyper
from convexhyper import Polytope, steiner
from convexhyper.bodies import MAX_EXTENT
from convexhyper.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def ball_file(tmp_path):
    p = tmp_path / "ball.json"
    p.write_text(json.dumps({"type": "ball", "center": [0.0, 0.0], "radius": 1.0}))
    return str(p)


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(
        json.dumps(
            {"type": "polytope", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
        )
    )
    return str(p)


def test_support(runner, ball_file):
    res = runner.invoke(main, ["support", ball_file, "--dir", "3,4"])
    assert res.exit_code == 0
    assert float(res.output) == 5.0


def test_support_prints_17_digits(runner, tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"type": "ball", "center": [0.0, 0.0], "radius": math.pi}))
    res = runner.invoke(main, ["support", str(p), "--dir", "1,0"])
    assert res.output.strip() == "3.1415926535897931"


def test_support_huge_direction_is_scaled_or_refused(runner, square_file):
    # h is positively homogeneous: an overflowing direction is scaled first,
    # and a value past the float range is one error line, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = runner.invoke(main, ["support", square_file, "--dir", "1e308,-1e307"])
        huge = runner.invoke(main, ["support", square_file, "--dir", "1e308,1e308"])
    assert big.exit_code == 0 and float(big.output) == 1.1e308
    assert huge.exit_code == 2 and huge.stdout == ""
    assert huge.stderr.startswith("error:") and huge.stderr.count("\n") == 1


def test_support_subnormal_direction(runner, square_file):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["support", square_file, "--dir", "1e-320,0"])
    assert res.exit_code == 0
    assert float(res.output) == 1e-320


def test_hausdorff(runner, ball_file, square_file):
    res = runner.invoke(main, ["hausdorff", square_file, ball_file])
    assert res.exit_code == 0
    assert abs(float(res.output) - (math.sqrt(2) - 1)) < 1e-9


def test_steiner_and_recenter(runner, tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"type": "ball", "center": [0.25, -0.5], "radius": 1.0}))
    res = runner.invoke(main, ["steiner", str(p)])
    assert res.exit_code == 0
    assert [float(v) for v in res.output.split()] == [0.25, -0.5]
    out = tmp_path / "c.json"
    res = runner.invoke(main, ["recenter", str(p), "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["body"]["center"] == [0.0, 0.0]


def test_steiner_of_rotated_flat_polygon(runner, tmp_path):
    # a generically rotated planar polygon in R^3 has a sliver hull
    ang = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    flat = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(7)])
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    p = tmp_path / "polygon.json"
    p.write_text(json.dumps({"type": "polytope", "vertices": (flat @ q.T).tolist()}))
    res = runner.invoke(main, ["steiner", str(p)])
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output
    assert np.isfinite([float(v) for v in res.output.split()]).all()


def test_truncate_and_exit_code_3(runner, square_file, tmp_path):
    out = tmp_path / "t.json"
    res = runner.invoke(
        main,
        ["truncate", "--u", "1,0", "--eps", "0.5", "--in", square_file, "--out", str(out)],
    )
    assert res.exit_code == 0
    res = runner.invoke(
        main,
        ["truncate", "--u", "1,0", "--eps", "9", "--in", square_file, "--out", str(out)],
    )
    assert res.exit_code == 3


@pytest.mark.parametrize("raw, plain", [("1e308,1e308", [1.0, 1.0]), ("1e-320,0", [1.0, 0.0]), ("0.6,0.8", [0.6, 0.8])])
def test_truncate_normalizes_any_finite_direction(runner, square_file, tmp_path, raw, plain):
    # a plain norm of the first two overflows or underflows; numpy warnings
    # are errors here, so any of them would fail the command
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["truncate", "--u", raw, "--eps", "0.5", "--in", square_file, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    u = np.array(plain)
    square = convexhyper.Polytope(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]))
    want = convexhyper.truncate(square, convexhyper.TruncationSpec(u / np.linalg.norm(u), 0.5))
    assert out.read_text() == convexhyper.serialize_body(convexhyper.BodyDocument(want)) + "\n"


def test_truncate_rejects_zero_direction(runner, square_file, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["truncate", "--u", "0,0", "--eps", "0.5", "--in", square_file,
                                   "--out", str(tmp_path / "t.json")])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


def test_validation_exit_code_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "ball", "center": [0, 0], "radius": -2.0}))
    res = runner.invoke(main, ["support", str(bad), "--dir", "1,0"])
    assert res.exit_code == 2


def test_regularize_and_curvature(runner, square_file, tmp_path):
    out = tmp_path / "reg.json"
    res = runner.invoke(
        main,
        [
            "regularize", "--t", "0.1", "--in", square_file, "--out", str(out),
            "--grid-2d", "512", "--angular", "256", "--radial", "8",
        ],
    )
    assert res.exit_code == 0
    res = runner.invoke(main, ["curvature", str(out), "--grid-2d", "512"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["positive"] is True


def test_symmetries(runner, square_file):
    res = runner.invoke(main, ["symmetries", "--in", square_file, "--tol", "1e-9"])
    assert res.exit_code == 0
    assert json.loads(res.output)["count"] == 8


def test_congruence_output(runner, square_file, ball_file):
    res = runner.invoke(
        main, ["congruence", square_file, ball_file, "--coarse", "90", "--tol", "0.1"]
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert set(payload) == {"distance", "rotation_matrix", "certificate_size", "same_class"}
    assert payload["same_class"] is False


def test_plot_empty_and_overlay(runner, tmp_path, square_file, ball_file):
    svg = tmp_path / "o.svg"
    res = runner.invoke(main, ["plot", str(svg)])
    assert res.exit_code == 0
    assert svg.read_text().startswith("<svg")
    res = runner.invoke(main, ["plot", str(svg), square_file, ball_file])
    assert res.exit_code == 0
    assert svg.read_text().count("<path") == 2


def test_corpus_determinism(runner, tmp_path):
    d1 = tmp_path / "c1"
    d2 = tmp_path / "c2"
    for d in (d1, d2):
        res = runner.invoke(
            main,
            ["corpus", "--seed", "3", "--spec", "poly:n=2,verts=8,count=2", "--out-dir", str(d)],
        )
        assert res.exit_code == 0
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_env_grid_override(runner, square_file, monkeypatch):
    monkeypatch.setenv("CONVEXHYPER_GRID", "64")
    res = runner.invoke(main, ["steiner", square_file])
    assert res.exit_code == 0


@pytest.mark.parametrize(
    "dim, flags, env",
    [(2, ["--grid-2d", "0"], None), (2, [], "abc"), (3, ["--grid-3d", "10"], None)],
)
def test_bad_grid_exit_code_2(runner, tmp_path, monkeypatch, dim, flags, env):
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"type": "ball", "center": [0.0] * dim, "radius": 1.0}))
    if env is not None:
        monkeypatch.setenv("CONVEXHYPER_GRID", env)
    res = runner.invoke(main, ["steiner", str(body)] + flags)
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_exit_code_2(runner, tmp_path, literal):
    body = tmp_path / "ball.json"
    body.write_text(f'{{"type": "ball", "center": [0.0, 0.0], "radius": {literal}}}')
    for command in (["steiner", str(body)], ["hausdorff", str(body), str(body)]):
        res = runner.invoke(main, command)
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.output


def test_non_finite_direction_exit_code_2(runner, square_file):
    res = runner.invoke(main, ["support", square_file, "--dir", "nan,1"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["truncate", "--u", "0,1", "--eps", "nan", "--in", "{square}", "--out", "{out}"],
        ["desymmetrize", "--budget", "nan", "--in", "{square}", "--out", "{out}"],
        ["symmetries", "--tol", "nan", "--in", "{square}"],
        ["congruence", "{square}", "{square}", "--tol", "nan", "--coarse", "8"],
        ["curvature", "{ball}", "--step", "nan"],
        ["curvature", "{ball}", "--step", "inf"],
        ["curvature", "{ball}", "--margin", "nan"],
    ],
    ids=["eps", "budget", "symmetries-tol", "congruence-tol", "step-nan", "step-inf",
         "margin"],
)
def test_non_finite_scalar_exit_code_2(runner, square_file, ball_file, tmp_path, args):
    out = tmp_path / "out.json"
    args = [a.format(square=square_file, ball=ball_file, out=out) for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
@pytest.mark.parametrize(
    "args",
    [["symmetries", "--in", "{square}", "--tol"], ["congruence", "{square}", "{square}", "--tol"]],
    ids=["symmetries", "congruence"],
)
def test_non_positive_tol_exit_code_2(runner, square_file, args, tol):
    res = runner.invoke(main, [a.format(square=square_file) for a in args] + [tol])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("flags", [["--radial", "10000000"], ["--angular", "10000000"]],
                         ids=["radial", "angular"])
def test_regularize_huge_kernel_exit_code_2(runner, square_file, tmp_path, flags):
    # the kernel is refused before anything is allocated
    out = tmp_path / "out.json"
    res = runner.invoke(main, ["regularize", "--t", "0.1", "--in", square_file, "--out", str(out)] + flags)
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.output
    assert not out.exists()


def test_symmetries_4d_exit_code_2(runner, tmp_path):
    # there is no candidate set of rotations for n = 4
    body = tmp_path / "poly4.json"
    vertices = np.random.default_rng(4).normal(size=(12, 4)).tolist()
    body.write_text(json.dumps({"type": "polytope", "vertices": vertices}))
    res = runner.invoke(main, ["symmetries", "--in", str(body)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")


_BALL = json.dumps({"type": "ball", "center": [0.0, 0.0], "radius": 1.0})


def _nested_sum(depth):
    text = _BALL
    for _ in range(depth):
        text = f'{{"type": "sum", "left": {text}, "right": {_BALL}}}'
    return text


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "ball", "center": [0.0, 0.0], "radius": "x"}',
        f'{{"type": "scaled", "factor": null, "inner": {_BALL}}}',
        '{"type": "sampled", "grid": {"type": "uniform-2d", "m": 1e400}, "values": [1.0]}',
        _nested_sum(3000),
        '{"type": "sampled", "grid": {"type": "uniform-2d", "m": 8.9}, "values": [1, 1, 1, 1, 1, 1, 1, 1]}',
        '{"type": "ball", "center": [0.0, 0.0], "radius": true}',
        '{"type": "polytope", "vertices": [[true, 0.0], [0.0, 1.0], [-1.0, 0.0]]}',
        '{"type": "ball", "center": [0.0, 0.0], "radius": "1.5"}',
    ],
    ids=[
        "radius-string", "factor-null", "grid-overflow", "deep-sum",
        "grid-fraction", "radius-bool", "vertex-bool", "radius-numeric-string",
    ],
)
def test_malformed_json_exit_code_2(runner, tmp_path, text):
    body = tmp_path / "body.json"
    body.write_text(text)
    res = runner.invoke(main, ["steiner", str(body)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "seed, spec",
    [("1", "poly:n=1,verts=4,count=1"), ("1", "poly:n=2,verts=4,count=-1"),
     ("-1", "poly:n=2,verts=5,count=1"), ("1", "poly:n=2,verts=100000000000,count=1"),
     ("1", "poly:n=40,verts=50,count=1"), ("1", "sym:n=2,verts=5,count=100000000000")],
    ids=["n=1", "count=-1", "seed=-1", "verts=1e11", "n=40", "count=1e11"],
)
def test_bad_corpus_spec_exit_code_2(runner, tmp_path, seed, spec):
    # a negative seed, a huge vertex count and n = 40 gave a traceback or
    # ran on for minutes: they are refused, not allocated
    res = runner.invoke(main, ["corpus", "--seed", seed, "--spec", spec, "--out-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.output


def test_desymmetrize_4d_exit_code_2(runner, tmp_path):
    # only n = 2, 3 are cut; the former 4-D path overran its budget
    body = tmp_path / "p4.json"
    verts = np.vstack([np.eye(4), -np.eye(4), np.full((1, 4), 0.5)])
    body.write_text(json.dumps({"type": "polytope", "vertices": verts.tolist()}))
    out = tmp_path / "out.json"
    res = runner.invoke(main, ["desymmetrize", "--budget", "0.3", "--in", str(body), "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize"])
def test_import_skips_scipy(module):
    # the smoothing kernel is rescaled to unit mass, so nothing integrates its
    # bump, and Nelder-Mead is in-repo
    src = os.path.dirname(os.path.dirname(convexhyper.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import convexhyper.cli, sys; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_minkowski_explicit(runner, square_file, tmp_path):
    out = tmp_path / "mk.json"
    res = runner.invoke(
        main, ["minkowski", square_file, square_file, "--out", str(out), "--explicit"]
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["body"]["type"] == "polytope"
    verts = np.asarray(doc["body"]["vertices"])
    assert np.abs(verts).max() == 2.0


def test_minkowski_explicit_parallel_segments(runner, tmp_path):
    paths = []
    for name, verts in (("a", [[0, 0, 0], [1, 2, 3]]), ("b", [[0.3, 0.6, 0.9], [0.5, 1, 1.5]])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"type": "polytope", "vertices": verts}))
    out = tmp_path / "mk.json"
    res = runner.invoke(main, ["minkowski", *map(str, paths), "--out", str(out), "--explicit"])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["body"]["vertices"] == [[0.3, 0.6, 0.9], [1.5, 3.0, 4.5]]


def test_sample_command(runner, ball_file, tmp_path):
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["sample", ball_file, "--out", str(out), "--grid-2d", "64"])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["body"]["type"] == "sampled"
    assert all(abs(v - 1.0) < 1e-12 for v in doc["body"]["values"])


# Flag values of every shape: integers of any size, floats with nan and
# inf, and short arbitrary text.
_ANY = st.one_of(st.integers().map(str), st.floats().map(repr), st.text(max_size=12))
_INT = st.one_of(st.integers(min_value=-4, max_value=64).map(str), _ANY)
_LAT_LON = st.one_of(st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]}x{t[1]}"), _ANY)
_VECTOR = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda v: ",".join(map(repr, v))), _ANY
)
_GRIDS = {"--grid-2d": _INT, "--grid-3d": _LAT_LON}
# corpus: seeds near zero, and specs that mostly build one or two cheap
# bodies, with refused kinds and sizes mixed in
_SEED = st.one_of(st.integers(min_value=-3, max_value=3).map(str), _ANY)
_SPEC = st.tuples(
    st.sampled_from(["poly", "sym", "poly", "box", ""]), st.sampled_from([2, 3, 2, 3, 1, 7, 40, 2**70]),
    st.sampled_from([5, 8, 12, 4, 3, -1, 4097, 10**11]), st.sampled_from([1, 2, 1, 0, -1]),
).map(lambda t: "{}:n={},verts={},count={}".format(*t))
# command -> (body pairs or single bodies, flags); congruence runs on
# polygon pairs and a polygon against a parallel body, whose exact
# objective keeps a 65,536-point coarse scan fast; regularize runs on
# polygons with a fixed 64-node grid, so accepted kernels stay cheap, and
# truncate and desymmetrize with the same grid; curvature runs on polygons at
# the default grid; corpus takes no body
_FUZZ = {
    "steiner": ([("square",), ("tri",), ("poly3",), ("sum2",)], _GRIDS),
    "support": ([("square",), ("poly3",), ("sum2",)], {"--dir": _VECTOR}),
    "hausdorff": ([("square", "tri"), ("poly3", "poly3b"), ("tri", "sum2")], _GRIDS),
    "congruence": ([("square", "tri"), ("tri", "tri"), ("tri", "sum2")], {"--tol": _ANY, "--coarse": _INT, **_GRIDS}),
    "symmetries": ([("square",), ("poly3",), ("sum2",)], {"--tol": _ANY, **_GRIDS}),
    "regularize": ([("square",), ("tri",), ("sum2",)], {"--t": _ANY, "--radial": _INT, "--angular": _INT}),
    "truncate": ([("square",), ("tri",), ("poly3",), ("sum2",)], {"--u": _VECTOR, "--eps": _ANY}),
    "curvature": ([("square",), ("tri",), ("sum2",)], {"--step": _ANY, "--margin": _ANY}),
    "desymmetrize": ([("square",), ("tri",), ("sum2",)], {"--budget": _ANY}),
    "corpus": ([()], {"--seed": _SEED, "--spec": _SPEC}),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {
        "square": {"type": "polytope", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
        "tri": {"type": "polytope", "vertices": [[1.0, 0.0], [0.0, 1.5], [-1.0, -0.5]]},
        "poly3": {"type": "polytope", "vertices": [[1, 1, 1], [-1, 1, 0], [0, -1, 1], [1, -1, -1], [0, 0, -1]]},
        "poly3b": {"type": "polytope", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
        "sum2": {"type": "sum", "left": {"type": "polytope", "vertices": [[1, 0], [0, 1], [-1, -0.5]]},
                 "right": {"type": "ball", "center": [0, 0], "radius": 0.3}},
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in docs}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flag_fuzzing_keeps_exit_code_contract(fuzz_files, data):
    command = data.draw(st.sampled_from(sorted(_FUZZ)))
    bodies, flags = _FUZZ[command]
    names = data.draw(st.sampled_from(bodies))
    takes_in = ("symmetries", "regularize", "truncate", "desymmetrize")
    args = [command] + (["--in"] if command in takes_in else []) + [fuzz_files[n] for n in names]
    root = os.path.dirname(fuzz_files["square"])
    if command in ("regularize", "truncate", "desymmetrize"):
        args += ["--out", os.path.join(root, "out.json"), "--grid-2d", "64"]
    if command == "corpus":
        args += ["--out-dir", os.path.join(root, "corpus")]
    for flag, values in flags.items():
        # corpus always gets both flags: its bodies come from them alone
        value = data.draw(values if command == "corpus" else st.none() | values, label=flag)
        if value is not None:
            args += [flag, value]
    if command == "congruence" and data.draw(st.booleans(), label="--so-n"):
        args.append("--so-n")
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2, 3, 4), (args, res.output, res.exception)
    assert "Traceback" not in res.output


_FIVE = [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]]


@pytest.mark.parametrize("vertices", [[[1, 1], [-1, 1], [-1, -1], [1, -1]], _FIVE], ids=["square", "five"])
def test_collapsed_curvature_stencil_exit_code_2(runner, tmp_path, vertices):
    # a step of 1e-160 rounds the stencil onto its centre: both bodies were
    # reported positive with exit 0
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"type": "polytope", "vertices": vertices}))
    res = runner.invoke(main, ["curvature", str(path), "--step", "1e-160"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("error:") and "rounds onto its centre" in res.stderr
    assert runner.invoke(main, ["curvature", str(path)]).exit_code == 0


@pytest.mark.parametrize("scale", [1e300, 1e200])
@pytest.mark.parametrize(
    "args",
    [["steiner", "{}"], ["hausdorff", "{}", "{}"], ["recenter", "{}", "--out", "{}.out"],
     ["curvature", "{}"], ["regularize", "--t", "0.1", "--in", "{}", "--out", "{}.out"]],
    ids=lambda args: args[0],
)
def test_huge_finite_body_is_one_error_line(runner, tmp_path, scale, args):
    # squared norms and moments of such a body overflow: refused on input
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"type": "polytope", "vertices": (np.array(_FIVE) * scale).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, [a.format(path) for a in args])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert not os.path.exists(f"{path}.out")


@pytest.mark.parametrize("scale", [2.0 * MAX_EXTENT, 1e100])
def test_body_beyond_the_hull_limit_is_refused(runner, tmp_path, scale):
    # qhull's initial simplex reads flat from about 4e76 while the rank is
    # full; the CLI's limit is the library's hull limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "polytope", "vertices": (np.array(_FIVE) * scale).tolist()}))
    res = runner.invoke(main, ["steiner", str(path)])
    assert res.exit_code == 2 and res.stderr.startswith("error:")


def test_body_at_the_size_limit_is_accepted(runner, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"type": "polytope", "vertices": (np.array(_FIVE) * MAX_EXTENT).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["steiner", str(path)])
    assert res.exit_code == 0
    got = np.array([float(v) for v in res.output.split()]) / MAX_EXTENT
    np.testing.assert_allclose(got, steiner(Polytope(_FIVE)), rtol=0, atol=1e-12)
