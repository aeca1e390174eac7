import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from totconn import transfer
from totconn.cli import main
from totconn.linalg import ONE, vec_add
from tests.test_convolution import torus_model
from tests.test_minimal import circle_cdga


def run(argv):
    return main(argv)


def test_dupont_verify_passes():
    assert run(["dupont", "verify", "--n", "1", "--max-poly-deg", "2"]) == 0


def test_dupont_verify_corruption_detected(monkeypatch, capsys):
    Int = transfer.dupont_Int
    monkeypatch.setattr(transfer, "dupont_Int",
                        lambda form, n: vec_add({(0,): ONE}, Int(form, n)))
    assert run(["dupont", "verify", "--n", "1", "--max-poly-deg", "2"]) == 1
    assert "witness:" in capsys.readouterr().out


def test_dupont_verify_has_no_corrupt_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dupont", "verify", "--n", "1", "--corrupt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt" in capsys.readouterr().err


def test_dupont_n0_trivially_passes():
    assert run(["dupont", "verify", "--n", "0", "--max-poly-deg", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["dupont", "verify", "--n", "-1"],
    ["dupont", "verify", "--n", "1", "--max-poly-deg", "-3"],
    ["transfer", "nc", "--n", "-1", "--arity", "2"],
    ["transfer", "nc", "--n", "1", "--arity", "0"],
    ["pipeline", "--input", "circle", "--trunc", "0"],
    ["pipeline", "--input", "circle", "--trunc", "1"],
    ["pipeline", "--input", "circle", "--arity-cap", "1"],
    ["conv", "fiber-lie", "--input", "model.json", "--trunc", "1"],
    ["conn", "transport", "--input", "conn.json", "--path", "path.json",
     "--order", "0"],
    ["minimal-model", "--input", "B.json", "--arity", "0"],
    ["tot", "cohomology", "--group-rank", "-1"],
    ["tot", "cohomology", "--level-cap", "-1"],
    ["tot", "cohomology", "--poly-deg-cap", "-1"],
    ["tot", "product", "--inputs", "x.json", "--level-cap", "-1"],
    ["tot", "product", "--inputs", "x.json", "--arity-cap", "-1"],
])
def test_negative_sizes_are_parse_errors(argv, capsys):
    # a negative size used to verify nothing and exit 0; a size too small
    # to build anything used to fail late, as a cap or input error
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_minimal_model_below_arity_two_is_a_parse_error(capsys):
    # --arity 1 used to print a model with no m2 ("maps": {}) and exit 0
    circle = str(Path(__file__).parent / "golden" / "circle.json")
    with pytest.raises(SystemExit) as exc:
        run(["minimal-model", "--input", circle, "--arity", "1", "--json"])
    assert exc.value.code == 2
    assert "must be at least 2, got 1" in capsys.readouterr().err
    assert run(["minimal-model", "--input", circle, "--arity", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["model"]["maps"]


def test_transfer_nc_n_above_nine_is_a_parse_error(capsys):
    # L_I is named by one digit per vertex, so n = 10 has ambiguous names
    with pytest.raises(SystemExit) as exc:
        run(["transfer", "nc", "--n", "10", "--arity", "2", "--json"])
    assert exc.value.code == 2
    assert "must be at most 9, got 10" in capsys.readouterr().err


def test_dupont_verify_n_above_nine_is_a_parse_error(capsys):
    # the side conditions are checked on the contraction onto nc_space(n)
    with pytest.raises(SystemExit) as exc:
        run(["dupont", "verify", "--n", "10"])
    assert exc.value.code == 2
    assert "must be at most 9, got 10" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--level-cap", "--poly-deg-cap"])
def test_pipeline_has_no_tot_caps(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--input", "circle", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_transfer_nc_json(capsys):
    assert run(["transfer", "nc", "--n", "1", "--arity", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "Cinf"
    assert "2" in data["maps"]


def test_tot_cohomology_circle(capsys):
    assert run(["tot", "cohomology", "--window", "0..1", "--group-rank", "1",
                "--poly-deg-cap", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == {"0": 1, "1": 1}


def test_tot_cohomology_empty_window_is_an_input_error(capsys):
    # a window with lo > hi used to print an empty table and exit 0
    with pytest.raises(SystemExit) as exc:
        run(["tot", "cohomology", "--window", "2..1"])
    assert exc.value.code == 2
    assert "0 <= lo <= hi" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["1", "a..b", "3..1"])
def test_tot_cohomology_malformed_window_is_a_parse_error(window, capsys):
    # "1" used to end in "input error: not enough values to unpack"
    with pytest.raises(SystemExit) as exc:
        run(["tot", "cohomology", "--window", window])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --window: must be lo..hi" in err
    assert repr(window) in err


@pytest.mark.parametrize("level_cap", ["0", "1"])
def test_tot_cohomology_level_cap_below_the_window_is_an_input_error(level_cap, capsys):
    # these caps printed negative Betti numbers (b2 = -3) and exited 0
    assert run(["tot", "cohomology", "--level-cap", level_cap]) == 2
    assert "below max_degree 2" in capsys.readouterr().err


def test_tot_product_with_closed_form(tmp_path, capsys):
    payload = {
        "group_rank": 1,
        "elements": [
            {"components": [{"p": 1, "q": 0,
                             "form": [{"coeff": "1", "exps": [0, 1], "dts": []}]},
                            {"p": 0, "q": 1,
                             "form": [{"coeff": "1", "exps": [0], "dts": [1]}]}]},
            {"components": [{"p": 1, "q": 0,
                             "form": [{"coeff": "2", "exps": [0, 2], "dts": []}]}]},
        ],
    }
    f = tmp_path / "inputs.json"
    f.write_text(json.dumps(payload))
    assert run(["tot", "product", "--inputs", str(f), "--degree1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed_form_agrees"] is True


def relabel_as_one_form(elements):
    elements[0]["components"][1]["q"] = 1


def repeat_with_other_coefficients(elements):
    comps = elements[0]["components"]
    again = json.loads(json.dumps(comps[1]))
    again["form"][0]["coeff"] = "5"
    comps.append(again)


def negative_level(elements):
    elements[1]["components"][0]["p"] = -1


@pytest.mark.parametrize("corrupt, message", [
    (relabel_as_one_form, "not of degree 1"),
    (repeat_with_other_coefficients, "listed twice"),
    (negative_level, "negative"),
])
def test_tot_product_refuses_malformed_components(tmp_path, capsys, corrupt, message):
    # each of these changed the product and still exited 0: the (2,0)
    # component of element 0 declared as q = 1 or repeated (the last copy
    # won), and p = -1 on element 1
    golden = Path(__file__).parent / "golden" / "tot_mixed_r1_a3_inputs.json"
    data = json.loads(golden.read_text())
    assert [c["p"] for c in data["elements"][0]["components"]][1] == 2
    corrupt(data["elements"])
    f = tmp_path / "inputs.json"
    f.write_text(json.dumps(data))
    assert run(["tot", "product", "--inputs", str(f), "--level-cap", "2",
                "--arity-cap", "5", "--json"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err


def test_conv_fiber_lie(tmp_path, capsys):
    model = torus_model()
    f = tmp_path / "model.json"
    f.write_text(json.dumps(model.to_json()))
    assert run(["conv", "fiber-lie", "--input", str(f), "--trunc", "4",
                "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 2
    assert data["ideal_generators"] == [{"[w1,w2]": "1"}] or \
        data["ideal_generators"] == [{"[w1,w2]": "-1"}]


TAIL = str(Path(__file__).parent / "golden" / "tail_model.json")


@pytest.mark.parametrize("argv, want", [
    (["tot", "cohomology", "--window", "0..2", "--group-rank", "2"],
     "betti:\n  0: 1\n  1: 2\n  2: 1\n"),
    (["conv", "fiber-lie", "--input", TAIL, "--trunc", "4"],
     "generators:\n  a\n  b\n  c\n"
     "ideal_generators:\n  [a,[a,b]]: 1\n  [a,b]: 1\n"
     "graded_dims:\n  1: 3\n  2: 2\n  3: 5\n"
     "dim: 10\n"),
])
def test_output_without_json(argv, want, capsys):
    # nested dicts, a list of scalars, a list of dicts and a scalar value
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_conv_mc_check(tmp_path):
    from totconn.convolution import Generators, morphism_to_mc
    from tests.test_convolution import torus_inclusion
    W, B, incl = torus_inclusion()
    gens = Generators(W.space)
    alpha = morphism_to_mc(incl, gens, trunc=3)
    series = {}
    for w, val in alpha.data.items():
        label = "|".join("%d:%s" % gens.keys[i] for i in w)
        series[label] = {"%d:%s" % k: str(c) for k, c in val.items()}
    payload = {"source": W.to_json(), "target": B.to_json(), "trunc": 3,
               "series": series}
    f = tmp_path / "mc.json"
    f.write_text(json.dumps(payload))
    assert run(["conv", "mc-check", "--input", str(f)]) == 0
    # corrupt it
    series[next(iter(series))] = {"2:dxdy": "5"}
    f.write_text(json.dumps(payload))
    assert run(["conv", "mc-check", "--input", str(f)]) == 1


def test_minimal_model_cli(tmp_path, capsys):
    f = tmp_path / "B.json"
    f.write_text(json.dumps(circle_cdga().to_json()))
    assert run(["minimal-model", "--input", str(f), "--arity", "3",
                "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["massey"] == {}


def connection_payload(include_ideal=True):
    payload = {
        "m": 2, "k": 3, "generators": ["X", "Y"],
        "ideal": [{"trunc": 3, "terms": {"[X,Y]": "1"}}] if include_ideal else [],
        "coefficients": {
            "X": [{"coeff": "1", "exps": [0, 0], "dts": [1]}],
            "Y": [{"coeff": "1", "exps": [0, 0], "dts": [2]}],
        },
    }
    return payload


def test_conn_flat_check(tmp_path):
    f = tmp_path / "conn.json"
    f.write_text(json.dumps(connection_payload(True)))
    assert run(["conn", "flat-check", "--input", str(f)]) == 0
    f.write_text(json.dumps(connection_payload(False)))
    assert run(["conn", "flat-check", "--input", str(f)]) == 1


def test_conn_transport_and_holonomy(tmp_path, capsys):
    f = tmp_path / "conn.json"
    f.write_text(json.dumps(connection_payload(True)))
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"]]}))
    assert run(["conn", "transport", "--input", str(f), "--path", str(p),
                "--order", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["transport"]["X"] == "1"
    assert data["grouplike"] is True
    assert run(["conn", "holonomy", "--input", str(f), "--loop", "a b a- b-",
                "--basepoint", "0,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["holonomy"] == {"1": "1"}


@pytest.mark.parametrize("point", [["0"], ["0", "0", "1"]])
def test_conn_points_of_the_wrong_dimension_are_input_errors(tmp_path, capsys, point):
    # m = 2: a 1-coordinate point used to end in an IndexError and a
    # 3-coordinate one to be cut to two coordinates silently
    golden = Path(__file__).parent / "golden"
    conn = str(golden / "nilpotent_connection.json")
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"vertices": [["0", "0"], point]}))
    assert run(["conn", "transport", "--input", conn, "--path", str(p)]) == 2
    assert "coordinates" in capsys.readouterr().err
    assert run(["conn", "holonomy", "--input", conn, "--loop", "a b",
                "--basepoint", ",".join(point)]) == 2
    assert "coordinates" in capsys.readouterr().err


def test_conn_transport_order_cuts_the_series(capsys):
    # the order-2 transport is the order-4 one cut at word length 2
    golden = Path(__file__).parent / "golden"
    argv = ["conn", "transport", "--input", str(golden / "nilpotent_connection.json"),
            "--path", str(golden / "path.json"), "--json", "--order"]
    assert run(argv + ["4"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert run(argv + ["2"]) == 0
    cut = json.loads(capsys.readouterr().out)
    assert cut["grouplike"] is True
    want = {w: c for w, c in full["transport"].items()
            if w == "1" or w.count(".") < 2}
    assert cut["transport"] == want
    assert (len(cut["transport"]), len(full["transport"])) == (7, 19)


def test_conn_transport_cap_overflow(tmp_path):
    f = tmp_path / "conn.json"
    f.write_text(json.dumps(connection_payload(True)))
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"]]}))
    assert run(["conn", "transport", "--input", str(f), "--path", str(p),
                "--order", "9"]) == 3


def cli_command(argv):
    """(command, environment) that run ``python -m totconn.cli argv`` on
    this source tree."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [sys.executable, "-m", "totconn.cli"] + list(argv), env


def test_closed_stdout_is_not_an_input_error():
    # a reader that leaves early, as in ``totconn ... | head -1``: the run
    # ends with status 141 (128 + SIGPIPE) and prints nothing
    cmd, env = cli_command(["transfer", "nc", "--n", "2", "--arity", "4", "--json"])
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert err == b""


def test_input_error_exit_code(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["minimal-model", "--input", str(f)]) == 2
    assert run(["pipeline", "--input", str(tmp_path / "missing.json")]) == 2


def test_pipeline_cli_roundtrip(tmp_path, capsys):
    assert run(["pipeline", "--input", "circle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fiber"]["dims_per_k"] == {"2": 1, "3": 1, "4": 1}
    assert data["connection"]["flat"] is True
    # deterministic output bytes for a fixed config
    assert run(["pipeline", "--input", "circle", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == data


def test_pipeline_custom_input_revalidates(tmp_path, capsys):
    f = tmp_path / "B.json"
    f.write_text(json.dumps(circle_cdga().to_json()))
    assert run(["pipeline", "--input", str(f), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    loaded = json.dumps(data, sort_keys=True)
    assert json.loads(loaded) == data
