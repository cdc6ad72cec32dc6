import re

import numpy as np
import pytest

from nanotile import cli, kernels, net


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    p = tmp_path_factory.mktemp("img") / "frame.pgm"
    img = np.random.default_rng(3).integers(0, 256, (240, 320)).astype(np.uint8)
    p.write_bytes(b"P5\n320 240\n255\n" + img.tobytes())
    return str(p)


@pytest.fixture(scope="module")
def zero_weights(tmp_path_factory):
    p = tmp_path_factory.mktemp("w") / "zero.pdrn"
    graph = net.build_dronet()
    net.save_weights(net.zero_store(graph), graph, str(p))
    return str(p)


def test_infer_zero_weights(capsys, frame, zero_weights):
    code, out, _ = run(capsys, "infer", "--weights", zero_weights,
                       "--image", frame)
    assert code == 0
    assert "steering 0.0000, collision 0.5000" in out


def test_infer_tiled_verdict(capsys, frame, zero_weights):
    code, out, _ = run(capsys, "infer", "--weights", zero_weights,
                       "--image", frame, "--tiled", "--l1-budget", "32768")
    assert code == 0
    assert "bit-exact vs untiled: yes" in out


def test_infer_tiled_names_the_first_differing_tensor(capsys, monkeypatch, frame, tmp_path):
    # a mutant that zeroes conv_3's last output row; every tensor is
    # compared, so the verdict fails even where the heads would not show it
    p = str(tmp_path / "w.pdrn")
    assert run(capsys, "gen-weights", "--seed", "7", "--out", p)[0] == 0
    conv2d = kernels.conv2d

    def mutant(x, w, b, stride, fused_relu=False, fused_pool=False, parts=None, *rest):
        out = conv2d(x, w, b, stride, fused_relu, fused_pool, parts, *rest)
        # only the executor passes a plan's row ranges, and conv_3 is the one
        # stride-1 convolution with 32 x 32 x 3 x 3 weights
        if parts is not None and w.shape == (32, 32, 3, 3) and stride == 1:
            out[:, -1] = 0
        return out

    monkeypatch.setattr(kernels, "conv2d", mutant)
    code, out, _ = run(capsys, "infer", "--weights", p, "--image", frame, "--tiled")
    assert code == 1
    assert re.search(r"bit-exact vs untiled: NO \(conv_3: \d+ of 20000 elements differ\)", out)


def test_infer_missing_file(capsys, frame):
    code, _, err = run(capsys, "infer", "--weights", "/nope.pdrn",
                       "--image", frame)
    assert code != 0
    assert "file not found" in err


def test_gen_weights_random_roundtrip(capsys, tmp_path, frame):
    p = str(tmp_path / "w.pdrn")
    code, _, _ = run(capsys, "gen-weights", "--seed", "7", "--out", p)
    assert code == 0
    code, out, _ = run(capsys, "infer", "--weights", p, "--image", frame,
                       "--tiled")
    assert code == 0 and "bit-exact vs untiled: yes" in out


def test_plan_output(capsys):
    code, out, _ = run(capsys, "plan", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14                      # header + 13 node kernels
    assert lines[1].split(",")[1] == "spatial"   # first node kernel


def test_plan_infeasible_budget(capsys):
    code, _, err = run(capsys, "plan", "--l1-budget", "8192")
    assert code == 1
    assert "conv_1" in err and "infeasible" in err


def test_mem_output(capsys):
    code, out, _ = run(capsys, "mem")
    assert code == 0
    assert "peak" in out and "headroom" in out
    code, out, _ = run(capsys, "mem", "--single", "--csv")
    assert code == 0
    assert out.startswith("step,stack0")


def test_cost_output(capsys):
    code, out, _ = run(capsys, "cost", "--vdd", "1.0", "--fc", "50",
                       "--cl", "100")
    assert code == 0
    fps = float(out.split("-> ")[1].split(" fps")[0])
    assert 5.0 <= fps <= 7.0


def test_sweep_output(capsys):
    code, out, _ = run(capsys, "sweep")
    assert code == 0
    assert "# min energy: 1.0 V, FC 50 MHz, CL 100 MHz" in out


def test_react_output(capsys):
    code, out, _ = run(capsys, "react", "--fps", "5,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("5") and lines[1].endswith("collision")
    assert lines[2].startswith("10") and lines[2].endswith("stopped")


def test_react_too_many_frames(capsys):
    code, _, err = run(capsys, "react", "--fps", "10,1e9")
    assert code == 1
    assert err.startswith("error: 1e+09 fps over a 5 s approach is 5e+09 frames, "
                          "more than 1000000")


def test_react_bad_trace(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_s\n0.0\n")
    code, _, err = run(capsys, "react", "--trace", str(bad))
    assert code == 1
    assert err.startswith("error: ") and "header must name timestamp_s and c" in err


@pytest.mark.parametrize("row, message", [
    ("0.0,0.1,junk", "data row 1 is long"),
    ("nan,0.1", "data row 1: timestamp_s 'nan' is not a finite number"),
], ids=["extra-field", "nan-time"])
def test_react_malformed_trace_row(capsys, tmp_path, row, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"timestamp_s,c\n{row}\n")
    code, _, err = run(capsys, "react", "--trace", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: {message}")


def test_mission_output(capsys):
    code, out, _ = run(capsys, "mission", "--frames", "4")
    assert code == 0
    assert "# protocol: ok" in out


def test_graph_output(capsys):
    code, out, _ = run(capsys, "graph", "--csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 19


def test_metrics(capsys, tmp_path):
    pred = tmp_path / "pred.csv"
    labels = tmp_path / "lab.csv"
    labels.write_text("0.1,1\n-0.2,0\n0.4,1\n0.0,0\n")
    pred.write_text("0.1,0.9\n-0.2,0.2\n0.4,0.8\n0.0,0.1\n")
    code, out, _ = run(capsys, "metrics", "--pred", str(pred),
                       "--labels", str(labels))
    assert code == 0
    assert "EVA 1.0000" in out and "RMSE 0.0000" in out
    assert "Accuracy 1.0000" in out and "F1 1.0000" in out


def test_metrics_constant_prediction_eva_zero(tmp_path):
    labels = tmp_path / "lab.csv"
    pred = tmp_path / "pred.csv"
    ys = [0.3, -0.1, 0.5, 0.7, -0.4]
    mean = sum(ys) / len(ys)
    labels.write_text("".join(f"{y},0\n" for y in ys))
    pred.write_text("".join(f"{mean},0\n" for _ in ys))
    m = cli.evaluate_metrics(str(pred), str(labels))
    assert m["eva"] == pytest.approx(0.0, abs=1e-12)
    assert m["f1"] == 0.0                        # no positives anywhere


def test_metrics_errors(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0.1,0.5\n")
    b.write_text("0.1,1\n0.2,0\n")
    with pytest.raises(ValueError, match="length mismatch"):
        cli.evaluate_metrics(str(a), str(b))
    a.write_text("")
    with pytest.raises(ValueError, match="empty"):
        cli.evaluate_metrics(str(a), str(b))
    a.write_text("0.1,0.5\n0.2,0.4\n")
    b.write_text("0.1,2\n0.2,0\n")
    with pytest.raises(ValueError, match="labels"):
        cli.evaluate_metrics(str(a), str(b))


@pytest.mark.parametrize("text,line", [
    ("0.1,abc\n0.2,0\n0.3,1\n", 1),          # a header has no number in it
    ("steering,collision\n0.1,nan\n", 2),
    ("0.1,1\n# note\n0.2,inf\n", 3),
    ("0.1,1\n0.2,0,7\n", 2),
    ("0.1,1\n0.2\n", 2),
    ("0.1,1\nsteering,collision\n", 2),
])
def test_metrics_rows_name_the_file_and_line(tmp_path, text, line):
    pred, labels = tmp_path / "pred.csv", tmp_path / "lab.csv"
    pred.write_text(text)
    labels.write_text("0.2,0\n0.3,1\n")
    with pytest.raises(ValueError, match=f"pred.csv: line {line}: expected two finite"):
        cli.evaluate_metrics(str(pred), str(labels))


def test_metrics_skip_one_header_row(tmp_path):
    pred, labels = tmp_path / "pred.csv", tmp_path / "lab.csv"
    pred.write_text("# predictions\nsteering,collision\n0.2,0.1\n0.3,0.9\n")
    labels.write_text("0.2,0\n0.3,1\n")
    m = cli.evaluate_metrics(str(pred), str(labels))
    assert m["rmse"] == 0.0 and m["accuracy"] == 1.0
