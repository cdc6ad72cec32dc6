import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from nanotile import fxp, net, tiler

EXPECTED_CONV_MACS = {
    # k_in * k_out * kh * kw * h_out * w_out, recomputed here by hand
    "conv_1": 1 * 32 * 5 * 5 * 100 * 100,
    "conv_2": 32 * 32 * 3 * 3 * 25 * 25,
    "conv_3": 32 * 32 * 3 * 3 * 25 * 25,
    "conv_4": 32 * 32 * 1 * 1 * 25 * 25,
    "conv_5": 32 * 64 * 3 * 3 * 13 * 13,
    "conv_6": 64 * 64 * 3 * 3 * 13 * 13,
    "conv_7": 32 * 64 * 1 * 1 * 13 * 13,
    "conv_8": 64 * 128 * 3 * 3 * 7 * 7,
    "conv_9": 128 * 128 * 3 * 3 * 7 * 7,
    "conv_10": 64 * 128 * 1 * 1 * 7 * 7,
}


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


def test_row_structure(graph):
    assert len(graph.layers) == 18
    kinds = [l.kind for l in graph.layers]
    assert kinds.count(net.CONV) == 10
    assert kinds.count(net.FC) == 2
    assert kinds.count(net.ADD) == 3
    assert sum(1 for l in graph.layers if l.fused_pool) == 1
    assert graph.tensors[net.INPUT_TENSOR] == (1, 200, 200)
    assert graph.tensors["add_2"] == (64, 13, 13)        # ceil(25/2) = 13
    assert graph.tensors["add_3"] == (128, 7, 7)
    assert graph.layer("fully_1").k_in == 6272


def test_bypass_edges_skip_two_conv_main_paths(graph):
    for join, byp, main in (("add_1", "conv_4", ("conv_2", "conv_3")),
                            ("add_2", "conv_7", ("conv_5", "conv_6")),
                            ("add_3", "conv_10", ("conv_8", "conv_9"))):
        spec = graph.layer(join)
        assert spec.inputs == (main[1], byp)
        assert graph.layer(byp).inputs == graph.layer(main[0]).inputs


def _edited(graph, row, **change):
    """DroNet's rows with one row's fields changed."""
    return tuple(dataclasses.replace(r, **change) if r.name == row else r for r in graph.layers)


@pytest.mark.parametrize("row, change", [
    ("conv_5", {"h_in": 26, "w_in": 26}),   # reads relu_2, 32x25x25; still 13x13 out
    ("relu_1", {"k_in": 16}),
    ("add_2", {"h_in": 14}),
    ("fully_1", {"k_in": 6271}),
    ("fully_2", {"h_in": 7}),
])
def test_declared_input_extents_must_match_the_input(graph, row, change):
    with pytest.raises(ValueError, match=f"^{row}: declares input"):
        net._validate(net.NetworkGraph(_edited(graph, row, **change)))


@pytest.mark.parametrize("rows, message", [
    (lambda g: _edited(g, "conv_2", inputs=("conv_3",)),
     "conv_2: input conv_3 has no earlier producer"),
    (lambda g: g.layers + g.layers[-1:], "duplicate producer for fully_2"),
    # relu_1 is 32x50x50, the join's first operand 32x25x25
    (lambda g: _edited(g, "add_1", inputs=("conv_3", "relu_1")),
     "add_1: join operands (32, 25, 25) vs (32, 50, 50)"),
], ids=["producer", "duplicate", "join"])
def test_validate_rejects_a_broken_graph(graph, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        net._validate(net.NetworkGraph(rows(graph)))


def test_validate_bounds_the_dot_length(graph, monkeypatch):
    # the longest dot is a head's 6272 terms; the bound is inclusive
    monkeypatch.setattr(fxp, "MAX_EXACT_DOT_LEN", 6272)
    net._validate(graph)
    monkeypatch.setattr(fxp, "MAX_EXACT_DOT_LEN", 6271)
    with pytest.raises(ValueError, match="^dot-product length breaks exact float64"):
        net._validate(graph)


def test_graph_is_frozen_and_hashes_by_its_rows(graph):
    # tensors and outputs derive from the rows once, so the rows cannot
    # change under them
    with pytest.raises(AttributeError):
        graph.layers.append(graph.layers[-1])
    with pytest.raises(TypeError):
        graph.tensors["fully_1"] = (2, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.layers = ()
    again = net.NetworkGraph(list(graph.layers))
    assert again.layers == graph.layers and again == graph
    assert hash(again) == hash(graph) == hash(net.build_dronet())
    assert net.NetworkGraph(graph.layers[:-1]) != graph


def test_graph_hash_is_computed_once(graph, monkeypatch):
    # the graph-keyed caches hash the graph on every lookup; its rows are
    # hashed once, when it is built
    tiler.node_kernels(graph)
    again = net.build_dronet()
    rehashed = []
    monkeypatch.setattr(net.LayerSpec, "__hash__", lambda spec: rehashed.append(spec) or 0)
    assert again == graph and hash(again) == hash(graph)
    hits = tiler.node_kernels.cache_info().hits
    assert tiler.node_kernels(again) is tiler.node_kernels(graph)
    assert tiler.node_kernels.cache_info().hits == hits + 2
    assert rehashed == []


def test_mac_count(graph):
    macs = net.mac_count(graph)
    for name, expect in EXPECTED_CONV_MACS.items():
        assert macs["per_layer"][name] == expect
    assert macs["per_layer"]["fully_1"] == 6272
    assert macs["per_layer"]["relu_1"] == 0
    assert macs["per_layer"]["add_1"] == 0
    assert macs["conv_total"] == sum(EXPECTED_CONV_MACS.values())
    assert 40_000_000 <= macs["conv_total"] <= 42_000_000
    assert macs["per_layer"]["conv_9"] == 7_225_344


def test_outputs_are_the_tensors_no_row_reads(graph):
    assert graph.outputs == ("fully_1", "fully_2")
    cut = [r.name for r in graph.layers].index("add_1") + 1
    assert net.NetworkGraph(graph.layers[:cut]).outputs == ("add_1",)


@pytest.mark.parametrize("k", [3, 7])
def test_build_dronet_raises_on_a_mac_total_outside_the_band(monkeypatch, k):
    # a 3x3 or a 7x7 stem keeps every shape and moves the conv MAC total
    # from 41.1M to 36.0M or 48.8M
    conv = net._conv

    def stem(name, *args, **kwargs):
        spec = conv(name, *args, **kwargs)
        return dataclasses.replace(spec, kh=k, kw=k) if name == "conv_1" else spec

    monkeypatch.setattr(net, "_conv", stem)
    with pytest.raises(ValueError, match=r"^conv MAC total \d+ drifted out of \[40M, 42M\]$"):
        net.build_dronet()


def test_validate_accepts_a_graph_outside_dronets_mac_band():
    # DroNet's stem, its ReLU and two heads: 8M conv MACs
    stem = net._conv("conv_1", net.INPUT_TENSOR, 1, 32, 5, 5, 2, 200, 200, fused_pool=True)
    relu = net.LayerSpec("relu_1", net.RELU, ("conv_1",), k_in=32, k_out=32, h_in=50, w_in=50)
    heads = [net.LayerSpec(name, net.FC, ("relu_1",), k_in=32 * 50 * 50, k_out=1, kh=1, kw=1,
                           h_in=1, w_in=1) for name in ("steer", "collide")]
    graph = net.NetworkGraph([stem, relu, *heads])
    net._validate(graph)
    assert net.mac_count(graph)["conv_total"] == 8_000_000
    assert graph.outputs == ("steer", "collide")


def test_param_count(graph):
    params = net.param_count(graph)
    assert params["per_layer"]["conv_1"] == 32 * 25 + 32
    assert params["per_layer"]["fully_2"] == 6272 + 1
    assert params["total"] == 320_226
    assert params["bytes_4"] > 1 << 20            # > 1 MB: DRAM-resident
    assert params["bytes_2"] > 512 << 10          # > 512 KB: exceeds on-chip L2


def test_weight_round_trip(tmp_path, graph):
    store = net.random_store(graph, seed=3)
    p = tmp_path / "w.pdrn"
    net.save_weights(store, graph, str(p))
    again = net.load_weights(str(p), graph)
    assert again == store
    p2 = tmp_path / "w2.pdrn"
    net.save_weights(again, graph, str(p2))
    assert p.read_bytes() == p2.read_bytes()      # byte-identical re-save


def test_weight_file_errors(tmp_path, graph):
    store = net.random_store(graph, seed=0)
    p = tmp_path / "w.pdrn"
    net.save_weights(store, graph, str(p))
    blob = bytearray(p.read_bytes())

    bad = tmp_path / "bad.pdrn"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(net.BadMagicError):
        net.load_weights(str(bad), graph)

    blob2 = bytearray(blob)
    blob2[4:6] = (99).to_bytes(2, "little")
    bad.write_bytes(bytes(blob2))
    with pytest.raises(net.VersionMismatchError):
        net.load_weights(str(bad), graph)

    bad.write_bytes(bytes(blob[:len(blob) // 2]))
    with pytest.raises(net.TruncatedFileError):
        net.load_weights(str(bad), graph)

    blob3 = bytearray(blob)
    blob3[9:11] = (7).to_bytes(2, "little")       # corrupt conv_1 k_in
    bad.write_bytes(bytes(blob3))
    with pytest.raises((net.ShapeMismatchError, net.TruncatedFileError)):
        net.load_weights(str(bad), graph)


def test_weight_file_trailing_bytes(tmp_path, graph):
    p = tmp_path / "w.pdrn"
    net.save_weights(net.random_store(graph, seed=0), graph, str(p))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(net.WeightFileError, match="^1 trailing bytes"):
        net.load_weights(str(p), graph)


def _write_pgm(path, img):
    h, w = img.shape
    path.write_bytes(b"P5\n# test frame\n%d %d\n255\n" % (w, h) +
                     img.astype(np.uint8).tobytes())


def test_load_image(tmp_path):
    p = tmp_path / "a.pgm"
    _write_pgm(p, np.zeros((200, 200)))
    t = net.load_image(str(p))
    assert t.shape == (1, 200, 200)
    assert not t.any()

    _write_pgm(p, np.full((240, 320), 255))
    t = net.load_image(str(p))
    assert t.shape == (1, 200, 200)
    assert (t == 4096).all()                      # 255/255 -> 1.0 in Q4.12

    img = np.zeros((240, 320))
    img[:, :40] = 200                             # cropped away by center crop
    _write_pgm(p, img)
    t = net.load_image(str(p))
    assert not t.any()


def test_load_image_crop_maps_center(tmp_path):
    img = np.arange(240 * 320, dtype=np.int64).reshape(240, 320) % 251
    p = tmp_path / "c.pgm"
    _write_pgm(p, img)
    t = net.load_image(str(p))
    crop = img[:, 40:280]
    idx = (np.arange(200) * 240) // 200           # nearest-neighbor index map
    expect = fxp.quantize_array(crop[np.ix_(idx, idx)] / 255.0)
    assert np.array_equal(t[0], expect)


SIDES = st.integers(1, 400) | st.sampled_from([199, 200, 201])


@given(SIDES, SIDES, st.integers(0, 2 ** 32 - 1))
@example(200, 200, 0)           # every pixel value, no resize
@example(100, 300, 1)           # tall
@example(300, 100, 2)           # wide
@example(1, 400, 3)             # one column
@example(400, 199, 4)           # a crop just below the input side
@example(201, 400, 5)           # a crop just above it
def test_load_image_matches_the_float_oracle(tmp_path_factory, width, height, seed):
    # the 256-entry pixel table and the row-then-column resize against
    # quantize_array(p / 255) after the np.ix_ resize, on frames below, at
    # and above the input side, square and not; the 200 x 200 frame holds
    # every pixel value
    rng = np.random.default_rng(seed)
    if (width, height) == (200, 200):
        img = rng.permutation(np.arange(200 * 200) % 256).reshape(200, 200)
    else:
        img = rng.integers(0, 256, (height, width))
    p = tmp_path_factory.mktemp("pgm") / "frame.pgm"
    _write_pgm(p, img)
    got = net.load_image(str(p))
    assert got.dtype == np.int16 and got.shape == net.INPUT_SHAPE
    assert np.array_equal(got, oracles.load_image_pixels(img.astype(np.uint8)))


def test_pixel_table_is_the_quantized_pixel():
    assert net._PIXEL_Q.dtype == np.int16 and net._PIXEL_Q.shape == (256,)
    assert [int(q) for q in net._PIXEL_Q] == \
        [int(fxp.quantize_array(np.float64(p / 255))) for p in range(256)]


def test_load_image_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(net.ImageFormatError, match="P5"):
        net.load_image(str(p))
    p.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00\x00")
    with pytest.raises(net.ImageFormatError, match="bit depth"):
        net.load_image(str(p))
    p.write_bytes(b"P5\n4 4\n255\n\x00")
    with pytest.raises(net.ImageFormatError, match="short"):
        net.load_image(str(p))
    # a zero side would reach an empty crop; (-4)*(-4) passes the length check
    for header in (b"P5 0 10 255\n", b"P5 -4 -4 255\n"):
        p.write_bytes(header + bytes(16))
        with pytest.raises(net.ImageFormatError, match="frame"):
            net.load_image(str(p))


def test_graph_summary(graph):
    text = net.graph_summary(graph)
    assert "conv_9" in text and "fully_2" in text
    csv = net.graph_summary(graph, csv=True)
    assert csv.splitlines()[0] == "layer,kind,in,out,kernel,stride,macs"
    assert len(csv.splitlines()) == 19
