"""Mutation fuzz of the four parsers of outside input: weight files (with and
without a graph), PGM frames, the calibration tables and collision traces.

Each case truncates, flips or inserts bytes in a valid file; the parser must
either load it or raise its typed error (WeightFileError, ImageFormatError or
ValueError), never anything else.

A property test also draws short random traces, with double allocs, frees
of buffers never allocated and computes among them, and checks the columnar
audit against the event-by-event loop in oracles.py.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from nanotile import cost, ctrl, executor, net

GRAPH = net.build_dronet()
TYPED = (net.WeightFileError, net.ImageFormatError, ValueError)
FUZZ = settings(max_examples=150, deadline=None)


def _weight_bytes() -> tuple[bytes, list[int]]:
    """A valid DroNet weight file and the offsets of its headers."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "w.bin"
        net.save_weights(net.zero_store(GRAPH), GRAPH, str(path))
        data = path.read_bytes()
    hot, offset = [0], 8
    for spec in GRAPH.param_layers():
        hot.append(offset)
        offset += 8 + 2 * (int(np.prod(spec.weight_shape)) + spec.k_out)
    return data, hot


WEIGHTS, WEIGHT_HEADERS = _weight_bytes()
IMAGE = b"P5\n# frame\n240 240\n255\n" + bytes(range(256)) * 225
TABLES = {f.name: f.read_bytes() for f in cost.data_dir().glob("gap8_*.csv")}
TRACE = b"# trace\ntimestamp_s,c\n0.0,0.0\n1.5,0.25\n2.0,1.0\n"


def mutations(hot=(0,)):
    """Edits as (kind, position, byte); positions cluster near the `hot`
    offsets, where the headers a parser decodes sit, or fall anywhere."""
    near = st.sampled_from(hot).flatmap(lambda p: st.integers(p, p + 24))
    pos = st.one_of(near, st.integers(0, 1 << 24))
    kind = st.sampled_from(("truncate", "flip", "insert"))
    return st.lists(st.tuples(kind, pos, st.integers(0, 255)), min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    b = bytearray(data)
    for kind, pos, byte in edits:
        pos %= len(b) + 1
        if kind == "truncate":
            del b[pos:]
        elif kind == "flip" and pos < len(b):
            b[pos] ^= byte or 0xFF
        elif kind == "insert":
            b[pos:pos] = bytes([byte])
    return bytes(b)


def parses_or_raises_typed(load, name: str, data: bytes, rest: dict | None = None):
    with tempfile.TemporaryDirectory() as d:
        for other, content in (rest or {}).items():
            (Path(d) / other).write_bytes(content)
        path = Path(d) / name
        path.write_bytes(data)
        try:
            load(path)
        except TYPED:
            pass


@FUZZ
@given(mutations(WEIGHT_HEADERS))
def test_load_weights_fuzz(edits):
    parses_or_raises_typed(lambda p: net.load_weights(str(p), GRAPH), "w.bin",
                           mutate(WEIGHTS, edits))


@FUZZ
@given(mutations())
def test_load_image_fuzz(edits):
    parses_or_raises_typed(lambda p: net.load_image(str(p)), "f.pgm",
                           mutate(IMAGE, edits))


@FUZZ
@given(st.sampled_from(sorted(TABLES)), mutations())
def test_load_targets_fuzz(name, edits):
    parses_or_raises_typed(lambda p: cost.load_targets(p.parent), name,
                           mutate(TABLES[name], edits), TABLES)


@FUZZ
@given(mutations())
def test_load_trace_fuzz(edits):
    parses_or_raises_typed(lambda p: ctrl.load_trace(str(p)), "t.csv",
                           mutate(TRACE, edits))


def events():
    """Short traces over a few buffers, streams, nodes, regions and tags."""
    names = st.sampled_from(("a", "b", "out"))
    nodes = st.sampled_from(("n0", "n1", "n2"))
    nbytes = st.integers(0, 1 << 10)
    # two buffer names over three regions, so that allocs and frees meet
    mem = st.builds(executor.Event, st.sampled_from(("alloc", "free")),
                    st.sampled_from(("L1", "L2", "L3")), nodes, st.just(-1),
                    st.sampled_from(("a", "b")), nbytes)
    xfer = st.builds(executor.Event, st.just("xfer"),
                     st.sampled_from((executor.TAG_L3_L2, executor.TAG_L2_L1,
                                      executor.TAG_L1_L2)),
                     nodes, st.integers(-1, 3), names, nbytes)
    compute = st.builds(executor.Event, st.just("compute"), st.just(""), nodes,
                        st.integers(0, 3), st.just(""), st.just(0), st.integers(0, 99))
    return st.lists(st.one_of(mem, mem, xfer, compute), max_size=40)


@FUZZ
@given(events(), st.none() | st.tuples(st.integers(0, 1 << 21), st.integers(0, 1 << 21)))
@example([], None)
@example([], (0, 1))
@example([executor.Event("alloc", "L1", "n0", -1, "a", 10),     # a free that gives back
          executor.Event("free", "L1", "n0", -1, "a", 0),       # other bytes than its alloc's
          executor.Event("alloc", "L1", "n0", -1, "b", 5)], (10, 0))
def test_audit_trace_fuzz(trace_events, peaks):
    trace = executor.TraceLog(trace_events)
    memsim = None
    if peaks is not None:
        memsim = executor.MemSim(trace, {"L1": peaks[0], "L2": peaks[1]})
    assert oracles.audit_fields(executor.audit_trace(trace, memsim)) == \
        oracles.audit_fields(oracles.loop_audit(trace, memsim))
