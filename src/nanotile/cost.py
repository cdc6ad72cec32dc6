"""Calibrated cycle, power and energy model over (VDD, f_FC, f_CL) points.

Structure: convolution rows cost MACs / (8 * eta * worker-efficiency), with
separate efficiencies for wide (3x3, 5x5) and narrow (1x1, fully connected)
kernels; elementwise rows are byte-throughput bound; every fork/join parallel
section and every L2/L1 DMA descriptor carries a fixed overhead; weight
staging from DRAM to L2 runs serially on the fabric-controller clock.  The
six free parameters are fitted to shipped measurement tables (per-layer
times, cycle breakdown); the two power coefficients are solved exactly from
the two measured operating corners.  Cycle counts are frequency independent;
times scale as 1/f.

There is one cycle formula, RowLoad.exec_cycles: the report sums it per
graph row, and the tiling planner minimises the same sum per node kernel
(plan_cycles is layer_cycles(plan).exec_cl), so a plan's est_cycles is the
number the report prints, and calibrate fits its parameters with one linear
solve of the same formula.  The model has no L2->L1 bandwidth term: at 8
bytes per cluster cycle, the DMA time of a plan never exceeded its compute
time on any of the 808,761 feasible tile plans at every budget from 8 to
64 KB in 1 KB steps.  A max(compute, bytes / 8) pipeline bound would change
no cost, so only the per-descriptor setup cost is modelled.

There is one path from cycles to a frame's time, power and energy at an
operating point, _at_op: frame_report, CostReport.at, the sweep and the
power calibration all go through it, so a sweep point is a CostReport.

There is one set of rows per plan and calibration, plan_rows: a plan's
RowLoads and RowCosts are computed once per calibration and the costs kept
on the frozen plan, which the planner shares between every budget on one
frontier step.  layer_cycles and plan_cycles read them.  There is one
priced schedule per value, _priced: the rows of a (graph, plans,
calibration) value in graph order, their two cycle totals and the DMA
cycles, computed once in a bounded cache, so frame_report, sweep,
calibrate and fit_residuals read the same priced rows, and a design
point's report and its sweep price the schedule once.  The sweep's
operating points are one module tuple, SWEEP_POINTS.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvtable, net, tiler

DATA_ENV = "NANOTILE_DATA_DIR"
_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class CalibParams:
    eta_main: float            # MAC/cycle/core, 3x3 and 5x5 conv bodies
    eta_narrow: float          # MAC/cycle/core, 1x1 convs and FC heads
    ew_bytes_per_cycle: float  # elementwise cluster throughput
    dispatch_cycles: float     # per fork/join parallel section
    dma_setup_cycles: float    # per L2<->L1 descriptor, not hidden by overlap
    l3l2_bytes_per_fcycle: float


@dataclass(frozen=True)
class PowerParams:
    k_fc: float                # W per Hz per V^2, fabric controller domain
    k_cl: float                # W per Hz per V^2, cluster domain


@dataclass(frozen=True)
class OpPoint:
    vdd: float
    f_fc: float                # Hz
    f_cl: float

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.vdd, self.f_fc, self.f_cl)):
            raise ValueError("vdd, f_fc and f_cl must be finite and positive")


EFFICIENT = OpPoint(1.0, 50e6, 100e6)
FAST = OpPoint(1.2, 250e6, 250e6)
# calibrated operating envelope: corners validated per supply voltage
FMAX_HZ = {1.0: 100e6, 1.2: 250e6}
SWEEP_FREQS_HZ = (50e6, 100e6, 150e6, 200e6, 250e6)
SWEEP_POINTS = tuple(OpPoint(vdd, f_fc, f_cl)
                     for vdd, fmax in FMAX_HZ.items()
                     for f_fc in SWEEP_FREQS_HZ for f_cl in SWEEP_FREQS_HZ
                     if f_fc <= fmax and f_cl <= fmax)
ETA_PEAK_PER_CORE = 0.64   # measured inner-kernel MAC/cycle/core peak, reference only
CAMERA_W = 0.0045          # ULP camera draw
DRAM_W = 0.008             # DRAM while L3-L2 transfers are active

# Frozen output of calibrate() on the shipped measurement tables at the
# default 60 KB budget; regenerated and asserted by the test suite.
DEFAULT_CALIB = CalibParams(
    eta_main=0.44404516049874077,
    eta_narrow=0.1152009480501108,
    ew_bytes_per_cycle=4.937494379048582,
    dispatch_cycles=1683.160972601778,
    dma_setup_cycles=197.48653500897666,
    l3l2_bytes_per_fcycle=0.6217980582524272,
)
DEFAULT_POWER = PowerParams(k_fc=4.980901637306903e-10, k_cl=2.4904508186534516e-10)


@dataclass(frozen=True)
class RowLoad:
    """One graph row's share of its node kernel: the quantities the cycle
    formula and the calibration read.  Numeric fields are ints, floats or
    numpy arrays over a grid of candidate plans."""

    name: str
    group: str            # "main" | "narrow" (MAC bound) or "ew" (byte bound)
    work: object = 0      # MAC work units per core
    bytes: object = 0     # elementwise bytes through the cluster
    forks: object = 0     # fork/join parallel sections
    transfers: object = 0  # L2<->L1 DMA descriptors
    w_bytes: int = 0      # weights staged L3->L2

    def exec_cycles(self, calib: CalibParams):
        eta = calib.eta_main if self.group == "main" else calib.eta_narrow
        return (self.work / eta + self.bytes / calib.ew_bytes_per_cycle
                + self.forks * calib.dispatch_cycles
                + self.transfers * calib.dma_setup_cycles)


def row_loads(node: tiler.NodeKernel, loads: tiler.Loads) -> list[RowLoad]:
    """Split a node's Loads over its graph rows.  The body row carries the
    MAC work (or, for a standalone ReLU, the bytes), the forks and every
    descriptor but the addend's; a fused join and its ReLU each cost their
    bytes and one fork per core-width of channels, and the join also pays
    the addend descriptors."""
    rows = []
    for spec in node.rows:
        elems = spec.k_out * spec.h_out * spec.w_out
        if spec is not node.body:
            join = spec.kind == net.ADD
            rows.append(RowLoad(spec.name, "ew", bytes=(3 if join else 2) * 2 * elems,
                                forks=tiler._worker_forks(spec.k_out),
                                transfers=loads.descriptors["addend"] if join else 0))
            continue
        transfers = sum(n for stream, n in loads.descriptors.items() if stream != "addend")
        if spec.has_params:
            group = "main" if max(spec.kh, spec.kw) >= 3 else "narrow"
            rows.append(RowLoad(spec.name, group, work=loads.work / tiler.CORES,
                                forks=loads.forks, transfers=transfers,
                                w_bytes=2 * spec.n_params))
        else:
            rows.append(RowLoad(spec.name, "ew", bytes=2 * 2 * elems,
                                forks=loads.forks, transfers=transfers))
    return rows


def node_cycles(node: tiler.NodeKernel, loads: tiler.Loads, calib: CalibParams):
    """Cluster cycles of one node kernel: its rows' cycles summed.  The
    planner scores whole grids with it; layer_cycles reports one plan with
    the same sum over plan_rows."""
    return sum(row.exec_cycles(calib) for row in row_loads(node, loads))


def plan_rows(plan: tiler.TilePlan, calib: CalibParams) -> tuple[tuple[RowCost, ...], int]:
    """A plan's graph rows priced under calib, in node order, and the
    L2<->L1 descriptors they set up.  Computed from row_loads once per plan
    and calibration and kept on the plan for the last calibration priced,
    so every report of a plan reads the same rows.  The calibration is
    checked by identity first: the same object needs no field compare."""
    if plan._rows is None or plan._rows[0] is not calib and plan._rows[0] != calib:
        loads = row_loads(plan.node, plan.loads())
        object.__setattr__(plan, "_rows", (calib, tuple(
            RowCost(r.name, r.exec_cycles(calib), r.w_bytes / calib.l3l2_bytes_per_fcycle)
            for r in loads), sum(r.transfers for r in loads)))
    return plan._rows[1:]


def _graph_order(graph: net.NetworkGraph, rows) -> tuple:
    """Named rows, given node by node, in the graph's row order."""
    by_name = {row.name: row for row in rows}
    return tuple(by_name[spec.name] for spec in graph.layers)


@functools.lru_cache(maxsize=net.GRAPHS_CACHED)
def _priced(graph: net.NetworkGraph, plans: tuple[tiler.TilePlan, ...], calib: CalibParams):
    """A schedule's plan_rows in graph order, a tuple, their exec and L3->L2
    cycle totals (added in graph order) and the descriptors' DMA cycles:
    what _at_op takes besides the operating point and the power pair.
    Cached on the values, all frozen, in a bounded cache, so equal plans
    under one calibration share one rows tuple, whatever the budget."""
    priced = [plan_rows(p, calib) for p in plans]
    rows = _graph_order(graph, (r for costs, _ in priced for r in costs))
    return (rows, sum(r.exec_cycles for r in rows), sum(r.l3l2_fcycles for r in rows),
            calib.dma_setup_cycles * sum(n for _, n in priced))


@dataclass
class LayerCycles:
    """Cycle breakdown for one node kernel (its fused rows summed)."""

    node: str
    exec_cl: float        # cluster cycles: work, dispatch and descriptors
    l3l2_fcycles: float   # serial weight staging, fabric-controller clock


def layer_cycles(plan: tiler.TilePlan,
                 calib: CalibParams = DEFAULT_CALIB) -> LayerCycles:
    """Breakdown for one planned node kernel, from its plan_rows."""
    rows, _ = plan_rows(plan, calib)
    return LayerCycles(plan.node.name, sum(r.exec_cycles for r in rows),
                       sum(r.l3l2_fcycles for r in rows))


def plan_cycles(plan: tiler.TilePlan, calib: CalibParams = DEFAULT_CALIB) -> float:
    """The planner objective: the cycles the report prints for this plan."""
    return layer_cycles(plan, calib).exec_cl


@dataclass(frozen=True, slots=True)
class RowCost:
    name: str
    exec_cycles: float
    l3l2_fcycles: float

    def exec_ms(self, op: OpPoint) -> float:
        return 1e3 * self.exec_cycles / op.f_cl

    def l3l2_ms(self, op: OpPoint) -> float:
        return 1e3 * self.l3l2_fcycles / op.f_fc


@dataclass
class CostReport:
    op: OpPoint
    rows: tuple[RowCost, ...]
    exec_cycles: float
    l3l2_fcycles: float
    dma_l2l1_cycles: float       # descriptor overhead share of exec_cycles
    computation_cycles: float    # exec_cycles minus the DMA share
    frame_s: float
    fps: float
    power_w: float               # average SoC power including converter loss
    board_power_w: float         # plus camera and DRAM duty
    energy_j: float              # SoC energy per frame

    @property
    def total_cycles(self) -> float:
        """Breakdown total in equal-clock cycles (FC = CL)."""
        return self.exec_cycles + self.l3l2_fcycles

    def at(self, op: OpPoint, power: PowerParams) -> CostReport:
        """The same rows at another operating point and power pair."""
        return _at_op(op, self.rows, self.exec_cycles, self.l3l2_fcycles,
                      self.dma_l2l1_cycles, power)

    def to_csv(self) -> str:
        lines = ["layer,exec_ms,l3l2_ms"]
        for r in self.rows:
            lines.append(f"{r.name},{r.exec_ms(self.op):.4f},{r.l3l2_ms(self.op):.4f}")
        lines.append(f"frame,{1e3 * self.frame_s:.4f},")
        return "\n".join(lines)


def _at_op(op: OpPoint, rows: tuple[RowCost, ...], exec_cycles: float,
           l3l2_fcycles: float, dma_cycles: float, power: PowerParams) -> CostReport:
    """The one path from cycles to a frame's time, power and energy at an
    operating point: FC clocked all frame, cluster only while computing,
    DRAM only while staging weights.  exec_cycles and l3l2_fcycles are the
    rows' totals, which _priced adds once per schedule value, so that a
    sweep's reports do not add them again at each point."""
    t_c = exec_cycles / op.f_cl
    t = t_c + l3l2_fcycles / op.f_fc
    energy = op.vdd ** 2 * (power.k_fc * op.f_fc * t + power.k_cl * op.f_cl * t_c)
    p_avg = energy / t
    board = p_avg + CAMERA_W + DRAM_W * (t - t_c) / t
    return CostReport(op, rows, exec_cycles, l3l2_fcycles, dma_cycles, exec_cycles - dma_cycles,
                      t, 1.0 / t, p_avg, board, energy)


def frame_report(schedule: tiler.TileSchedule, op: OpPoint = EFFICIENT,
                 calib: CalibParams = DEFAULT_CALIB,
                 power: PowerParams = DEFAULT_POWER) -> CostReport:
    """The schedule's priced rows at an operating point.  The plans are
    keyed as a tuple, which a plans tuple already is."""
    return _at_op(op, *_priced(schedule.graph, tuple(schedule.plans), calib), power)


def breakdown_mcycles(report: CostReport) -> tuple[float, float, float, float]:
    """(udma L3/L2, dma L2/L1, computation, total) in Mcycles at FC = CL."""
    return (report.l3l2_fcycles / 1e6,
            report.dma_l2l1_cycles / 1e6,
            report.computation_cycles / 1e6,
            report.total_cycles / 1e6)


# -- measurement targets ------------------------------------------------------

def data_dir() -> Path:
    override = os.environ.get(DATA_ENV)
    return Path(override) if override else _DATA_DIR


@dataclass
class Targets:
    layer_ms: dict[str, float]           # exec time per table row
    l3l2_ms: dict[str, float]
    udma_mcycles: float
    dma_mcycles: float
    computation_mcycles: float
    total_mcycles: float
    power_points: list[dict]
    directory: Path                      # where the tables were read

    def row_ms(self, name: str) -> float:
        """Measured exec time of graph row `name`."""
        if name not in self.layer_ms:
            raise ValueError(f"{self.directory / LAYER_TABLE}: no row for layer {name}")
        return self.layer_ms[name]


LAYER_TABLE = "gap8_layer_times.csv"
POWER_TABLE = "gap8_power_points.csv"
_BREAKDOWN = ("udma_l3l2_mcycles", "dma_l2l1_mcycles", "computation_mcycles",
              "total_mcycles")
_POWER = ("vdd_v", "fc_mhz", "cl_mhz", "avg_power_mw")


def load_targets(directory: Path | None = None) -> Targets:
    """Read the three measurement tables; a malformed table raises ValueError
    naming its file."""
    d = directory or data_dir()
    layer, l3l2 = {}, {}
    path = d / LAYER_TABLE
    for n, row in enumerate(csvtable.read(path, ("layer", "exec_ms", "l3l2_ms")), 1):
        if row["layer"] in layer:
            raise ValueError(f"{path}: data row {n}: layer {row['layer']} repeats")
        layer[row["layer"]] = csvtable.number(path, n, row, "exec_ms")
        if row["l3l2_ms"]:
            l3l2[row["layer"]] = csvtable.number(path, n, row, "l3l2_ms")
    path = d / "gap8_cycle_breakdown.csv"
    bd, *extra = csvtable.read(path, _BREAKDOWN)
    if extra:
        raise ValueError(f"{path}: data row 2: the table holds one frame, in one data row")
    breakdown = [csvtable.number(path, 1, bd, c) for c in _BREAKDOWN]
    path = d / POWER_TABLE
    points = [{c: csvtable.number(path, n, row, c) for c in _POWER}
              for n, row in enumerate(csvtable.read(path, _POWER), 1)]
    for n, point in enumerate(points, 1):
        for c in ("vdd_v", "fc_mhz", "cl_mhz"):     # an OpPoint's supply and clocks
            if point[c] <= 0:
                raise ValueError(f"{path}: data row {n}: {c} {point[c]:g} is not positive")
    return Targets(layer, l3l2, *breakdown, points, d)


# -- calibration --------------------------------------------------------------

def calibrate(schedule: tiler.TileSchedule,
              targets: Targets | None = None) -> tuple[CalibParams, PowerParams, dict]:
    """Fit the cycle parameters to the shipped tables, then solve the two
    power coefficients exactly from the measured corners.

    The fit is one linear solve of RowLoad.exec_cycles, the formula the
    report prints and the planner minimises.  The descriptor cost and the
    L3->L2 bandwidth come from the measured breakdown; the rest of each
    row's cycles is linear in 1/eta_main, 1/eta_narrow, 1/ew_bytes_per_cycle
    and dispatch_cycles, which least squares on relative error then gives.
    A negative fork cost is refitted without the fork column (held at 0).
    """
    targets = targets or load_targets()
    if len(targets.power_points) != 2:
        raise ValueError(f"{targets.directory / POWER_TABLE}: "
                         f"{len(targets.power_points)} operating corners, the power "
                         "fit needs 2")
    # every graph row's load, in graph order
    feats = _graph_order(schedule.graph, (row for p in schedule.plans
                                          for row in row_loads(p.node, p.loads())))
    # target exec times measured at CL 100 MHz: ms -> CL cycles
    t_cycles = np.array([targets.row_ms(f.name) * 1e5 for f in feats])

    w_total = sum(f.w_bytes for f in feats)
    bw_l3l2 = w_total / (targets.udma_mcycles * 1e6)
    c_dma = targets.dma_mcycles * 1e6 / sum(f.transfers for f in feats)

    terms = np.array([[f.work if f.group == "main" else 0,
                       f.work if f.group == "narrow" else 0,
                       f.bytes, f.forks] for f in feats], dtype=float)
    rhs = t_cycles - c_dma * np.array([f.transfers for f in feats], dtype=float)
    # weights 1/t: the residuals are relative errors
    a, y = terms / t_cycles[:, None], rhs / t_cycles
    x = np.linalg.lstsq(a, y, rcond=None)[0]
    if x[3] < 0:
        x = np.append(np.linalg.lstsq(a[:, :3], y, rcond=None)[0], 0.0)
    inv_main, inv_narrow, inv_ew, c_pass = x.tolist()
    calib = CalibParams(1 / inv_main, 1 / inv_narrow, 1 / inv_ew, c_pass, c_dma, bw_l3l2)

    # two-point solve for the power pair, capped so the eight-core cluster
    # domain keeps at least a third of the per-Hz draw (k_fc <= 2 k_cl);
    # when the cap binds, the two corner errors are equalized instead.
    # Frame energy is linear in (k_fc, k_cl): unit pairs give its coefficients
    report = frame_report(schedule, EFFICIENT, calib)
    rows = []
    for pt in targets.power_points:
        op = OpPoint(pt["vdd_v"], pt["fc_mhz"] * 1e6, pt["cl_mhz"] * 1e6)
        a, b = report.at(op, PowerParams(1, 0)), report.at(op, PowerParams(0, 1))
        rows.append((a.energy_j, b.energy_j, 1e-3 * pt["avg_power_mw"] * a.frame_s))
    (a1, b1, e1), (a2, b2, e2) = rows
    det = a1 * b2 - a2 * b1
    if abs(det) < 1e-30:
        raise ValueError("power calibration underdetermined")
    k_fc = (e1 * b2 - e2 * b1) / det
    k_cl = (a1 * e2 - a2 * e1) / det
    ratio_cap = 2.0
    if not (0 < k_fc <= ratio_cap * k_cl):
        c1, c2 = ratio_cap * a1 + b1, ratio_cap * a2 + b2
        k_cl = 2.0 / (c1 / e1 + c2 / e2)
        k_fc = ratio_cap * k_cl
    power = PowerParams(k_fc, k_cl)

    residuals = fit_residuals(schedule, calib, power, targets)
    return calib, power, residuals


def fit_residuals(schedule, calib, power, targets=None) -> dict:
    targets = targets or load_targets()
    report = frame_report(schedule, EFFICIENT, calib, power)
    per_row = {}
    for row in report.rows:
        t = targets.row_ms(row.name)
        per_row[row.name] = (row.exec_ms(EFFICIENT) - t) / t
    udma, dma, comp, total = breakdown_mcycles(report)
    bd = {"udma": udma / targets.udma_mcycles - 1,
          "dma": dma / targets.dma_mcycles - 1,
          "computation": comp / targets.computation_mcycles - 1,
          "total": total / targets.total_mcycles - 1}
    powers = {}
    for pt in targets.power_points:
        op = OpPoint(pt["vdd_v"], pt["fc_mhz"] * 1e6, pt["cl_mhz"] * 1e6)
        powers[f"{op.vdd:.1f}V_{int(op.f_fc/1e6)}_{int(op.f_cl/1e6)}"] = \
            report.at(op, power).power_w / (1e-3 * pt["avg_power_mw"]) - 1
    return {"rows": per_row, "breakdown": bd, "power": powers,
            "max_row_abs": max(abs(v) for v in per_row.values())}


# -- operating-point sweep ----------------------------------------------------

def sweep(schedule: tiler.TileSchedule,
          calib: CalibParams = DEFAULT_CALIB,
          power: PowerParams = DEFAULT_POWER) -> tuple[list[CostReport], CostReport]:
    """The frame's report at every point of the calibrated envelope,
    SWEEP_POINTS; returns (reports, min-energy report)."""
    base = frame_report(schedule, EFFICIENT, calib, power)
    points = [base.at(op, power) for op in SWEEP_POINTS]
    best = min(points, key=lambda p: p.energy_j)
    return points, best


def sweep_csv(points: list[CostReport]) -> str:
    lines = ["vdd_v,fc_mhz,cl_mhz,fps,power_mw,energy_mj"]
    for p in points:
        lines.append(f"{p.op.vdd:.1f},{int(p.op.f_fc / 1e6)},{int(p.op.f_cl / 1e6)},"
                     f"{p.fps:.3f},{1e3 * p.power_w:.2f},{1e3 * p.energy_j:.4f}")
    return "\n".join(lines)
