"""The modelled outputs at fixed inputs, compared with == against a table.

tests/data/model_table.json holds the cost report at both operating corners,
every sweep point, the frame-rate reaction study and the closed-form stop
figures, recorded from the model; a change that means to move none of them
must leave every float bit-identical.  calibrate is left out: its
least-squares solve may differ in the last bit across LAPACK builds.

Regenerate the table (only for a change that means to move the figures):

    PYTHONPATH=src python tests/test_model_table.py
"""

import dataclasses
import json
from pathlib import Path

from nanotile import cost, ctrl, net, tiler

TABLE = Path(__file__).parent / "data" / "model_table.json"
BUDGETS = (16 * 1024, 32 * 1024, 60 * 1024)
STOP_TIMES = ((4.0, 10.0, 0.1), (4.05, 6.0, 1 / 6), (1.0, 25.0, 0.0), (0.0, 5.0, 0.2),
              (2.3, 30.0, 0.05))
SPEEDS = (0.0, 1.0, 2.0, 4.0, 8.0)


def sweep_point(report: cost.CostReport) -> dict:
    """A sweep point as the table records it."""
    op = report.op
    return {"vdd": op.vdd, "f_fc": op.f_fc, "f_cl": op.f_cl, "fps": report.fps,
            "power_w": report.power_w, "energy_j": report.energy_j}


def model_outputs() -> dict:
    """The table's content, as JSON would read it back."""
    graph = net.build_dronet()
    out = {}
    for budget in BUDGETS:
        schedule = tiler.plan_network(graph, budget)
        points, best = cost.sweep(schedule)
        out[str(budget)] = {
            "frame_report": {label: dataclasses.asdict(cost.frame_report(schedule, op))
                             for label, op in (("efficient", cost.EFFICIENT),
                                               ("fast", cost.FAST))},
            "sweep": [sweep_point(p) for p in points],
            "sweep_best": sweep_point(best),
        }
    out["fps_sweep"] = ctrl.fps_sweep([5, 10, 20, 25], ctrl.reference_trace())
    out["step_stop_time"] = [[*args, ctrl.step_stop_time(*args)] for args in STOP_TIMES]
    out["stopping_distance"] = [[v, ctrl.stopping_distance(v)] for v in SPEEDS]
    return json.loads(json.dumps(out))


def test_model_outputs_equal_the_table():
    want = json.loads(TABLE.read_text())
    got = model_outputs()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    TABLE.write_text(json.dumps(model_outputs(), indent=1) + "\n")
