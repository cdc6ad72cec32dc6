"""Command-line front end tying the modules together."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import cost, ctrl, executor, kernels, l2plan, net, offload, tiler


def evaluate_metrics(pred_path: str, labels_path: str) -> dict:
    """EVA, RMSE (steering column) and Accuracy, F1 (collision column).

    Both files are two-column CSV (steering, collision); the collision label
    column holds {0,1}, predictions are thresholded at 0.5.  Only a first
    row in which no field is a number is taken as a header; every other row
    holds two finite numbers, or a ValueError names the file and the line.
    """
    def number(text):
        try:
            return float(text)
        except ValueError:
            return None

    def read(path):
        rows = []
        with open(path) as f:
            lines = [(n, text) for n, line in enumerate(f, 1)
                     if (text := line.strip()) and not text.startswith("#")]
        for i, (n, line) in enumerate(lines):
            values = [number(field) for field in line.split(",")]
            if i == 0 and all(v is None for v in values):
                continue                    # header line
            if len(values) != 2 or not all(v is not None and math.isfinite(v)
                                           for v in values):
                raise ValueError(f"{path}: line {n}: expected two finite numbers, "
                                 f"got {line!r}")
            rows.append(tuple(values))
        return rows

    preds, labels = read(pred_path), read(labels_path)
    if not preds or not labels:
        raise ValueError("empty input")
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} predictions, "
                         f"{len(labels)} labels")
    y_pred = np.array([p[0] for p in preds])
    y_true = np.array([l[0] for l in labels])
    resid_var = float(np.var(y_true - y_pred))
    true_var = float(np.var(y_true))
    eva = 1.0 - resid_var / true_var if true_var > 0 else math.nan
    rmse = float(np.sqrt(np.mean((y_true - y_pred) ** 2)))

    c_pred = np.array([p[1] for p in preds]) >= 0.5
    c_true = np.array([l[1] for l in labels])
    if not np.isin(c_true, (0.0, 1.0)).all():
        raise ValueError("collision labels must be 0 or 1")
    c_true = c_true.astype(bool)
    accuracy = float(np.mean(c_pred == c_true))
    tp = int(np.sum(c_pred & c_true))
    fp = int(np.sum(c_pred & ~c_true))
    fn = int(np.sum(~c_pred & c_true))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"eva": eva, "rmse": rmse, "accuracy": accuracy, "f1": f1}


def _cmd_gen_weights(args) -> int:
    graph = net.build_dronet()
    if args.zero:
        store = net.zero_store(graph)
    else:
        store = net.random_store(graph, args.seed, args.amplitude)
    net.save_weights(store, graph, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_graph(args) -> int:
    print(net.graph_summary(net.build_dronet(), csv=args.csv))
    return 0


def _cmd_infer(args) -> int:
    graph = net.build_dronet()
    store = net.load_weights(args.weights, graph)
    image = net.load_image(args.image)
    ref = kernels.infer_untiled(graph, store, image)
    print(f"steering {ref.steering:.4f}, collision {ref.collision_prob:.4f}")
    if args.tiled:
        sched = tiler.plan_network(graph, args.l1_budget)
        res = executor.execute_schedule(sched, store, image)
        diff = executor.first_difference(res, ref)
        if diff is not None:
            print("bit-exact vs untiled: NO ({}: {} of {} elements differ)".format(*diff))
            return 1
        print("bit-exact vs untiled: yes")
    return 0


def _cmd_plan(args) -> int:
    sched = tiler.plan_network(net.build_dronet(), args.l1_budget)
    print(tiler.schedule_summary(sched, csv=args.csv))
    return 0


def _cmd_mem(args) -> int:
    graph = net.build_dronet()
    plan = (l2plan.plan_single_stack if args.single
            else l2plan.plan_two_stack)(graph)
    print(l2plan.plan_summary(plan, graph, csv=args.csv))
    if not args.csv:
        kind = "single-stack" if args.single else "two-stack"
        print(f"{kind} peak {plan.peak_bytes / 1024:.1f} KB, "
              f"headroom {plan.headroom / 1024:.1f} KB of {l2plan.L2_BYTES // 1024} KB")
    return 0


def _cmd_cost(args) -> int:
    sched = tiler.plan_network(net.build_dronet(), args.l1_budget)
    op = cost.OpPoint(args.vdd, args.fc * 1e6, args.cl * 1e6)
    rep = cost.frame_report(sched, op)
    if args.csv:
        print(rep.to_csv())
        return 0
    print(f"operating point: {op.vdd:.1f} V, FC {args.fc:.0f} MHz, "
          f"CL {args.cl:.0f} MHz")
    for r in rep.rows:
        l3 = f"{r.l3l2_ms(op):7.2f}" if r.l3l2_fcycles else "      -"
        print(f"  {r.name:<10} exec {r.exec_ms(op):7.2f} ms   l3-l2 {l3} ms")
    udma, dma, comp, total = cost.breakdown_mcycles(rep)
    print(f"cycles: compute {comp:.2f} M, dma l2/l1 {dma:.2f} M, "
          f"udma l3/l2 {udma:.2f} M, total {total:.2f} M")
    print(f"frame {1e3 * rep.frame_s:.1f} ms -> {rep.fps:.2f} fps, "
          f"avg power {1e3 * rep.power_w:.1f} mW "
          f"(board {1e3 * rep.board_power_w:.1f} mW), "
          f"energy {1e3 * rep.energy_j:.2f} mJ/frame")
    return 0


def _cmd_sweep(args) -> int:
    sched = tiler.plan_network(net.build_dronet(), args.l1_budget)
    points, best = cost.sweep(sched)
    print(cost.sweep_csv(points))
    if not args.csv:
        print(f"# min energy: {best.op.vdd:.1f} V, FC {best.op.f_fc / 1e6:.0f} MHz, "
              f"CL {best.op.f_cl / 1e6:.0f} MHz "
              f"({1e3 * best.energy_j:.2f} mJ/frame)")
    return 0


def _cmd_react(args) -> int:
    trace = ctrl.load_trace(args.trace) if args.trace else ctrl.reference_trace()
    fps_list = [float(x) for x in args.fps.split(",")]
    rows = ctrl.fps_sweep(fps_list, trace, v=args.speed,
                          t_appear=args.appear, distance_free=args.distance)
    print(ctrl.sweep_csv(rows))
    return 0


def _cmd_mission(args) -> int:
    timings = offload.Timings(args.dma * 1e-3, args.compute * 1e-3,
                              args.result * 1e-3, args.setup * 1e-3)
    tl = offload.run_mission(args.frames, timings)
    violations = offload.validate_timeline(tl)
    print(tl.to_csv())
    if not args.csv:
        fps = 1.0 / tl.steady_period() if args.frames > 1 else float("nan")
        print(f"# protocol: {'ok' if not violations else violations}")
        print(f"# steady-state fps {fps:.2f}")
    return 0 if not violations else 1


def _cmd_metrics(args) -> int:
    m = evaluate_metrics(args.pred, args.labels)
    if args.csv:
        print("eva,rmse,accuracy,f1")
        print(f"{m['eva']:.6f},{m['rmse']:.6f},{m['accuracy']:.6f},{m['f1']:.6f}")
    else:
        print(f"EVA {m['eva']:.4f}  RMSE {m['rmse']:.4f}  "
              f"Accuracy {m['accuracy']:.4f}  F1 {m['f1']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nanotile",
                                 description="fixed-point CNN navigation engine "
                                             "tools")
    sub = ap.add_subparsers(dest="command", required=True)

    def budget(p):
        p.add_argument("--l1-budget", type=int, default=tiler.DEFAULT_L1_BUDGET,
                       help="L1 working-set budget in bytes")

    def csvflag(p):
        p.add_argument("--csv", action="store_true", help="machine-readable output")

    p = sub.add_parser("gen-weights", help="write a seeded random weight file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--zero", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_weights)

    p = sub.add_parser("graph", help="network summary")
    csvflag(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("infer", help="run inference on a PGM frame")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--tiled", action="store_true",
                   help="also run the tiled engine and compare bit-exactness")
    budget(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("plan", help="tiling schedule")
    budget(p)
    csvflag(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("mem", help="L2 allocation plan")
    p.add_argument("--single", action="store_true", help="single-stack variant")
    csvflag(p)
    p.set_defaults(func=_cmd_mem)

    p = sub.add_parser("cost", help="cycle/power report at an operating point")
    p.add_argument("--vdd", type=float, default=1.0)
    p.add_argument("--fc", type=float, default=50.0, help="FC clock in MHz")
    p.add_argument("--cl", type=float, default=100.0, help="CL clock in MHz")
    budget(p)
    csvflag(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("sweep", help="operating-point sweep CSV")
    budget(p)
    csvflag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("react", help="obstacle-reaction study")
    p.add_argument("--fps", default="5,10,20,25",
                   help="comma-separated frame rates")
    p.add_argument("--trace", help="collision trace CSV (timestamp_s,c)")
    p.add_argument("--speed", type=float, default=4.0)
    p.add_argument("--appear", type=float, default=4.0)
    p.add_argument("--distance", type=float, default=4.0)
    csvflag(p)
    p.set_defaults(func=_cmd_react)

    p = sub.add_parser("mission", help="host-accelerator protocol timeline")
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--dma", type=float, default=4.0, help="frame DMA ms")
    p.add_argument("--compute", type=float, default=158.0, help="compute ms")
    p.add_argument("--result", type=float, default=0.5, help="SPI result ms")
    p.add_argument("--setup", type=float, default=1.0, help="kernel fetch ms")
    csvflag(p)
    p.set_defaults(func=_cmd_mission)

    p = sub.add_parser("metrics", help="prediction metrics vs labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True)
    csvflag(p)
    p.set_defaults(func=_cmd_metrics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
        return 1
    except (net.WeightFileError, net.ImageFormatError, tiler.InfeasibleError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
