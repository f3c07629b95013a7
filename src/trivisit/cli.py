"""Command-line surface: evaluate costs, draw region maps, maximize ratios,
sweep triangle space, and run the self-verification suite.

Exit codes: 0 success, 1 usage error, 2 invalid geometry or exterior point,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import verify as verify_mod
from .fleet_costs import fleet_costs
from .geom_core import GeometryError, Point2, Triangle, triangle_from_angles
from .oracle import oracle_costs
from .regions import r1_lrd_rld_locus, r2_separator, raster_region_map
from .tradeoffs import max_ratio, sweep_triangles
from .visitation import VisitOrder

SCHEMA = "trivisit/1"

EXIT_USAGE = 1
EXIT_GEOMETRY = 2
EXIT_VERIFY = 3


def _fmt_float(x: float) -> str:
    """17 significant digits, or ``repr`` for an integral value below 1e16
    in magnitude; ``NaN`` and quoted infinities as they are."""
    if -1e16 < x < 1e16:
        return repr(float(x)) if x.is_integer() else format(x, ".17g")
    if x != x:
        return "NaN"
    if x == math.inf:
        return '"Infinity"'
    if x == -math.inf:
        return '"-Infinity"'
    return format(x, ".17g")


class EvalReport(dict):
    """The ``eval`` report, built only by ``eval_report``, so its shape is
    fixed: ``json_dumps`` writes it in one pass with ``_eval_json``."""


def json_dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered fields, floats at 17 significant
    digits, so identical inputs produce byte-identical output.  An
    ``EvalReport`` is written by ``_eval_json`` in one pass, in the same bytes
    as the generic walk ``_json``."""
    if isinstance(obj, EvalReport):
        return _eval_json(obj)
    return _json(obj, 0)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json(obj, indent: int) -> str:
    """The generic walk of ``json_dumps``, for any object."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        items = [f'{pad}  {_json(k, 0)}: {_json(v, indent + 2)}' for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_json(v, indent + 2)}" for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _leaf(v) -> str:
    """A scalar as the generic walk writes it."""
    if v.__class__ is float:
        return _fmt_float(v)
    if v.__class__ is str:
        return _quote(v)
    return _json(v, 0)


def _leaf_list(seq, pad: str) -> str:
    """A list of scalars whose items sit at ``pad``."""
    if not seq:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(map(_leaf, seq)) + "\n" + pad[:-2] + "]"


def _point_list(seq, pad: str) -> str:
    """A list of [x, y] pairs whose items sit at ``pad``."""
    if not seq:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join(
        f"{pad}[\n{inner}{_leaf(x)},\n{inner}{_leaf(y)}\n{pad}]" for x, y in seq
    ) + "\n" + pad[:-2] + "]"


def _traj_json(tr, pad: str) -> str:
    """A trajectory (``_traj_dict``) whose keys sit at ``pad``."""
    inner = pad + "  "
    return (
        f'{{\n{pad}"waypoints": {_point_list(tr["waypoints"], inner)},\n{pad}"cost": {_leaf(tr["cost"])},\n'
        f'{pad}"kind": {_leaf(tr["kind"])},\n{pad}"order": {_leaf(tr["order"])},\n'
        f'{pad}"edges": {_leaf_list(tr["edges"], inner)},\n{pad}"tie": {_leaf(tr["tie"])}\n{pad[:-2]}}}'
    )


def _eval_json(rep: EvalReport) -> str:
    """``_json(rep, 0)``, written in one pass along the report's fixed shape.
    Only the oracle block goes through the generic walk."""
    inp, r3, r2, r1 = rep["input"], rep["r3"], rep["r2"], rep["r1"]
    witnesses = [
        f'      {{\n        "single_edge": {_leaf(w["single_edge"])},\n'
        f'        "determined_by": {_leaf(w["determined_by"])},\n'
        f'        "single": {_traj_json(w["single"], " " * 10)},\n'
        f'        "pair": {_traj_json(w["pair"], " " * 10)}\n      }}'
        for w in r2["witnesses"]
    ]
    out = (
        f'{{\n  "schema": {_leaf(rep["schema"])},\n'
        f'  "input": {{\n    "vertices": {_point_list(inp["vertices"], " " * 6)},\n'
        f'    "angles_deg": {_leaf_list(inp["angles_deg"], " " * 6)},\n'
        f'    "point": {_leaf_list(inp["point"], " " * 6)}\n  }},\n'
        f'  "r3": {{\n    "cost": {_leaf(r3["cost"])},\n    "edges": {_leaf_list(r3["edges"], " " * 6)}\n  }},\n'
        f'  "r2": {{\n    "cost": {_leaf(r2["cost"])},\n    "witnesses": '
        + ("[\n" + ",\n".join(witnesses) + "\n    ]" if witnesses else "[]")
        + f'\n  }},\n  "r1": {{\n    "cost": {_leaf(r1["cost"])},\n'
        f'    "orders": {_leaf_list(r1["orders"], " " * 6)},\n'
        f'    "trajectory": {_traj_json(r1["trajectory"], " " * 6)}\n  }}'
    )
    if "oracle" in rep:
        out += ',\n  "oracle": ' + _json(rep["oracle"], 2)
    return out + "\n}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_floats(raw: str, count: int, what: str) -> list[float]:
    parts = raw.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {raw!r}")
    return [float(p) for p in parts]


def resolve_triangle(args) -> Triangle:
    """Triangle from --angles B,C (degrees, standard form) or --vertices."""
    if args.angles is not None and args.vertices is not None:
        raise ValueError("give either --angles or --vertices, not both")
    if args.angles is not None:
        b, c = _parse_floats(args.angles, 2, "--angles")
        return triangle_from_angles(math.radians(b), math.radians(c))
    if args.vertices is not None:
        v = _parse_floats(args.vertices, 6, "--vertices")
        return Triangle((v[0], v[1]), (v[2], v[3]), (v[4], v[5]))
    raise ValueError("a triangle is required: --angles B,C or --vertices x1,y1,...,x3,y3")


def _point(args) -> Point2:
    x, y = _parse_floats(args.point, 2, "--point")
    return Point2(x, y)


def _traj_dict(traj) -> dict:
    return {
        "waypoints": [[w.x, w.y] for w in traj.waypoints],
        "cost": traj.cost,
        "kind": traj.kind.value,
        "order": traj.order.value if traj.order else None,
        "edges": [e.value for e in traj.edge_sequence],
        "tie": traj.tie,
    }


def eval_report(t: Triangle, p: Point2, with_oracle: bool = False) -> EvalReport:
    rep = fleet_costs(t, p)
    out = EvalReport({
        "schema": SCHEMA,
        "input": {
            "vertices": [[v.x, v.y] for v in t.vertices],
            "angles_deg": [math.degrees(t.angle_a), math.degrees(t.angle_b), math.degrees(t.angle_c)],
            "point": [p.x, p.y],
        },
        "r3": {"cost": rep.r3.cost, "edges": [e.value for e in rep.r3.edges]},
        "r2": {
            "cost": rep.r2.cost,
            "witnesses": [
                {
                    "single_edge": w.single_edge.value,
                    "determined_by": w.determined_by,
                    "single": _traj_dict(w.single),
                    "pair": _traj_dict(w.pair),
                }
                for w in rep.r2.witnesses
            ],
        },
        "r1": {
            "cost": rep.r1.cost,
            "orders": [o.value for o in rep.r1.orders],
            "trajectory": _traj_dict(rep.r1.trajectory),
        },
    })
    if with_oracle:
        ref = oracle_costs(t, p)
        oracle = {key: ref[key] for key in ("r1", "r2", "r3")}
        oracle["ordered"] = {o.value: ref[o.value] for o in VisitOrder}
        oracle["delta_r1"] = rep.r1.cost - oracle["r1"]
        oracle["delta_r2"] = rep.r2.cost - oracle["r2"]
        oracle["delta_r3"] = rep.r3.cost - oracle["r3"]
        out["oracle"] = oracle
    return out


def cmd_eval(args) -> int:
    t = resolve_triangle(args)
    p = _point(args)
    report = eval_report(t, p, with_oracle=args.oracle)
    print(json_dumps(report))
    return 0


def cmd_regions(args) -> int:
    t = resolve_triangle(args)
    rmap = raster_region_map(t, n=args.grid, mode=args.mode)
    chains = []
    try:
        chains.append(r2_separator(t))
    except GeometryError:
        pass
    chains.append(r1_lrd_rld_locus(t))
    svg_path = args.out or "regions.svg"
    csv_path = str(svg_path)
    csv_path = csv_path[:-4] + ".csv" if csv_path.endswith(".svg") else csv_path + ".csv"
    rmap.to_svg(svg_path, chains)
    rmap.to_csv(csv_path)
    print(json_dumps({
        "schema": SCHEMA,
        "mode": args.mode,
        "grid": args.grid,
        "cells": len(rmap.cells),
        "tie_cells": int(rmap.cells.tie.sum()),
        "svg": str(svg_path),
        "csv": str(csv_path),
    }))
    return 0


def cmd_ratio(args) -> int:
    t = resolve_triangle(args)
    rep = max_ratio(t, args.n, args.m)
    print(json_dumps({
        "schema": SCHEMA,
        "pair": [args.n, args.m],
        "ratio": rep.ratio,
        "argmax": [rep.argmax.x, rep.argmax.y],
        "rn": rep.rn,
        "rm": rep.rm,
    }))
    return 0


def cmd_sweep(args) -> int:
    sw = sweep_triangles(args.n, args.m, step_deg=args.step, eps_apex_deg=args.eps_apex)
    out = args.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write("B_deg,C_deg,ratio,argmax_x,argmax_y,Rn,Rm\n")
        for row in sw.rows:
            fields = (row.b_deg, row.c_deg, row.ratio, row.argmax.x, row.argmax.y, row.rn, row.rm)
            fh.write(",".join(format(v, ".17g") for v in fields) + "\n")
    summary = {"schema": SCHEMA, **sw.summary(), "csv": str(out)}
    print(json_dumps(summary))
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_criteria(quick=args.quick)
    if args.json:
        print(json_dumps({
            "schema": SCHEMA,
            "criteria": [
                {"id": r.cid, "description": r.description, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }))
    else:
        width = max(len(r.description) for r in results)
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"[{flag}] {r.cid:>2}  {r.description:<{width}}  {r.detail}")
        total = sum(r.passed for r in results)
        print(f"{total}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="trivisit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triangle(p):
        p.add_argument("--angles", help="angles at B and C in degrees, e.g. 60,60 (standard form)")
        p.add_argument("--vertices", help="x1,y1,x2,y2,x3,y3 for vertices A,B,C")

    p = sub.add_parser("eval", help="R1/R2/R3 costs and witnesses at a point")
    add_triangle(p)
    p.add_argument("--point", required=True, help="x,y of the starting point")
    p.add_argument("--oracle", action="store_true", help="add brute-force costs and deltas")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("regions", help="raster region map as SVG + CSV")
    add_triangle(p)
    p.add_argument("--mode", choices=("r1", "r2", "r3"), default="r1")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out", help="output SVG path (CSV written alongside)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("ratio", help="maximize R_n/R_m over starting points")
    add_triangle(p)
    p.add_argument("--n", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--m", type=int, required=True, choices=(1, 2, 3))
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sweep", help="max ratio over an angle grid of triangles")
    p.add_argument("--n", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--m", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--step", type=float, default=1.0, help="angle grid step in degrees")
    p.add_argument("--eps-apex", type=float, default=0.5, help="smallest admitted angle, degrees")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"trivisit: invalid geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ValueError as exc:
        print(f"trivisit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
