"""Command-line front end: file-driven computation, certificates, sweeps, SVG.

Subcommands: cheeger, structure, hales, certificate, honeycomb, chain,
optimize, render.  Inputs and outputs are schema-tagged JSON artifacts
(deterministic byte-for-byte for identical inputs and seeds); render emits
SVG 1.1 with true elliptical-arc path commands.

Exit codes: 0 success, 1 validation failure (including malformed JSON, with
line/column diagnostics), 2 optimizer or chain-generation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import jsonio
from .arc_geometry import ArcCurve, curve_from_dict, curve_to_dict, edge_point
from .chamber_lemmas import (
    chain_from_dict,
    pocket_outline,
    run_chain_sweep,
    verify_chain_bound,
)
from .cheeger import (
    cheeger_convex,
    domain_from_dict,
    inner_cheeger_boundary,
    polygon_from_dict,
    structure_report,
)
from .cluster import (
    certificate_to_dict,
    cluster_from_dict,
    cluster_to_dict,
    honeycomb_cluster,
    honeycomb_kcell,
    lower_bound_certificate,
)
from .errors import (
    GenerationError,
    OptimizationError,
    ValidationError,
)
from .hales_deficit import deficit_report_to_dict, hales_check, place_nodes
from .partition_optimizer import asymptotic_report, optimize, trace_to_dict

_FMT = ".17g"


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand implementations.

def _cmd_cheeger(args) -> int:
    result = cheeger_convex(polygon_from_dict(_read_json(args.input)))
    out = {
        "h": result.h,
        "r": result.r,
        "iterations": result.iterations,
        "residual": result.residual,
        "boundary": curve_to_dict(result.cheeger_set_boundary),
        "roles": list(result.roles),
    }
    _write_text(args.output, jsonio.dumps(out))
    return 0


def _cmd_structure(args) -> int:
    rep = structure_report(domain_from_dict(_read_json(args.input)))
    out = {
        "is_class_A": rep.is_class_A,
        "violations": list(rep.violations),
        "angle_rule_residual": rep.angle_rule_residual,
        "perimeter_residual": rep.perimeter_residual,
        "area_residual": rep.area_residual,
        "representation_residuals": list(rep.representation_residuals)
        if rep.representation_residuals is not None
        else None,
    }
    _write_text(args.output, jsonio.dumps(out))
    return 0


def _cmd_hales(args) -> int:
    domain = domain_from_dict(_read_json(args.input))
    off = inner_cheeger_boundary(domain)
    nodes = place_nodes(off, domain)
    r_star = args.r_star if args.r_star is not None else domain.r
    rep = hales_check(off.curve, nodes, r_star)
    out = deficit_report_to_dict(rep)
    out["r_star"] = r_star
    out["exceptional_nodes"] = int(sum(nodes.exceptional))
    _write_text(args.output, jsonio.dumps(out))
    return 0


def _cmd_certificate(args) -> int:
    cert = lower_bound_certificate(cluster_from_dict(_read_json(args.input)))
    _write_text(args.output, jsonio.dumps(certificate_to_dict(cert)))
    return 0


def _cmd_honeycomb(args) -> int:
    if args.coords is not None:
        coords = [[jsonio.integer(v, "--coords entry") for v in jsonio.array(pair, "--coords pair")]
                  for pair in jsonio.array(jsonio.parse(args.coords), "--coords")]
        cl = honeycomb_kcell(coords, unit_hexagon=not args.unit_side)
    else:
        if args.l is None:
            raise ValidationError("honeycomb needs --l or --coords")
        cl = honeycomb_cluster(args.l, unit_hexagon=not args.unit_side)
    _write_text(args.output, jsonio.dumps(cluster_to_dict(cl)))
    return 0


def _cmd_chain(args) -> int:
    obj = _read_json(args.input)
    if "sweep" in obj:
        jsonio.require_keys(obj, ["sweep"])
        cfg = obj["sweep"]
        jsonio.require_keys(cfg, ["flavors", "count", "seed"], ["m_values"])
        flavors = [jsonio.string(f, "flavor") for f in jsonio.array(cfg["flavors"], "flavors")]
        count = jsonio.integer(cfg["count"], "count")
        seed = jsonio.integer(cfg["seed"], "seed")
        m_values = tuple(jsonio.integer(m, "m_values entry")
                         for m in jsonio.array(cfg.get("m_values", [3, 4, 5, 6]), "m_values"))
        lines = []
        total_violations = 0
        for flavor in flavors:
            records, violations = run_chain_sweep(flavor, count, seed, m_values=m_values)
            total_violations += len(violations)
            for rec in records:
                lines.append(jsonio.dumps(rec))
        _write_text(args.output, "".join(lines))
        return 0 if total_violations == 0 else 2
    chain = chain_from_dict(obj)
    rep = verify_chain_bound(chain)
    out = {
        "area": rep.area,
        "bound": rep.bound,
        "holds": rep.holds,
        "method": rep.method,
        "warnings": list(chain.warnings),
    }
    _write_text(args.output, jsonio.dumps(out))
    return 0


def _cmd_optimize(args) -> int:
    cfg = _read_json(args.config)
    jsonio.require_keys(
        cfg, ["container", "budget", "seed"], ["k", "ks", "restarts"]
    )
    container = polygon_from_dict(cfg["container"])
    runs = {
        "budget": jsonio.integer(cfg["budget"], "budget"),
        "seed": jsonio.integer(cfg["seed"], "seed"),
        "restarts": jsonio.integer(cfg.get("restarts", 8), "restarts"),
    }
    k = jsonio.integer(cfg["k"], "k") if "k" in cfg else None
    ks = ([jsonio.integer(v, "ks entry") for v in jsonio.array(cfg["ks"], "ks")]
          if "ks" in cfg else None)
    lines = []
    if k is not None:
        trace = optimize(k, container, **runs)
        lines.append(jsonio.dumps(trace_to_dict(trace)))
    if ks is not None:
        rows = asymptotic_report(ks, container, **runs)
        for row in rows:
            lines.append(jsonio.dumps({
                "k": row.k,
                "best_objective": row.best_objective,
                "scaled": row.scaled,
                "ratio": row.ratio,
            }))
    if not lines:
        raise ValidationError("optimize config needs 'k' or 'ks'")
    _write_text(args.output, "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# SVG rendering.

def _f(x: float) -> str:
    return format(float(x), _FMT)


def _arc_commands(row: tuple):
    # SVG y-axis points down, so math-CCW arcs use sweep flag 0 on negated y.
    r, signed = row[2], row[4]
    sweep_flag = 0 if signed > 0.0 else 1
    pieces = []
    sweep = abs(signed)
    splits = max(1, math.ceil(sweep / math.pi - 1e-12))
    prev_t = 0.0
    for s in range(1, splits + 1):
        t = s / splits
        frac = sweep * (t - prev_t)
        x, y = edge_point(row, t)
        large = 1 if frac > math.pi + 1e-12 else 0
        pieces.append(f"A {_f(r)} {_f(r)} 0 {large} {sweep_flag} {_f(x)} {_f(-y)}")
        prev_t = t
    return pieces


def _curve_path(c: ArcCurve) -> str:
    x, y = edge_point(c.rows[0], 0.0)
    cmds = [f"M {_f(x)} {_f(-y)}"]
    for row in c.rows:
        if len(row) == 4:
            cmds.append(f"L {_f(row[2])} {_f(-row[3])}")
        else:
            cmds.extend(_arc_commands(row))
    if c.closed:
        cmds.append("Z")
    return " ".join(cmds)


def _polygon_curve(vertices) -> ArcCurve:
    pts = [(float(x), float(y)) for x, y in vertices]
    return ArcCurve([(*pts[i], *pts[(i + 1) % len(pts)]) for i in range(len(pts))], closed=True)


#: the keys that name an artifact's kind, in the order render_svg reads them
_RENDER_KINDS = ("edges", "boundary", "cells", "flavor", "vertices")
#: stroke widths of outlines and of a cluster's container, as fractions of
#: the view box's larger side
_STROKE = 0.005
_HEAVY_STROKE = 0.01


def render_svg(obj: dict) -> str:
    """Render a geometry artifact (curve, domain, cluster, chain, polygon) as SVG.

    The kind is the first key of ``_RENDER_KINDS`` that the artifact has.  A
    cluster draws its container heavy, a chain shades its pocket under its
    circles, and every other kind is one outline.
    """
    kind = next((key for key in _RENDER_KINDS if key in obj), None)
    if kind is None:
        raise ValidationError("unknown geometry kind: expected curve, polygon, domain, cluster, or chain")
    heavy, pocket, circles = [], None, []
    if kind == "cells":
        cl = cluster_from_dict(obj)
        heavy = [_polygon_curve(cl.container.vertices)]
        outlines = [cell.boundary for cell in cl.cells]
        bbox = heavy[0].bbox
    elif kind == "flavor":
        chain = chain_from_dict(obj)
        pocket, outlines = pocket_outline(chain), []
        circles = list(zip(chain.centers, chain.radii))
        bbox = pocket.bbox  # one whole circle per disk, the feet and the apex
    else:
        outlines = [_polygon_curve(polygon_from_dict(obj).vertices) if kind == "vertices"
                    else curve_from_dict(obj if kind == "edges" else obj["boundary"])]
        bbox = outlines[0].bbox
    x0, y0, x1, y1 = bbox
    pad = 0.05 * max(x1 - x0, y1 - y0)  # positive: the readers reject zero-size drawings
    vb = (x0 - pad, -(y1 + pad), (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    side = max(vb[2], vb[3])
    style = f'fill="none" stroke="black" stroke-width="{_f(_STROKE * side)}"'
    heavy_style = f'fill="none" stroke="black" stroke-width="{_f(_HEAVY_STROKE * side)}"'
    body = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(vb[0])} {_f(vb[1])} {_f(vb[2])} {_f(vb[3])}">\n'
    ]
    if pocket is not None:
        body.append(f'<path fill="#cccccc" stroke="none" d="{_curve_path(pocket)}"/>\n')
    body += [f'<path {heavy_style} d="{_curve_path(c)}"/>\n' for c in heavy]
    body += [f'<path {style} d="{_curve_path(c)}"/>\n' for c in outlines]
    body += [f'<circle cx="{_f(cx)}" cy="{_f(-cy)}" r="{_f(r)}" {style}/>\n'
             for (cx, cy), r in circles]
    return "".join(body) + "</svg>\n"


def _cmd_render(args) -> int:
    _write_text(args.output, render_svg(_read_json(args.input)))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cheegerlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cheeger", help="Cheeger constant of a convex polygon")
    c.add_argument("--input", required=True)
    c.add_argument("--output", required=True)
    c.set_defaults(fn=_cmd_cheeger)

    s = sub.add_parser("structure", help="class-A report for an arc domain")
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(fn=_cmd_structure)

    h = sub.add_parser("hales", help="hexagonal inequality report for an arc domain")
    h.add_argument("--input", required=True)
    h.add_argument("--output", required=True)
    h.add_argument("--r-star", type=float, default=None)
    h.set_defaults(fn=_cmd_hales)

    ce = sub.add_parser("certificate", help="lower-bound certificate for a cluster")
    ce.add_argument("--input", required=True)
    ce.add_argument("--output", required=True)
    ce.set_defaults(fn=_cmd_certificate)

    hc = sub.add_parser("honeycomb", help="build a honeycomb k-triangle or k-cell cluster")
    hc.add_argument("--l", type=int, default=None)
    hc.add_argument("--coords", default=None,
                    help="JSON list of axial coordinates for a k-cell")
    hc.add_argument("--unit-side", action="store_true",
                    help="unit side length instead of unit area")
    hc.add_argument("--output", required=True)
    hc.set_defaults(fn=_cmd_honeycomb)

    ch = sub.add_parser("chain", help="disk-chain bound report or randomized sweep")
    ch.add_argument("--input", required=True)
    ch.add_argument("--output", required=True)
    ch.set_defaults(fn=_cmd_chain)

    op = sub.add_parser("optimize", help="power-diagram upper bounds for M_k")
    op.add_argument("--config", required=True)
    op.add_argument("--output", required=True)
    op.set_defaults(fn=_cmd_optimize)

    re = sub.add_parser("render", help="render a geometry JSON artifact as SVG")
    re.add_argument("--input", required=True)
    re.add_argument("--output", required=True)
    re.set_defaults(fn=_cmd_render)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OptimizationError, GenerationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
