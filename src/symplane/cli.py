"""Command-line front end.

Subcommands: analyze, compare, symmetry, realize, moser, moduli-dim,
render. Exit codes: 0 success or equivalent, 1 negative outcome
(inequivalent verdict, infeasible realization target), 2 usage errors
and genericity violations, 3 incomparable isotopy types, 4 unreadable
or unparseable input files. Reports are plain text and byte-identical
for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .arrangement import (
    build_arrangement,
    integrate_density_over_faces,  # noqa: F401  (the benchmark's tracer wraps it here)
    render_svg,
)
from .curves import DEFAULT_ANGLE_TOL, _read_text, _significant_lines, check_generic, load_curve
from .diagram import canonical_code, gauss_code, perm_cycles, symmetry_group
from .errors import (
    FormatError,
    GenericityError,
    RealizationError,
    ValidationError,
    require_positive,
)
from .forms import (
    DEFAULT_GRID,
    DEFAULT_STEPS,
    MIN_STEPS,
    load_density,
    moser_interpolation,
    realize_area_vector,
    save_density,
    save_map,
    support_defect,
    union_box,
)
from .moduli import (
    DEFAULT_AREA_TOL,
    CurveSpec,
    Surface,
    Verdict,
    decision_report,
    labelled_equivalent,
    moduli_dimension,
    singularity_by_name,
    symplectically_equivalent,
)

MIN_GRID = 32

_EXIT_FOR_VERDICT = {
    Verdict.EQUIVALENT: 0,
    Verdict.INEQUIVALENT: 1,
    Verdict.INCOMPARABLE: 3,
}


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _positive_float(text):
    value = float(text)
    try:
        return require_positive("value", value)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_size(text):
    value = int(text)
    if value < MIN_GRID:
        raise argparse.ArgumentTypeError(f"resolution must be at least {MIN_GRID}")
    return value


def _step_count(text):
    value = int(text)
    if value < MIN_STEPS:
        raise argparse.ArgumentTypeError(f"need at least {MIN_STEPS} time steps")
    return value


def _add_tolerances(p):
    """The genericity tolerances of the subcommands that certify a curve."""
    p.add_argument("--angle-tol", type=_positive_float, default=DEFAULT_ANGLE_TOL)
    p.add_argument("--sep-tol", type=_positive_float, default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symplane",
        description="Area-preserving classification of immersed plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="genericity, faces, areas, and codes of one curve")
    p.add_argument("curve")
    _add_tolerances(p)
    p.add_argument("--svg", default=None, help="also write an SVG rendering")

    p = sub.add_parser("compare", help="decide equivalence of two curves")
    p.add_argument("a")
    p.add_argument("b")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--labelled", action="store_true",
                      help="compare areas along the matched labelling")
    mode.add_argument("--symplectic", action="store_true",
                      help="compare up to the curve's symmetry group")
    p.add_argument("--area-tol", type=_positive_float, default=DEFAULT_AREA_TOL)
    _add_tolerances(p)

    p = sub.add_parser("symmetry", help="report the face-label symmetry group")
    p.add_argument("curve")
    _add_tolerances(p)

    p = sub.add_parser("realize", help="build a density with prescribed face integrals")
    p.add_argument("curve")
    p.add_argument("targets", nargs="+", type=_positive_float,
                   help="one target integral per bounded face, in label order")
    p.add_argument("--grid", type=_grid_size, default=DEFAULT_GRID)
    p.add_argument("--base-scale", type=_positive_float, default=1.0)
    p.add_argument("--out", required=True, help="density file to write")

    p = sub.add_parser("moser", help="flow one density to another, write the map")
    p.add_argument("f0")
    p.add_argument("f1")
    p.add_argument("--steps", type=_step_count, default=DEFAULT_STEPS)
    p.add_argument("--out", required=True, help="displacement map file to write")

    p = sub.add_parser("moduli-dim", help="dimension of the moduli space for a curve spec")
    p.add_argument("spec")

    p = sub.add_parser("render", help="write an SVG rendering of the arrangement")
    p.add_argument("curve")
    p.add_argument("--svg", required=True)
    _add_tolerances(p)

    return parser


class _NotGeneric(Exception):
    """A curve's violations are reported; main exits 2."""


def _checked_arrangement(path, angle_tol, sep_tol, out):
    """Load, certify, and arrange a curve; report violations and raise _NotGeneric."""
    curve = load_curve(path)
    report = check_generic(curve, angle_tol=angle_tol, sep_tol=sep_tol)
    if not report.is_generic:
        out.write(f"curve: {path}\n")
        out.write("generic: no\n")
        out.write(f"violations: {len(report.violations)}\n")
        for v in report.violations:
            x, y = v.point
            out.write(f"  {v.kind} at ({_fmt(x)}, {_fmt(y)}): {v.detail}\n")
        raise _NotGeneric
    return build_arrangement(curve, report)


def _write_svg(arr, path, out):
    """Write the arrangement's SVG rendering to path and report it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(arr))
    out.write(f"svg: {path}\n")


def cmd_analyze(args, out) -> int:
    arr = _checked_arrangement(args.curve, args.angle_tol, args.sep_tol, out)
    curve = arr.curve
    out.write(f"curve: {args.curve}\n")
    out.write(f"loops: {len(curve.loops)}\n")
    out.write(f"samples: {curve.sample_count}\n")
    out.write("generic: yes\n")
    out.write(f"double points: {len(arr.vertices)}\n")
    out.write(
        f"vertices: {len(arr.vertices)} edges: {len(arr.half_edges) // 2} "
        f"faces: {len(arr.faces)}\n"
    )
    out.write(f"bounded faces: {arr.r}\n")
    out.write("areas:\n")
    for face in arr.bounded_faces:
        out.write(f"  {face.label}: {_fmt(face.area)}\n")
    gc = gauss_code(arr)
    out.write("gauss code:\n")
    for i, seq in enumerate(gc.labelled_sequences()):
        if not seq:
            out.write(f"  loop {i + 1}: (no crossings)\n")
        else:
            toks = " ".join(f"{lab}{'ab'[slot]}{sign}" for lab, slot, sign in seq)
            out.write(f"  loop {i + 1}: {toks}\n")
    out.write(f"canonical: {canonical_code(gc)}\n")
    if args.svg:
        _write_svg(arr, args.svg, out)
    return 0


def cmd_compare(args, out) -> int:
    arr_a = _checked_arrangement(args.a, args.angle_tol, args.sep_tol, out)
    arr_b = _checked_arrangement(args.b, args.angle_tol, args.sep_tol, out)
    mode = "labelled" if args.labelled else "symplectic"
    if args.labelled:
        decision = labelled_equivalent(arr_a, arr_b, tol=args.area_tol)
    else:
        decision = symplectically_equivalent(arr_a, arr_b, tol=args.area_tol)
    out.write(f"a: {args.a}\n")
    out.write(f"b: {args.b}\n")
    out.write(f"mode: {mode}\n")
    out.write(decision_report(decision))
    return _EXIT_FOR_VERDICT[decision.verdict]


def cmd_symmetry(args, out) -> int:
    arr = _checked_arrangement(args.curve, args.angle_tol, args.sep_tol, out)
    group = symmetry_group(arr)
    out.write(f"curve: {args.curve}\n")
    out.write(f"bounded faces: {arr.r}\n")
    out.write(f"marked vertices: {group.marked}\n")
    out.write(f"group order: {group.order}\n")
    gens = [perm_cycles(group.face_perms[i]) for i in group.generators]
    out.write(f"generators: {' '.join(gens) if gens else 'none (trivial)'}\n")
    out.write("elements:\n")
    for fperm, vperm in group:
        out.write(f"  faces {perm_cycles(fperm)}; vertices {perm_cycles(vperm)}\n")
    return 0


def cmd_realize(args, out) -> int:
    arr = _checked_arrangement(args.curve, DEFAULT_ANGLE_TOL, None, out)
    try:
        density, achieved = realize_area_vector(
            arr, args.targets, base_scale=args.base_scale, grid_n=args.grid
        )
    except RealizationError as exc:
        out.write(f"infeasible: {exc}\n")
        return 1
    save_density(density, args.out)
    out.write(f"curve: {args.curve}\n")
    out.write(f"grid: {density.nx}x{density.ny}\n")
    out.write("face integrals:\n")
    for j, value in enumerate(achieved):
        out.write(f"  {j + 1}: {_fmt(value)} (target {_fmt(args.targets[j])})\n")
    out.write(f"density: {args.out}\n")
    return 0


def cmd_moser(args, out) -> int:
    f0 = load_density(args.f0)
    f1 = load_density(args.f1)
    flow = moser_interpolation(f0, f1, steps=args.steps)
    save_map(flow, args.out)
    defect = support_defect(flow, union_box(f0.support_box, f1.support_box))
    out.write(f"f0: {args.f0}\n")
    out.write(f"f1: {args.f1}\n")
    out.write(f"steps: {args.steps}\n")
    out.write(f"grid: {flow.nx}x{flow.ny}\n")
    out.write(f"support defect: {_fmt(defect)}\n")
    out.write(f"map: {args.out}\n")
    return 0


def _parse_spec_file(path) -> CurveSpec:
    lines = [line for _, line in _significant_lines(_read_text(path))]
    if not lines or lines[0] != "spec v1":
        raise FormatError("expected header 'spec v1'")
    r = None
    surface = Surface.PLANE
    points = []
    surfaces = {s.value: s for s in Surface}
    for ln in lines[1:]:
        parts = ln.split(None, 1)
        key = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if key == "r":
            try:
                r = int(rest)
            except ValueError:
                raise FormatError(f"bad face count {rest!r}") from None
        elif key == "surface":
            if rest not in surfaces:
                raise FormatError(
                    f"unknown surface {rest!r} (choose plane, unbounded, bounded)"
                )
            surface = surfaces[rest]
        elif key == "singular":
            try:
                points.append(singularity_by_name(rest))
            except ValidationError as exc:
                raise FormatError(str(exc)) from None
        else:
            raise FormatError(f"unknown spec line {ln!r}")
    if r is None:
        raise FormatError("spec file must state 'r <int>'")
    try:
        return CurveSpec(r=r, unstable_points=tuple(points), surface=surface)
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def cmd_moduli_dim(args, out) -> int:
    spec = _parse_spec_file(args.spec)
    dim = moduli_dimension(spec)
    out.write(f"r: {spec.r}\n")
    out.write(f"surface: {spec.surface.value}\n")
    out.write("local contributions:\n")
    if not spec.unstable_points:
        out.write("  none\n")
    for p in spec.unstable_points:
        out.write(f"  {p.name}: {p.dimension}\n")
    if spec.surface is Surface.BOUNDED_SURFACE:
        out.write(f"faces: {spec.r} - 1 = {spec.r - 1}\n")
    else:
        out.write(f"faces: {spec.r}\n")
    out.write(f"dimension: {dim}\n")
    return 0


def cmd_render(args, out) -> int:
    arr = _checked_arrangement(args.curve, args.angle_tol, args.sep_tol, out)
    _write_svg(arr, args.svg, out)
    return 0


_HANDLERS = {
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "symmetry": cmd_symmetry,
    "realize": cmd_realize,
    "moser": cmd_moser,
    "moduli-dim": cmd_moduli_dim,
    "render": cmd_render,
}


def main(argv=None, out=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, out)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GenericityError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NotGeneric:
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
