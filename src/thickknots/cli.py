"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline stall or
chain integrity failure.  Diagnostics go to stderr; data to stdout or the
requested output files.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import alexander_determinant, radius_of_gyration
from .canonicalize import canonicalize
from .errors import (
    ConfigError,
    IntegrityFailure,
    NoGenericProjection,
    ParseError,
    PipelineStall,
    ThickKnotsError,
)
from .knotio import (
    KnotRecord,
    read_records,
    write_knots,
    write_obj,
    write_stats,
    write_trace,
)
from .mcmc import Chain, ChainConfig
from .polygon import regular_polygon
from .thickness import injectivity_radius, thickness_value

USAGE_ERROR, DATA_ERROR, STALL_ERROR = 1, 2, 3


def _cmd_gen_regular(args):
    K = regular_polygon(args.n)
    write_knots("-", [K], headers=[{"n": K.n, "thickness": thickness_value(K)}])
    return 0


def _cmd_thickness(args):
    for index, rec in enumerate(read_records(args.file)):
        rep = injectivity_radius(rec.polygon)
        if index:
            print()
        print(f"record={index}")
        print(f"n={rec.polygon.n}")
        print(f"minrad={rep.minrad:.17g}")
        print(f"minrad_vertex={rep.minrad_vertex}")
        dcsd = "inf" if rep.dcsd is None else f"{rep.dcsd:.17g}"
        print(f"dcsd={dcsd}")
        print(f"injectivity_radius={rep.injectivity_radius:.17g}")
        print(f"thickness={rep.thickness:.17g}")
        print(f"arclength={rep.arclength:.17g}")
    return 0


def _cmd_sample(args):
    cfg = ChainConfig(
        n=args.n,
        t=args.thickness,
        seed=args.seed,
        steps=args.steps,
        N=args.cap,
        p=None if args.cont_prob is None else (args.cont_prob,) * args.cap,
        burn_in=args.burn_in,
        stride=args.stride,
    )
    chain = Chain(cfg)
    records = []
    stats = []
    for step, K, out in chain.run():
        if args.stats:
            # the report's thickness is thickness_value(K), bit for bit
            rep = injectivity_radius(K)
            th = rep.thickness
            stats.append({
                "step": step,
                "thickness": rep.thickness,
                "minrad": rep.minrad,
                "dcsd": rep.dcsd if rep.dcsd is not None else "inf",
                "rg2": radius_of_gyration(K) ** 2,
                "accepted": int(out.accepted),
                "m": out.m,
            })
        else:
            th = thickness_value(K)
        head = {"n": K.n, "seed": args.seed, "step": step, "thickness": f"{th:.17g}"}
        records.append(KnotRecord(K, head))
    write_knots(args.out, records)
    if args.stats:
        with open(args.stats, "w") as handle:
            write_stats(handle, stats)
    print(
        f"emitted={len(records)} acceptance_rate={chain.acceptance_rate:.4f} "
        f"audits={chain.audits}",
        file=sys.stderr,
    )
    return 0


def _cmd_canonicalize(args):
    finals = []
    traces = []
    for rec in read_records(args.file):
        trace = canonicalize(rec.polygon)
        finals.append(KnotRecord(trace.final, {"n": trace.final.n}))
        traces.append(trace)
    write_knots("-", finals)
    if args.trace:
        with open(args.trace, "w") as handle:
            for trace in traces:
                write_trace(handle, trace)
                handle.write(f"final_rms={trace.final_rms:.17g}\n")
    return 0


def _cmd_analyze(args):
    wanted = [w.strip() for w in args.observables.split(",") if w.strip()]
    known = {"gyration", "thickness", "unknot"}
    bad = set(wanted) - known
    if bad:
        print(f"unknown observables: {', '.join(sorted(bad))}", file=sys.stderr)
        return USAGE_ERROR
    for index, rec in enumerate(read_records(args.file)):
        fields = [f"record={index}"]
        K = rec.polygon
        if "gyration" in wanted:
            fields.append(f"rg={radius_of_gyration(K):.17g}")
        if "thickness" in wanted:
            fields.append(f"thickness={thickness_value(K):.17g}")
        if "unknot" in wanted:
            det = alexander_determinant(K)
            # determinant 1 is necessary, not sufficient, for the unknot
            fields.append(f"determinant={det}")
            fields.append(f"maybe_unknot={int(det == 1)}")
        print(" ".join(fields))
    return 0


def _cmd_convert(args):
    if args.to != "obj":
        print(f"unsupported target format: {args.to}", file=sys.stderr)
        return USAGE_ERROR
    for index, rec in enumerate(read_records(args.file)):
        write_obj(sys.stdout, rec.polygon, name=f"knot{index}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="thickknots",
        description="Sample, measure, and canonicalize thick equilateral knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-regular", help="emit a regular n-gon record")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen_regular)

    p = sub.add_parser("thickness", help="thickness report per record")
    p.add_argument("file", help="knot file, or - for stdin")
    p.set_defaults(func=_cmd_thickness)

    p = sub.add_parser("sample", help="run the reflection-move chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--thickness", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=6,
                   help="max reflections per step")
    p.add_argument("--cont-prob", type=float, default=None,
                   help="continuation probability per extra reflection")
    p.add_argument("--out", default="-")
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("canonicalize", help="flatten and regularize records")
    p.add_argument("file")
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("analyze", help="observables per record")
    p.add_argument("file")
    p.add_argument("--observables", default="gyration,thickness")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="export records for external viewers")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=["obj"])
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage problems; remap (0 stays 0 for --help)
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except (PipelineStall, IntegrityFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STALL_ERROR
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ThickKnotsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
