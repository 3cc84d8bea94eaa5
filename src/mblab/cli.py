"""Command-line front end.

Every verb reads one manifest JSON file plus optional override flags:

  mblab riemann --manifest run.json --tau 5 --u-B 0.8165
  mblab order-test --manifest order.json --levels 60,120,240
  mblab sweep --manifest run.json
  mblab domain-study --manifest run.json --L-values 0.25,0.75,1.25 --times 0.1,1
  mblab eps-sweep --manifest run.json --eps-values 0.005,0.01,0.02
  mblab lemma-audit --manifest run.json --weight-rate 0.5
  mblab bound --manifest run.json --t 0.1

main loads the manifest with its overrides once and passes it to the verb,
which prints its report; main maps the outcome to the exit code:
0 success, 2 validation error, 3 numerical failure (out of memory too),
4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__, bounds, experiments
from .errors import ManifestError, NumericalError
from .flux import FluxModel


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _pairs(text: str) -> list[tuple[float, float]]:
    out = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        tau, u_b = tok.split(":")
        out.append((float(tau), float(u_b)))
    return out


# the argparse type of each manifest field's annotation
_FLAG_TYPES = {"float": float, "str": str, "tuple[float, ...]": _floats}


def _manifest_parent() -> argparse.ArgumentParser:
    """--manifest and one override flag per manifest field: "--" and the
    field's alias or name with "_" as "-"; a list takes comma-separated
    floats."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--manifest", required=True,
                        help="path to the run-manifest JSON file")
    for field in dataclasses.fields(experiments.RunManifest):
        name = field.name
        flag = "--" + experiments._ALIASES.get(name, name).replace("_", "-")
        parent.add_argument(flag, dest=f"override_{name}",
                            type=_FLAG_TYPES[field.type], default=None,
                            help=f"override manifest {name}")
    return parent


def _load(args) -> experiments.RunManifest:
    manifest = experiments.load_manifest(args.manifest)
    overrides = {f.name: value for f in dataclasses.fields(experiments.RunManifest)
                 if (value := getattr(args, f"override_{f.name}")) is not None}
    return manifest.derive(**overrides)


def _cmd_order_test(manifest: experiments.RunManifest, args) -> None:
    rows = experiments.order_table(manifest.scheme, (manifest.tau, manifest.u_B),
                                   args.levels)
    print(f"# scheme={manifest.scheme} tau={manifest.tau:g} u_B={manifest.u_B:g}")
    print(f"{'N':>6} {'L1':>13} {'ord':>8} {'L2':>13} {'ord':>8} "
          f"{'Linf':>13} {'ord':>8}")
    for row in rows:
        cells = [f"{row['N']:>6}"]
        for norm in ("l1", "l2", "linf"):
            order = row[f"order_{norm}"]
            cells.append(f"{row[norm]:>13.4e}")
            cells.append(f"{order:>8.4f}" if order is not None else f"{'-':>8}")
        print(" ".join(cells))


def _cmd_riemann(manifest: experiments.RunManifest, args) -> None:
    fields = experiments.run_manifest(manifest)
    report = experiments.classify_profile(fields[-1], manifest,
                                          FluxModel(manifest.M))
    paths = experiments.export(fields, manifest)
    print(f"classification: {report.classification}")
    if report.plateau_value is not None:
        print(f"plateau_value: {report.plateau_value:.6g}")
    print(f"shock_positions: {[round(p, 6) for p in report.shock_positions]}")
    print(f"overshoot: {report.overshoot:.6g}")
    print(f"wrote {paths['csv']} and {paths['manifest']}")


def _cmd_sweep(manifest: experiments.RunManifest, args) -> None:
    entries = experiments.bifurcation_sweep(args.pairs, manifest)
    for e in entries:
        if e["error"]:
            print(f"tau={e['tau']:g} u_B={e['u_B']:.4g} -> ERROR {e['error']}")
            continue
        r = e["report"]
        plateau = f" plateau={r.plateau_value:.4g}" if r.plateau_value else ""
        print(f"tau={e['tau']:g} u_B={e['u_B']:.4g} -> {r.classification}"
              f"{plateau} overshoot={r.overshoot:.3g}")


def _cmd_domain_study(manifest: experiments.RunManifest, args) -> None:
    study = experiments.domain_study(manifest, args.L_values, args.times)
    print(f"# reference L = {study['L_ref']:g}")
    for e in study["entries"]:
        if "error" in e:
            print(f"t={e['t']:g} L={e['L']:g} ERROR {e['error']}")
            continue
        diffs = ("" if e["sup_diff"] is None else
                 f" sup_diff={e['sup_diff']:.3e} h1_diff={e['h1_diff']:.3e}"
                 f" bound={e['bound']:.3e}")
        sizing = "ok" if e["sizing_ok"] else "VIOLATED"
        print(f"t={e['t']:g} L={e['L']:g} {e['classification']}"
              f" sizing={sizing}{diffs}")


def _cmd_eps_sweep(manifest: experiments.RunManifest, args) -> None:
    rows = experiments.epsilon_sweep(manifest, args.eps_values)
    for r in rows:
        plateau = ("-" if r["plateau_value"] is None
                   else f"{r['plateau_value']:.4g}")
        print(f"epsilon={r['epsilon']:g} width={r['width']:.6g} "
              f"plateau={plateau} {r['classification']}")


def _cmd_lemma_audit(manifest: experiments.RunManifest, args) -> None:
    p = bounds._truncation_params(manifest, args.weight_rate)
    s = p.scale
    xs = args.x if args.x is not None else sorted(
        {0.0, p.L0 / 2.0, p.L0, 2.0 * p.L0, 10.0 * s})
    items = args.items or list(bounds.AUDIT_ITEMS)
    failures = 0
    for item in items:
        for x in xs:
            if item.startswith("L4") and x > p.L:
                continue
            res = bounds.lemma_audit(item, p, x)
            mark = "holds" if res["holds"] else "VIOLATED"
            failures += 0 if res["holds"] else 1
            print(f"{item:>5} x={x:<8g} lhs={res['lhs']:.6e} "
                  f"rhs={res['rhs']:.6e} {mark}")
    print(f"# {failures} violation(s)" if failures else "# all audits hold")


def _cmd_bound(manifest: experiments.RunManifest, args) -> None:
    p = bounds._truncation_params(manifest, args.weight_rate)
    report = bounds.bound_constants(p, args.t)
    for field in dataclasses.fields(bounds.BoundReport):
        print(f"{field.name} = {getattr(report, field.name):.10e}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mblab",
        description="Finite-interval solver laboratory for a dispersive "
                    "two-phase flow equation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    parent = _manifest_parent()

    p = sub.add_parser("order-test", parents=[parent],
                       help="self-convergence table on the smooth-ramp setup")
    p.add_argument("--levels", type=_ints, default=[60, 120, 240])
    p.set_defaults(func=_cmd_order_test)

    p = sub.add_parser("riemann", parents=[parent],
                       help="one run: classify the final profile and export")
    p.set_defaults(func=_cmd_riemann)

    p = sub.add_parser("sweep", parents=[parent],
                       help="bifurcation sweep over (tau, u_B) pairs")
    p.add_argument("--pairs", type=_pairs, default=None,
                   help='e.g. "0.2:0.75,5:0.9" (default: built-in set)')
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("domain-study", parents=[parent],
                       help="truncated-domain comparison against the largest L")
    p.add_argument("--L-values", type=_floats, required=True)
    p.add_argument("--times", type=_floats, required=True)
    p.set_defaults(func=_cmd_domain_study)

    p = sub.add_parser("eps-sweep", parents=[parent],
                       help="fixed-grid sweep over epsilon")
    p.add_argument("--eps-values", type=_floats, required=True)
    p.set_defaults(func=_cmd_eps_sweep)

    p = sub.add_parser("lemma-audit", parents=[parent],
                       help="audit of the kernel/weight bounds")
    p.add_argument("--weight-rate", type=float, default=0.5,
                   help="exponential weight rate in (0,1)")
    p.add_argument("--items", type=lambda s: s.split(","), default=None)
    p.add_argument("--x", type=_floats, default=None)
    p.set_defaults(func=_cmd_lemma_audit)

    p = sub.add_parser("bound", parents=[parent],
                       help="evaluate the truncation-bound constants at time t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--weight-rate", type=float, default=0.5)
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(_load(args), args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:  # a float overflow is one too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a grid too large to allocate
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
