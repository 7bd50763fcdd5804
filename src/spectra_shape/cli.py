"""Command-line driver.

Subcommands: eig (spectrum only), dshape (derivative routes), verify
(FD plus route-equivalence suite), study (refinement), abstract
(synthetic pencil demos). Exit codes: 0 success, 2 config error,
3 numerical failure, 4 invariant violation.

Importing this module loads neither numpy nor scipy: ``main`` sets the BLAS
thread variables first and imports the engine after, because OpenBLAS reads
them when it loads.
"""

import argparse
import json
import os
import sys

from .errors import (
    ConfigError,
    ContourError,
    ContractViolationError,
    DegenerateProblemError,
    InadmissibleParameterError,
    InvalidGeometryError,
    MeshFormatError,
    NearSingularError,
    PencilError,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

_NUMERICAL_ERRORS = (
    PencilError,
    NearSingularError,
    ContourError,
    DegenerateProblemError,
    InadmissibleParameterError,
)
_CONFIG_ERRORS = (ConfigError, MeshFormatError, InvalidGeometryError)


def solve_pencil(*args, **kwargs):
    """``spectral.solve_pencil``, imported on first use (see the module doc).

    A module-level name, so that ``bench/tracing.py`` can wrap it.
    """
    from .spectral import solve_pencil as solve

    return solve(*args, **kwargs)


def _emit(payload: dict, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _cmd_eig(cfg, out):
    from . import harness

    pencil = harness.assemble_at(cfg, cfg.chi_bar)
    lo, hi = cfg.index_range
    dec = solve_pencil(pencil, cfg.kernel_tol, count=hi, cluster_tol=cfg.cluster_tol)
    hi = min(hi, len(dec.eigenvalues))
    _emit(
        {
            "eigenvalues": dec.eigenvalues[lo - 1 : hi].tolist(),
            "kernel_dim": dec.kernel_dim,
            "dofs": pencil.size,
        },
        out,
    )


def _cmd_dshape(cfg, out):
    from . import harness

    report = harness.run(cfg)
    _emit(report.to_dict(), out or cfg.output)


def _cmd_verify(cfg, out):
    from . import harness

    report = harness.run(cfg)
    table = harness.fd_check(cfg, cfg.fd_steps)
    worst_route = 0.0
    for rec in report.clusters:
        worst_route = max(worst_route, rec.get("route_discrepancy", 0.0))
    payload = {
        "report": report.to_dict(),
        "fd_table": table,
        "worst_route_discrepancy": worst_route,
    }
    _emit(payload, out)
    if cfg.problem != "abstract-pencil" and worst_route > 1e-10:
        raise ContractViolationError(
            f"route equivalence violated: {worst_route:.3e} > 1e-10"
        )


def _cmd_study(cfg, out):
    from . import harness

    rows = harness.refinement_study(cfg)
    _emit({"levels": rows}, out)


def _cmd_abstract(cfg, out):
    from . import harness

    demos = {}
    for spec in ({"kind": "crossing"}, {"kind": "diagonal"},
                 {"kind": "degenerate", "seed": cfg.abstract.get("seed", 0)}):
        demo_cfg = harness.RunConfig(problem="abstract-pencil", abstract=spec)
        demo_cfg.cluster_tol = cfg.cluster_tol
        report = harness.run(demo_cfg)
        demos[spec["kind"]] = report.clusters[0]["slopes_rellich"]
    _emit({"branch_slopes": demos}, out)


_COMMANDS = {
    "eig": _cmd_eig,
    "dshape": _cmd_dshape,
    "verify": _cmd_verify,
    "study": _cmd_study,
    "abstract": _cmd_abstract,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-shape",
        description="Eigenvalue shape derivatives on parameter-transformed domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eig", "solve the pencil spectrum only"),
        ("dshape", "compute all derivative routes and write a report"),
        ("verify", "run the FD and route-equivalence suite"),
        ("study", "run a mesh refinement study"),
        ("abstract", "run the synthetic pencil demos"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the synthetic pencil catalog")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS thread cap (best effort)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    from numpy.linalg import LinAlgError

    from . import harness

    try:
        cfg = harness.load_config(args.config)
        if args.seed is not None:
            cfg.abstract = dict(cfg.abstract, seed=args.seed)
        _COMMANDS[args.command](cfg, args.out)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS + (LinAlgError,) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ContractViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return 0


if __name__ == "__main__":
    sys.exit(main())
