"""Command-line driver.

Subcommands: eig (spectrum only), dshape (derivative routes), verify
(FD plus route-equivalence suite), study (refinement), abstract
(synthetic pencil demos). Exit codes: 0 success, 2 config error, 3 numerical
failure, 4 invariant violation; a failure prints one line, prefixed by its
kind, to stderr alone. The BLAS thread count is read from
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS.
"""

import argparse
import os
import sys

from numpy.linalg import LinAlgError

from . import harness
from .errors import (
    ConfigError,
    ContourError,
    ContractViolationError,
    DegenerateProblemError,
    InadmissibleParameterError,
    InvalidGeometryError,
    MeshFormatError,
    NearSingularError,
    NonFiniteReportError,
    PencilError,
)
from .harness import write_json as _emit
# unused: kept only as a name that the benchmark's span tracer wraps
from .spectral import solve_pencil

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

_NUMERICAL_ERRORS = (
    PencilError,
    NearSingularError,
    ContourError,
    DegenerateProblemError,
    InadmissibleParameterError,
    NonFiniteReportError,
    LinAlgError,
)
_CONFIG_ERRORS = (ConfigError, MeshFormatError, InvalidGeometryError)


def _cmd_eig(cfg, out):
    pencil, dec, _ = harness.build_problem(cfg).solution
    lo, hi = cfg.index_range
    _emit({"eigenvalues": dec.eigenvalues[lo - 1 : hi].tolist(),
           "kernel_dim": dec.kernel_dim, "dofs": pencil.size}, out)


def _cmd_dshape(cfg, out):
    _emit(harness.run(harness.build_problem(cfg)), out)


def _cmd_verify(cfg, out):
    harness.check_fd_steps(cfg.fd_steps)
    problem = harness.build_problem(cfg)
    report = harness.run(problem)
    table = harness.fd_check(problem, cfg.fd_steps)
    # an abstract pencil has no volume form, so no route discrepancy
    worst_route = max((rec.get("route_discrepancy", 0.0) for rec in report["clusters"]),
                      default=0.0)
    payload = {
        "report": report,
        "fd_table": table,
        "worst_route_discrepancy": worst_route,
    }
    _emit(payload, out)
    if worst_route > 1e-10:
        raise ContractViolationError(
            f"route equivalence violated: {worst_route:.3e} > 1e-10"
        )


def _cmd_study(cfg, out):
    rows = harness.refinement_study(cfg)
    _emit({"levels": rows}, out)


def _cmd_abstract(cfg, out):
    unread = sorted(set(cfg.abstract) - {"seed"})
    if unread:
        raise ConfigError(f"the abstract command reads only 'abstract.seed', "
                          f"it does not read the keys {unread}")
    demos = {}
    for spec in ({"kind": "crossing"}, {"kind": "diagonal"},
                 {"kind": "degenerate", "seed": cfg.abstract.get("seed", 0)}):
        demo_cfg = harness.RunConfig(problem="abstract-pencil", abstract=spec)
        demo_cfg.cluster_tol = cfg.cluster_tol
        report = harness.run(harness.build_problem(demo_cfg))
        demos[spec["kind"]] = report["clusters"][0]["slopes_rellich"]
    _emit({"branch_slopes": demos}, out)


_COMMANDS = {
    "eig": (_cmd_eig, "solve the pencil spectrum only"),
    "dshape": (_cmd_dshape, "compute all derivative routes and write a report"),
    "verify": (_cmd_verify, "run the FD and route-equivalence suite"),
    "study": (_cmd_study, "run a mesh refinement study"),
    "abstract": (_cmd_abstract, "run the synthetic pencil demos"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-shape",
        description="Eigenvalue shape derivatives on parameter-transformed domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output path (default: the config's output, else stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
        # every command writes its payload once: to --out, else to the
        # config's output, else to stdout
        out = args.out or cfg.output
        # an output that cannot be written is refused before any work
        if out and os.path.isdir(out):
            raise ConfigError(f"cannot write output {out}: it is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"cannot write output {out}: its directory does not exist")
        _COMMANDS[args.command][0](cfg, out)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ContractViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return 0


if __name__ == "__main__":
    sys.exit(main())
