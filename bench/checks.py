"""Output checks for one CLI operation.

Only quantities that do not depend on the eigenvector basis are compared:
the sorted slopes of each route, eigenvalues, and traces (sums of slopes).
The entries of the Rellich, volume and surface matrices are never compared,
because for a degenerate cluster they depend on the basis LAPACK returns.

Tolerances, calibrated on the seed engine for bump amplitudes 0.05-0.1:
  route_discrepancy <= 1e-10 (volume form vs Rellich matrix)
  simple cluster:   Rellich slope vs tracked FD slope, 1e-6 relative
                    (about 1e-9 observed)
  multiple cluster: sum of Rellich slopes vs sum of FD slopes, 1e-3 relative
                    (at most 4e-4 observed; a workload whose FD step is
                    large may set its own, see workloads.FD_SUM_TOL)
  Maxwell:          measured kernel dimension == number of free vertices
  study:            surface_volume_gap strictly decreasing over refinement
"""

ROUTE_TOL = 1e-10
SIMPLE_REL_TOL = 1e-6
SUM_REL_TOL = 1e-3


def _rel(a: float, b: float, scale_floor: float) -> float:
    return abs(a - b) / max(abs(b), scale_floor)


def check_clusters(clusters, sum_tol: float = SUM_REL_TOL) -> list:
    """Problems found in the cluster records of a derivative report."""
    problems = []
    if not clusters:
        problems.append("report has no clusters")
    for rec in clusters:
        where = f"cluster {rec.get('indices')}"
        route = rec.get("route_discrepancy")
        if route is None or not route <= ROUTE_TOL:
            problems.append(f"{where}: route_discrepancy {route} > {ROUTE_TOL}")
        rellich, fd = rec.get("slopes_rellich"), rec.get("slopes_fd")
        if not rellich or not fd or len(rellich) != len(fd):
            problems.append(f"{where}: missing Rellich or FD slopes")
            continue
        # relative to the slope, floored at a millionth of the eigenvalue
        # so that a slope that is zero by symmetry does not divide by zero
        floor = 1e-6 * abs(rec["lambda_bar"])
        if len(rellich) == 1:
            err = _rel(rellich[0], fd[0], floor)
            if not err <= SIMPLE_REL_TOL:
                problems.append(f"{where}: Rellich vs FD slope {err:.2e} > {SIMPLE_REL_TOL}")
        else:
            err = _rel(sum(rellich), sum(fd), floor * len(fd))
            if not err <= sum_tol:
                problems.append(f"{where}: sum of Rellich vs FD slopes {err:.2e} > {sum_tol}")
    return problems


def branch_mismatches(clusters) -> int:
    """Clusters whose sorted tracked FD branches miss the criterion-4 rule
    max(1e-4 * lambda_bar, 2 * width). Recorded, not counted as a failure:
    across a split cluster this is a limit of FD tracking, not a wrong slope."""
    count = 0
    for rec in clusters:
        rellich, fd = rec.get("slopes_rellich"), rec.get("slopes_fd")
        if not rellich or not fd or len(rellich) != len(fd):
            continue
        dev = max(abs(a - b) for a, b in zip(sorted(rellich), sorted(fd)))
        if dev > max(1e-4 * rec["lambda_bar"], 2.0 * rec["width"]):
            count += 1
    return count


def check_output(command: str, doc: dict, expected_kernel_dim=None,
                 sum_tol: float = SUM_REL_TOL) -> list:
    """Problems found in the output document of one CLI command."""
    if command == "study":
        rows = doc.get("levels") or []
        if len(rows) < 2:
            return ["study has fewer than two levels"]
        problems = [f"level n={r['n']}: route_discrepancy {r['route_discrepancy']} > {ROUTE_TOL}"
                    for r in rows if not r["route_discrepancy"] <= ROUTE_TOL]
        gaps = [r["surface_volume_gap"] for r in rows]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"surface_volume_gap not decreasing: {gaps}")
        return problems
    report = doc["report"] if command == "verify" else doc
    problems = check_clusters(report.get("clusters", []), sum_tol)
    if command == "verify":
        worst = doc.get("worst_route_discrepancy")
        if worst is None or not worst <= ROUTE_TOL:
            problems.append(f"worst_route_discrepancy {worst} > {ROUTE_TOL}")
        if not doc.get("fd_table"):
            problems.append("verify output has no FD table")
    if expected_kernel_dim is not None:
        kd = report["environment"].get("kernel_dim")
        if kd != expected_kernel_dim:
            problems.append(f"kernel_dim {kd} != {expected_kernel_dim} gradient columns")
    return problems


def reported_clusters(command: str, doc: dict) -> list:
    if command == "study":
        return []
    return (doc["report"] if command == "verify" else doc).get("clusters", [])


def eigpairs_needed(command: str, doc: dict, solves: int) -> int:
    """Eigenpairs the output depends on, summed over solves: each solve must
    deliver at least the lowest k eigenpairs, k the highest index reported."""
    if command == "study":
        return sum(len(r["eigenvalues"]) for r in doc["levels"])
    top = max((i for rec in reported_clusters(command, doc) for i in rec["indices"]), default=0)
    return solves * top
