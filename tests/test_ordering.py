"""The nested-dissection numbering of a discretisation's free dofs, its
elimination tree, the factorisations that the sparse eigensolver makes in it
and the inertia count on the tree."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from spectra_shape import fem_common, harness, spectral
from spectra_shape import transforms as tf
from spectra_shape.fem_common import (DissectionTree, Discretisation, ScatterPattern,
                                      assemble_pencil, dof_positions, free_dofs,
                                      nested_dissection)
from spectra_shape.geometry import build_box_mesh, load_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC

EYE = tf.AffineField(np.eye(3))
ONE = tf.AffineField(1.0)
MIXED_PARTITION = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
ONE_TET = ("tetmesh v1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2 3\n"
           "bfacets 4\n1 2 3 N\n0 2 3 N\n0 1 3 N\n0 1 2 N\n")


def discretisation(case, tmp_path=None):
    if case == "one-tet":
        path = tmp_path / "one-tet.tetmesh"
        path.write_text(ONE_TET)
        return Discretisation(P1, load_mesh(str(path)), tf.stretch_family(0), EYE, ONE)
    problem, n, partition = case
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, partition)
    if problem == "maxwell":
        return Discretisation(NEDELEC, mesh, tf.stretch_family(0), EYE, EYE)
    return Discretisation(P1, mesh, tf.stretch_family(0), EYE, ONE)


CASES = [("helmholtz", 6, "T"), ("helmholtz", 6, "N"), ("maxwell", 4, MIXED_PARTITION),
         ("maxwell", 6, "T"), "one-tet"]
IDS = ["helmholtz-T", "helmholtz-N", "maxwell-mixed", "maxwell-T", "one-tet"]


def entity_dofs(disc):
    """(entity, dof) of each distinct pair the tets carry, sorted by entity."""
    entities, _ = disc.space.entities(disc.mesh)
    return np.unique(np.stack([entities.ravel(), disc.gdofs.ravel()], axis=1), axis=0)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_ordering_is_a_permutation_of_the_free_dofs(case, tmp_path):
    """`gdofs` maps the free entities one-to-one onto 0..ndof-1 and the
    constrained ones to -1."""
    disc = discretisation(case, tmp_path)
    ndof = disc.pattern.shape[0]
    free, _ = free_dofs(disc.space, disc.mesh)
    pairs = entity_dofs(disc)
    assert len(np.unique(pairs[:, 0])) == len(pairs)  # one dof per entity
    is_free = np.isin(pairs[:, 0], free)
    np.testing.assert_array_equal(pairs[is_free, 0], free)
    np.testing.assert_array_equal(np.sort(pairs[is_free, 1]), np.arange(ndof))
    assert np.all(pairs[~is_free, 1] == -1)


def assert_same_pattern(got, ref):
    """Two scatter patterns, array for array: values, dtypes and shapes."""
    assert (got.drop, got.shape) == (ref.drop, ref.shape)
    for name in ("slot", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_renumbered_pattern_is_the_pattern_of_the_renumbered_dofs(case, tmp_path):
    """The discretisation's pattern, built on the entity numbering and
    renumbered into the dissection's order, equals the pattern of its
    renumbered `gdofs`, for P1 and Nedelec."""
    disc = discretisation(case, tmp_path)
    assert_same_pattern(disc.pattern, ScatterPattern(disc.gdofs, disc.pattern.shape[0]))


@pytest.mark.parametrize("seed", range(8))
def test_renumber_is_the_pattern_of_the_permuted_dofs(seed):
    """Random dof maps, -1 where constrained, under a random permutation: the
    renumbered pattern equals the pattern of the permuted map."""
    rng = np.random.default_rng(seed)
    ndof, nt, k = int(rng.integers(1, 40)), int(rng.integers(1, 30)), int(rng.choice([4, 6]))
    gdofs = rng.integers(-1, ndof, (nt, k))
    number = rng.permutation(ndof)
    pattern = ScatterPattern(gdofs, ndof)
    pattern.renumber(number)
    assert_same_pattern(pattern, ScatterPattern(np.where(gdofs >= 0, number[gdofs], -1), ndof))


def test_every_pencil_of_a_problem_carries_the_one_ordering():
    """The numbering and its tree are computed once per discretisation: the
    pencils at chi_bar and at chi_bar +- h carry the same tree."""
    cfg = harness.RunConfig.from_dict({"problem": "maxwell",
                                       "mesh": {"type": "box", "n": 4,
                                                "partition": MIXED_PARTITION}})
    problem = harness.build_problem(cfg)
    pencil = problem.solution[0]
    assert pencil.tree is not None
    for chi in (cfg.chi_bar - 1e-3, cfg.chi_bar + 1e-3):
        assert harness.assemble_at(problem, chi).tree is pencil.tree


def subtrees(tree):
    """The first dof of each node's subtree: its descendants and itself
    number the range first[i]:tree.bounds[i + 1]."""
    first = tree.bounds[:-1].copy()
    for i, kids in enumerate(tree.children):
        first[i] = min([first[i]] + [first[k] for k in kids])
    return first


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tree_partitions_the_ordering_in_post_order(case, tmp_path):
    """The count on the tree is only right when these hold: the nodes number
    [0, n) in consecutive ranges, each child comes before its parent and has
    one, the root is last, no entry of the pattern couples two sibling
    subtrees, and the fronts of a node are exactly the later rows its
    subtree couples to, all of them in its ancestors."""
    disc = discretisation(case, tmp_path)
    tree, n = disc.tree, disc.pattern.shape[0]
    assert tree.bounds[0] == 0 and tree.bounds[-1] == n
    assert np.all(np.diff(tree.bounds) >= 0)
    nodes = len(tree.children)
    parent = np.full(nodes, -1)
    for i, kids in enumerate(tree.children):
        assert all(k < i for k in kids) and np.all(parent[list(kids)] == -1)
        parent[list(kids)] = i
    assert np.nonzero(parent < 0)[0].tolist() == [nodes - 1]

    pattern = disc.pattern
    P = sp.csr_array((np.ones(len(pattern.indices)), pattern.indices, pattern.indptr),
                     shape=pattern.shape)
    first = subtrees(tree)
    for i, kids in enumerate(tree.children):
        ranges = [slice(first[k], tree.bounds[k + 1]) for k in kids]
        for x in ranges:
            for y in ranges:
                if x != y:
                    assert P[x][:, y].nnz == 0
        ancestors, a = [], parent[i]
        while a >= 0:
            ancestors += range(tree.bounds[a], tree.bounds[a + 1])
            a = parent[a]
        coupled = np.unique(P[first[i]:tree.bounds[i + 1]].indices)
        expected = coupled[coupled >= tree.bounds[i + 1]]
        np.testing.assert_array_equal(tree.fronts[i], expected)
        assert set(expected.tolist()) <= set(ancestors)


COUNT_CASES = CASES[:1] + [("helmholtz", 6, "N"), ("helmholtz", 6, MIXED_PARTITION),
                           ("maxwell", 4, "T"), ("maxwell", 4, "N")] + CASES[2:3] + ["one-tet"]
COUNT_IDS = ["helmholtz-T", "helmholtz-N", "helmholtz-mixed", "maxwell-T", "maxwell-N",
             "maxwell-mixed", "one-tet"]


def fine_discretisation(case, tmp_path, monkeypatch):
    """The discretisation with a node of the tree for each leaf and each
    separator of the dissection (no set merged into one node)."""
    with monkeypatch.context() as m:
        m.setattr(fem_common, "MERGED_DOFS", 0)
        return discretisation(case, tmp_path)


@pytest.mark.parametrize("case", COUNT_CASES, ids=COUNT_IDS)
def test_inertia_equals_mmd(case, tmp_path, monkeypatch):
    """Just above zero and at a shift between consecutive distinct
    eigenvalues, the count-only pass on the discretisation's tree finds as
    many negative eigenvalues of K - s M as SuperLU's pivots under MMD, and
    as many as there are eigenvalues below s: at the kernel's gap and the
    lowest 24 others; on the tree with the small sets merged into one node
    each, and on the tree with a node per leaf and separator, which numbers
    the dofs the same way."""
    disc = discretisation(case, tmp_path)
    fine = fine_discretisation(case, tmp_path, monkeypatch)
    np.testing.assert_array_equal(fine.gdofs, disc.gdofs)
    p = assemble_pencil(disc, 0.0)
    vals = sla.eigh(p.K.toarray(), p.M.toarray(), eigvals_only=True)
    gaps = np.nonzero(np.diff(vals) > 1e-6 * np.abs(vals).max())[0]
    assert len(gaps) >= 2
    shifts = [spectral.DEFAULT_KERNEL_TOL * p.lambda_scale()]
    shifts += [0.5 * (vals[i] + vals[i + 1]) for i in gaps[:25]]
    for s in shifts:
        below = int(np.sum(vals < s))
        assert spectral._count_below(p.K, p.M, s, p.tree) == below
        assert spectral._count_below(p.K, p.M, s) == below
        A = p.K - s * p.M
        for tree in (p.tree, fine.tree):
            assert spectral._count_on_tree(A, tree) == below


@pytest.mark.parametrize("case", COUNT_CASES, ids=COUNT_IDS)
def test_each_node_is_one_front(case, tmp_path, monkeypatch):
    """The count factorises one front per node that has pivots, in node
    order, over exactly the node's dofs and its fronts' rows; no childless
    node of a box holds more than `MERGED_DOFS` dofs."""
    p = assemble_pencil(discretisation(case, tmp_path), 0.0)
    bounds, sizes = p.tree.bounds, np.diff(p.tree.bounds)
    calls = []

    def dsysv(F11, F12, **kwargs):
        calls.append((F11.shape, F12.shape))
        return lapack.dsysv(F11, F12, **kwargs)

    monkeypatch.setattr(spectral, "lapack", SimpleNamespace(dsysv=dsysv))
    count = spectral._count_on_tree(p.K - 0.5 * p.lambda_scale() * p.M, p.tree)
    assert count == spectral._count_below(p.K, p.M, 0.5 * p.lambda_scale())
    assert calls == [((b - a, b - a), (b - a, len(rows)))
                     for a, b, rows in zip(bounds, bounds[1:], p.tree.fronts) if b > a]
    if case != "one-tet":
        childless = [not kids for kids in p.tree.children]
        assert np.all(sizes[childless] <= fem_common.MERGED_DOFS)


@pytest.mark.parametrize("case, nodes, fine_nodes",
                         [(("helmholtz", 14, MIXED_PARTITION), 31, 123),
                          (("maxwell", 8, "T"), 63, 127)],
                         ids=["helmholtz-mixed-14", "maxwell-T-8"])
def test_small_sets_are_merged(case, nodes, fine_nodes, monkeypatch):
    """The mixed P1 n = 14 tree has 31 nodes and the all-T Nedelec n = 8 tree
    63, each one front of the count, against 123 and 127 leaves and
    separators of their dissections."""
    assert len(discretisation(case).tree.children) == nodes
    assert len(fine_discretisation(case, None, monkeypatch).tree.children) == fine_nodes


def chain(values, diagonal):
    """A symmetric pentadiagonal matrix on dofs 0..n-1 at x = i, numbered by
    its nested dissection, and the dissection's tree."""
    n = len(diagonal)
    A = sp.diags([values[1:], values, diagonal, values, values[1:]], [-2, -1, 0, 1, 2],
                 shape=(n, n), format="csr")
    positions = np.stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)], axis=1)
    order, bounds, children = nested_dissection(positions, A)
    A = sp.csr_array(A[order][:, order])
    return A, DissectionTree(bounds, children, fem_common._fronts(bounds, children, A))


def test_two_by_two_pivots_are_counted(monkeypatch):
    """A zero diagonal makes Bunch-Kaufman take 2x2 pivot blocks, each with
    one negative and one positive eigenvalue; on a 300-dof chain with zero
    diagonals (a front per leaf and separator, 2x2 blocks in the leaves and
    separators) the count equals the eigenvalues' below zero, and
    [[0, 1], [1, 0]] in a larger front takes a 2x2 block."""
    monkeypatch.setattr(fem_common, "MERGED_DOFS", 0)
    blocks, negatives = [], spectral._negatives

    def spy(ldu, ipiv):
        blocks.append(np.sum(ipiv < 0) // 2)
        return negatives(ldu, ipiv)

    monkeypatch.setattr(spectral, "_negatives", spy)
    rng = np.random.default_rng(3)
    for diagonal in (np.zeros(300), rng.choice([0.0, 0.0, 1.0, -1.0], 300)):
        A, tree = chain(rng.uniform(0.5, 1.5, 299), diagonal)
        blocks.clear()
        expected = int(np.sum(np.linalg.eigvalsh(A.toarray()) < 0))
        assert spectral._count_on_tree(A, tree) == expected
        assert len(blocks) > 3 and sum(blocks) > 3
    # [[0, 1], [1, 0]] and a negative pivot in one front, with a separator
    A = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -3.0, 1.0],
                  [1.0, 0.0, 1.0, 2.0]])
    tree = DissectionTree(np.array([0, 3, 4]), ((), (0,)), (np.array([3]), np.array([], int)))
    assert np.any(lapack.dsytrf(A[:3, :3], lower=1)[1] < 0)
    assert spectral._count_on_tree(sp.csr_array(A), tree) == int(np.sum(np.linalg.eigvalsh(A) < 0))


def test_singular_pivot_block_falls_back_to_superlu(monkeypatch):
    """A leaf whose pivot block is exactly zero stops the pass (Bunch-Kaufman
    reports it singular); the count then comes from SuperLU's pivots in its
    MMD ordering, and is right. In a one-node tree, one front over all the
    dofs, the leaf's block is part of a regular one."""
    A = sp.csr_array(np.array([[0.0, 0.0, 1.0, 1.0, 1.0],
                               [0.0, 1.0, 1.0, 0.0, 0.0],
                               [1.0, 1.0, 2.0, 1.0, 0.0],
                               [1.0, 0.0, 1.0, 3.0, 1.0],
                               [1.0, 0.0, 0.0, 1.0, 4.0]]))
    tree = DissectionTree(np.array([0, 1, 2, 5]), ((), (), (0, 1)),
                          (np.array([2, 3, 4]), np.array([2]), np.array([], int)))
    merged = DissectionTree(np.array([0, 5]), ((),), (np.array([], int),))
    assert spectral._count_on_tree(A, merged) == 1
    assert spectral._count_on_tree(A, tree) is None
    naturals, ldl = [], spectral._ldl

    def spy(A, natural=False):
        naturals.append(natural)
        return ldl(A, natural)

    monkeypatch.setattr(spectral, "_ldl", spy)
    count = spectral._count_below(A, sp.eye_array(5, format="csr"), 0.0, tree)
    assert count == int(np.sum(np.linalg.eigvalsh(A.toarray()) < 0)) == 1
    assert naturals == [False]


def test_solve_matches_spsolve():
    p = assemble_pencil(discretisation(("maxwell", 6, MIXED_PARTITION)), 0.0)
    A = p.K + 1e-3 * p.lambda_scale() * p.M
    b = np.random.default_rng(0).standard_normal(p.size)
    x = spectral._ldl(A, natural=True).solve(b)
    expected = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_ordering_fills_less_than_mmd():
    """Maxwell all-T n = 8 (3032 dofs): the shift factor's L + U holds at most
    0.8 of the entries of MMD's on the matrix numbered as the edges are (0.75
    measured: 518,760 against 692,646; MMD started from the dissection's
    numbering fills 634,264)."""
    disc = discretisation(("maxwell", 8, "T"))
    p = assemble_pencil(disc, 0.0)
    A = p.K + spectral.SHIFT_FRACTION * p.lambda_scale() * p.M
    pairs = entity_dofs(disc)
    dof = pairs[pairs[:, 1] >= 0, 1]  # of each free edge, in edge order
    mmd = spectral._ldl(A[dof][:, dof])
    ordered = spectral._ldl(A, natural=True)
    assert ordered.L.nnz + ordered.U.nnz <= 0.8 * (mmd.L.nnz + mmd.U.nnz)


def test_top_separator_is_the_middle_plane():
    """All-T Nedelec n = 12: the dofs numbered last are exactly those whose
    positions lie on the plane x = 1/2, although their mean barycentres miss
    it by round-off (split exactly, some fell below the median and the
    fill rose from 3,213,398 to 4,895,500)."""
    disc = discretisation(("maxwell", 12, "T"))
    ndof = disc.pattern.shape[0]
    positions = dof_positions(disc.gdofs, disc.mesh, ndof)
    plane = np.nonzero(np.abs(positions[:, 0] - 0.5) < 1e-9)[0]
    assert np.any(positions[plane, 0] != 0.5)
    np.testing.assert_array_equal(plane, np.arange(ndof - len(plane), ndof))
