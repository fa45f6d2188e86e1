import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ewire.algebra
import ewire.denote
from ewire.algebra import (
    DimensionMismatch, FdAlgebra, ResourceLimit, SCALARS,
    SuperOp, ZeroCopower, alg, alg_copower, alg_direct_sum,
    alg_tensor, choi_matrix, compose_tensored, copower_stack,
    element_from_blocks, factor_index_map, factor_permutation,
    frobenius_distance, gate_denotation, is_cp, is_subunital, is_unital,
    loewner_leq, max_dim, op_compose, op_identity, op_relabel, op_tensor,
    op_zero, psd_within, _psd_margin, tensored_layout, set_max_dim,
    state_to_distribution, superop_to_json, tensor_many, unit_element,
)
from ewire.denote import denote_context, denote_wire
from ewire.syntax import BIT, GateRef, QUBIT, TensorW, UnknownGate
from ewire.typecheck import BUILTIN_GATES, gate_signature

from tests.oracle import (
    copower_sum_iso, is_cp_by_eigvalsh, is_subunital_by_eigvalsh, json_by_pairs,
    op_scale, permutation_superop, psd_by_eigvalsh, random_cpu_map,
    tensor_copower_iso,
)

M2 = alg(2)
C2 = alg(1, 1)
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])


# -- algebra constructions ---------------------------------------------------


def test_tensor_matrix_blocks():
    assert alg_tensor(M2, M2).blocks == (4,)


def test_tensor_distributes_over_sums():
    assert alg_tensor(C2, M2).blocks == (2, 2)


def test_tensor_unit():
    assert alg_tensor(SCALARS, alg(2, 1)) == alg(2, 1)
    assert alg_tensor(alg(2, 1), SCALARS) == alg(2, 1)


def test_copower_of_scalars():
    assert alg_copower(2, SCALARS).blocks == (1, 1)


def test_copower_blocks_repeat():
    assert alg_copower(2, alg(2, 1)).blocks == (2, 1, 2, 1)


def test_copower_composes_multiplicatively():
    a = alg(2, 1)
    assert alg_copower(3, alg_copower(2, a)) == alg_copower(6, a)


def test_zero_copower_rejected():
    with pytest.raises(ZeroCopower):
        alg_copower(0, M2)


def test_zero_algebra_rejected():
    with pytest.raises(ValueError):
        FdAlgebra(())


def test_dimension_cap():
    old = max_dim()
    set_max_dim(8)
    try:
        with pytest.raises(ResourceLimit):
            alg_tensor(alg(4), alg(4))
    finally:
        set_max_dim(old)


@pytest.mark.parametrize("n", [0, -3])
def test_dimension_cap_must_be_positive(n):
    old = max_dim()
    with pytest.raises(ValueError):
        set_max_dim(n)
    assert max_dim() == old


def test_tensor_index_map_associative():
    a, b, c = alg(2), alg(1, 1), alg(2, 1)
    three = factor_index_map([a, b, c])
    left = factor_index_map([alg_tensor(a, b), c])[
        factor_index_map([a, b]).reshape(-1), :
    ].reshape(a.dim, b.dim, c.dim)
    right = factor_index_map([a, alg_tensor(b, c)])[
        :, factor_index_map([b, c]).reshape(-1)
    ].reshape(a.dim, b.dim, c.dim)
    assert np.array_equal(three, left)
    assert np.array_equal(three, right)


def _brute_index_map(algs):
    """The canonical index of each tuple of factor basis elements, found
    by embedding the Kronecker product of their matrix units in the
    block of ``tensor_many(algs)`` that alg_tensor orders them into."""
    t = tensor_many(algs)
    # per factor, the (block, row, column, block size) of each basis index
    coords = [
        [(i, r, s, n) for i, n in enumerate(a.blocks) for r in range(n) for s in range(n)]
        for a in algs
    ]
    block_tuples = list(itertools.product(*[range(len(a.blocks)) for a in algs]))
    out = np.empty(tuple(a.dim for a in algs), dtype=np.int64)
    for idx in itertools.product(*[range(a.dim) for a in algs]):
        picked = [coords[k][alpha] for k, alpha in enumerate(idx)]
        unit = np.ones((1, 1))
        for _, r, s, n in picked:
            e = np.zeros((n, n))
            e[r, s] = 1.0
            unit = np.kron(unit, e)
        blk = block_tuples.index(tuple(i for i, _, _, _ in picked))
        assert unit.shape[0] == t.blocks[blk]
        out[idx] = t.offsets()[blk] + int(np.argmax(unit.reshape(-1)))
    return out


def test_factor_index_map_matches_brute_force():
    rng = np.random.default_rng(7)
    shapes = [alg(2, 1), alg(3), alg(1, 1), alg(1), alg(2), alg(1, 2, 1)]
    cases = [[alg(2, 1), alg(3)], [alg(3), alg(2, 1), alg(1, 1)], []]
    for _ in range(12):
        k = int(rng.integers(1, 4))
        cases.append([shapes[int(j)] for j in rng.integers(0, len(shapes), size=k)])
    for algs in cases:
        got = factor_index_map(algs)
        want = _brute_index_map(algs).reshape(got.shape)
        assert np.array_equal(got, want), [a.blocks for a in algs]
        # a bijection onto the canonical index range
        assert np.array_equal(np.sort(got.reshape(-1)), np.arange(got.size))


# one call of each size memo; each needs more than a cap of 8
_SIZE_MEMO_CALLS = {
    "alg_tensor": lambda: alg_tensor(alg(4), alg(4)),
    "factor_index_map": lambda: factor_index_map([alg(4), alg(4)]),
    "factor_permutation": lambda: factor_permutation([alg(4), alg(4)], [1, 0]),
    "tensored_layout": lambda: tensored_layout(gate_denotation(GateRef("H")), alg(2)),
    "denote_wire": lambda: denote_wire(TensorW(QUBIT, QUBIT)),
    "denote_context": lambda: denote_context((("a", QUBIT), ("b", QUBIT))),
}
_SIZE_MEMOS = [
    (ewire.algebra, "_tensor_blocks"), (ewire.algebra, "_index_map"),
    (ewire.algebra, "_factor_permutation"), (ewire.algebra, "_layout"),
    (ewire.denote, "_denote_wire"), (ewire.denote, "_denote_context"),
]


@pytest.mark.parametrize("name", list(_SIZE_MEMO_CALLS))
def test_size_memo_keeps_dimension_cap(name, monkeypatch):
    call = _SIZE_MEMO_CALLS[name]
    old = max_dim()
    try:
        set_max_dim(1 << 10)
        before = call()
        set_max_dim(8)
        with pytest.raises(ResourceLimit) as warm:
            call()
        with monkeypatch.context() as m:
            for module, memo in _SIZE_MEMOS:
                m.setattr(module, memo, getattr(module, memo).__wrapped__)
            with pytest.raises(ResourceLimit) as cold:
                call()
        assert str(warm.value) == str(cold.value)
        set_max_dim(1 << 10)
        assert call() is before
    finally:
        set_max_dim(old)


def test_monomial_structure_found_once_per_map(monkeypatch):
    import ewire.algebra

    calls = []
    find = ewire.algebra._find_monomial

    def counted(f):
        calls.append(f)
        return find(f)

    monkeypatch.setattr(ewire.algebra, "_find_monomial", counted)
    x, h = gate_denotation(GateRef("X")), gate_denotation(GateRef("H"))
    g = op_identity(alg(4))
    for _ in range(3):
        a = compose_tensored(x, alg(2), g)
        b = compose_tensored(h, alg(2), g)
    assert calls == [x, h]
    assert np.array_equal(a.matrix, op_tensor(x, op_identity(alg(2))).matrix)
    assert np.array_equal(b.matrix, op_tensor(h, op_identity(alg(2))).matrix)


# -- elements ------------------------------------------------------------------


def test_unit_element_positive():
    u = unit_element(alg(2, 3))
    assert u.is_selfadjoint()
    assert u.is_positive()


def test_non_positive_element():
    x = element_from_blocks(M2, [np.diag([1.0, -1.0])])
    assert x.is_selfadjoint()
    assert not x.is_positive()


# -- map operations ----------------------------------------------------------------


def test_identity_composition():
    f = gate_denotation(GateRef("H"))
    assert frobenius_distance(op_compose(f, op_identity(M2)), f) == 0
    assert frobenius_distance(op_compose(op_identity(M2), f), f) == 0


def test_new_after_meas_is_bit_identity():
    # circuit order new;meas: prepare from a bit, then measure it back
    meas = gate_denotation(GateRef("meas"))
    new = gate_denotation(GateRef("new"))
    composite = op_compose(meas, new)
    assert np.allclose(composite.matrix, np.eye(2))


def test_hh_is_identity():
    h = gate_denotation(GateRef("H"))
    assert np.allclose(op_compose(h, h).matrix, np.eye(4))


def test_tensor_of_identities():
    t = op_tensor(op_identity(M2), op_identity(M2))
    assert np.allclose(t.matrix, np.eye(16))


def test_h_tensor_id_against_density_computation():
    # dual test: (H (x) id) applied to an observable, checked entrywise
    # against the conjugation formula on the 2-qubit space
    h = gate_denotation(GateRef("H"))
    hi = op_tensor(h, op_identity(M2))
    u = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
    for r in range(4):
        for c in range(4):
            x = np.zeros((4, 4))
            x[r, c] = 1.0
            expected = u.conj().T @ x @ u
            got = (hi.matrix @ x.reshape(-1)).reshape(4, 4)
            assert np.allclose(got, expected)


def test_interchange_law():
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = random_cpu_map(alg(2), alg(2, 1), rng)
        fp = random_cpu_map(alg(2, 1), alg(3), rng)
        g = random_cpu_map(alg(1, 1), alg(2), rng)
        gp = random_cpu_map(alg(2), alg(1, 1), rng)
        lhs = op_compose(op_tensor(f, g), op_tensor(fp, gp))
        rhs = op_tensor(op_compose(f, fp), op_compose(g, gp))
        assert frobenius_distance(lhs, rhs) < 1e-10


def test_compose_tensored_matches_dense():
    rng = np.random.default_rng(5)
    rest = alg(2, 1)
    f = random_cpu_map(alg(2), alg(1, 1), rng)
    g = random_cpu_map(alg(3), alg_tensor(alg(2), rest), rng)
    fast = compose_tensored(f, rest, g)
    dense = op_compose(g, op_tensor(f, op_identity(rest)))
    assert frobenius_distance(fast, dense) < 1e-12
    rows = rng.permutation(fast.target.dim)
    placed = compose_tensored(f, rest, g, rows=rows)
    assert np.array_equal(placed.matrix, _scatter(fast.matrix, rows))


_MIXED = [alg(1), alg(2), alg(1, 1), alg(2, 1), alg(1, 3), alg(2, 2)]


def _row_monomial_map(source, target, rng, entries):
    """A map whose matrix has at most one nonzero entry per row: a random
    column per row, about a third of the rows zero."""
    m = np.zeros((target.dim, source.dim), dtype=complex)
    for i in range(target.dim):
        if rng.random() < 0.3:
            continue
        if entries == "unit":
            v = 1.0
        elif entries == "phase":
            v = np.exp(2j * np.pi * rng.random())
        else:
            v = complex(rng.normal(), rng.normal())
        m[i, rng.integers(source.dim)] = v
    return SuperOp(source, target, m)


def _scatter(m, rows):
    out = np.empty_like(m)
    out[rows] = m
    return out


def _tensored_pair(f, rest, rng):
    """``compose_tensored(f, rest, g)`` and its dense definition for a
    random continuation g.  Placing the rows through a random ``rows``
    must give exactly the unplaced result scattered by ``rows``."""
    mid = alg_tensor(f.source, rest)
    g_src = _MIXED[rng.integers(len(_MIXED))]
    g = SuperOp(g_src, mid, rng.normal(size=(mid.dim, g_src.dim))
                + 1j * rng.normal(size=(mid.dim, g_src.dim)))
    fast = compose_tensored(f, rest, g)
    dense = op_compose(g, op_tensor(f, op_identity(rest)))
    assert fast.source == dense.source and fast.target == dense.target
    rows = rng.permutation(fast.target.dim)
    placed = compose_tensored(f, rest, g, rows=rows)
    assert placed.target == fast.target
    assert np.array_equal(placed.matrix, _scatter(fast.matrix, rows))
    return fast.matrix, dense.matrix


@pytest.mark.parametrize("entries", ["unit", "phase", "general"])
def test_compose_tensored_row_gather_matches_dense(entries):
    rng = np.random.default_rng({"unit": 21, "phase": 22, "general": 23}[entries])
    for _ in range(60):
        src, tgt, rest = (_MIXED[i] for i in rng.integers(len(_MIXED), size=3))
        f = _row_monomial_map(src, tgt, rng, entries)
        fast, dense = _tensored_pair(f, rest, rng)
        if entries == "unit":
            assert np.array_equal(fast, dense)
        else:
            assert np.abs(fast - dense).max() <= 1e-12


def test_compose_tensored_structural_maps_exact():
    rng = np.random.default_rng(24)
    maps = [
        op_zero(alg(2, 1), alg(1, 3)),
        permutation_superop([alg(2), alg(1, 1), alg(1, 2)], [2, 0, 1]),
        copower_sum_iso(2, alg(2), alg(1, 1)),
        gate_denotation(GateRef("meas")),
        gate_denotation(GateRef("discard")),
        gate_denotation(GateRef("CNOT")),
    ]
    for f in maps:
        for rest in _MIXED:
            fast, dense = _tensored_pair(f, rest, rng)
            assert np.array_equal(fast, dense), (f, rest)


def test_row_monomial_detection():
    from ewire.algebra import _find_monomial

    rows, cols, vals = _find_monomial(SuperOp(C2, alg(1, 1, 1), np.array([[0, 2j], [0, 0], [1, 0]])))
    assert rows.tolist() == [0, 2] and cols.tolist() == [1, 0] and vals.tolist() == [2j, 1]
    # as few nonzeros as rows, but two of them in one row
    assert _find_monomial(SuperOp(C2, C2, np.array([[1, 1], [0, 0]]))) is None
    assert _find_monomial(gate_denotation(GateRef("H"))) is None
    assert _find_monomial(gate_denotation(GateRef("R", index=3))) is not None


# -- row views -----------------------------------------------------------------------


def _gather_reference(f, rest, g):
    """``compose_tensored`` through a monomial ``f``, on dense matrices:
    gather the rows of ``g.matrix``, clear ``f``'s zero rows, and scale
    the rows in place unless every entry of ``f`` is 1."""
    pin = factor_index_map((f.source, rest))
    pout = factor_index_map((f.target, rest))
    nz_rows, nz_cols = np.nonzero(f.matrix)
    live = pout[nz_rows]
    order = np.zeros(pout.size, dtype=np.intp)
    order[live] = pin[nz_cols]
    out = g.matrix.take(order, axis=0)
    dead = np.ones(f.target.dim, dtype=bool)
    dead[nz_rows] = False
    out[pout[dead]] = 0
    vals = f.matrix[nz_rows, nz_cols]
    if not (vals == 1).all():
        out[live] *= vals[:, None, None]
    return out


def _phase_map(as_view):
    """A monomial map on four one-dimensional blocks with entries -1, 1j,
    -1j and a zero row, held densely or as a row view of the identity."""
    a = alg(1, 1, 1, 1)
    index = np.array([1, 2, -1, 0], dtype=np.intp)
    vals = np.array([-1, 1j, 0, -1j])
    if as_view:
        return SuperOp.row_view(a, a, index, vals)
    m = np.zeros((4, 4), dtype=complex)
    m[[0, 1, 3], index[[0, 1, 3]]] = vals[[0, 1, 3]]
    return SuperOp(a, a, m)


@pytest.mark.parametrize("f_view", [False, True], ids=["dense_f", "view_f"])
@pytest.mark.parametrize("g_kind", ["identity", "dense"])
def test_monomial_compose_is_bitwise_the_dense_gather(f_view, g_kind):
    # zero rows scaled by -1 or -1j hold signed zeros; each pass scales
    # the previous pass's zeros again
    f = _phase_map(f_view)
    rest = C2
    mid = alg_tensor(f.source, rest)
    src = alg(2, 1)
    index = np.array([0, 4, -1, 2, -1, 1, 3, 0], dtype=np.intp)
    base = np.random.default_rng(26).normal(size=(6, src.dim)) * (1 + 1j)
    g = {
        "identity": SuperOp.row_view(src, mid, index),
        "dense": SuperOp(src, mid, base[np.maximum(index, 0)] * (index >= 0)[:, None]),
    }[g_kind]
    h, ref = g, g
    for _ in range(3):
        h = compose_tensored(f, rest, h)
        ref = SuperOp(src, mid, _gather_reference(f, rest, ref))
        assert h.matrix.tobytes() == ref.matrix.tobytes()
    assert np.signbit(ref.matrix[ref.matrix == 0].real).any()


def test_monomial_compose_keeps_no_dense_continuation_alive():
    # a readout of one classical value reads two rows of a dense g; the
    # result copies them, so g's matrix goes with g
    import weakref

    f = SuperOp.row_view(alg(1, 1, 1, 1), SCALARS, np.array([2], dtype=np.intp))
    rest = M2
    mid = alg_tensor(f.source, rest)
    rng = np.random.default_rng(29)
    g = SuperOp(alg(8), mid, rng.normal(size=(mid.dim, 64)) + 1j * rng.normal(size=(mid.dim, 64)))
    expected = op_compose(g, op_tensor(f, op_identity(rest))).matrix
    held = weakref.ref(g.matrix)
    h = compose_tensored(f, rest, g)
    del g
    assert held() is None
    assert np.array_equal(h.matrix, expected)


def test_view_matrix_is_built_once_read_only():
    p = permutation_superop([M2, C2], [1, 0])
    m = p.matrix
    assert p.matrix is m and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 2


def test_view_index_of_wrong_length_rejected():
    with pytest.raises(DimensionMismatch):
        SuperOp.row_view(M2, C2, np.zeros(3, dtype=np.intp))
    with pytest.raises(DimensionMismatch):
        SuperOp.row_view(M2, C2, np.zeros((2, 1, 1), dtype=np.intp))


def test_structural_views_bitwise_equal_dense_definitions():
    a, b = alg(2, 1), alg(1, 3)
    assert op_zero(a, b).matrix.tobytes() == np.zeros((b.dim, a.dim), dtype=complex).tobytes()

    algs = [alg(2), alg(1, 1), alg(1, 2)]
    perm = permutation_superop(algs, [2, 0, 1])
    p = factor_permutation(algs, [2, 0, 1])
    m = np.zeros((p.size, p.size), dtype=complex)
    m[p, np.arange(p.size)] = 1.0
    assert perm.matrix.tobytes() == m.tobytes()

    iso = copower_sum_iso(2, a, b)
    summands = np.arange(iso.source.dim).reshape(2, a.dim + b.dim)
    cols = np.concatenate([summands[:, :a.dim].reshape(-1), summands[:, a.dim:].reshape(-1)])
    m = np.zeros((iso.target.dim, iso.source.dim), dtype=complex)
    m[np.arange(iso.target.dim), cols] = 1.0
    assert iso.matrix.tobytes() == m.tobytes()


# -- the continuation's sparse groups ------------------------------------------------


def _entries(rng, n, values):
    """``n`` entries: from {1, -1} for ``"unit"``, else complex normals
    with about a third of them 1, -1 or 1j."""
    if values == "unit":
        return rng.choice([1.0, -1.0], size=n).astype(complex)
    out = rng.normal(size=n) + 1j * rng.normal(size=n)
    pick = rng.random(n)
    out[pick < 0.1], out[(pick >= 0.1) & (pick < 0.2)], out[(pick >= 0.2) & (pick < 0.3)] = 1, -1, 1j
    return out


def _group_rows(f, rest, k):
    """The rows of ``f (x) id_rest``'s source that rest group ``k`` of a
    continuation reads, and the result rows it writes."""
    _, _, pin, pout = tensored_layout(f, rest)
    return pin[:, k], pout[:, k]


def _continuation_matrix(f, rest, src, rng, single, values="complex", per_group=None,
                         per_row=1):
    """A dense continuation ``src -> f.source (x) rest`` whose rest group
    ``k`` holds, where ``single[k]`` is True, at most one nonzero per
    column; where it is False, two in one column, the second the only
    other entry of its row; and where it is a count t from 2 to 4, columns
    of t nonzeros each, as many as fit in the group's columns with each
    row holding at most ``per_row`` (one column, when t exceeds the
    columns).  So every row holds at most ``per_row`` nonzeros, and a view
    that wide can hold the matrix.  A group holds ``per_group`` nonzeros
    (at least two, or t), or as many as it has rows and columns."""
    mid = alg_tensor(f.source, rest)
    m = np.zeros((mid.dim, src.dim), dtype=complex)
    for k, one in enumerate(single):
        rows, _ = _group_rows(f, rest, k)
        if isinstance(one, (bool, np.bool_)):
            live = rng.permutation(rows)[:per_group or min(rows.size, src.dim)]
            cols = rng.permutation(src.dim)[:live.size]
            if not one:
                cols[-1] = cols[0]
        else:
            t = min(one, rows.size)
            n = max(1, min(src.dim, rows.size * per_row, per_group or src.dim) // t)
            # column i takes rows i t .. i t + t - 1, round the group
            live = rng.permutation(rows)[np.arange(n * t) % rows.size]
            cols = np.repeat(rng.permutation(src.dim)[:n], t)
        m[live, cols] = _entries(rng, live.size, values)
    return m


def _as_kind(m, src, mid, kind):
    """``m`` as a dense map, as a view of width 1 with ``vals`` (``m``
    must then have at most one nonzero per row), or as a ``"wide"`` view,
    as wide as the fullest row of ``m`` and at least 2."""
    if kind == "dense":
        return SuperOp(src, mid, m)
    nonzero = m != 0
    if kind == "wide":
        index = np.full((mid.dim, max(2, int(nonzero.sum(axis=1).max()))), -1, dtype=np.intp)
        vals = np.zeros(index.shape, dtype=complex)
        for i, row in enumerate(nonzero):
            cols = np.flatnonzero(row)
            index[i, :cols.size], vals[i, :cols.size] = cols, m[i, cols]
        return SuperOp.row_view(src, mid, index, vals)
    live = np.flatnonzero(nonzero.any(axis=1))
    index = np.full(mid.dim, -1, dtype=np.intp)
    vals = np.zeros(mid.dim, dtype=complex)
    index[live] = np.abs(m[live]).argmax(axis=1)
    vals[live] = m[live, index[live]]
    return SuperOp.row_view(src, mid, index, vals)


# every group of the continuation holds one nonzero a column, all but one
# group do, or none; and groups whose columns hold 2, 4 and 3 nonzeros (4
# is more than 3 columns hold, so at 3 columns that group takes the zgemm)
_GROUP_MIXES = [(True,) * 5, (True, True, False, True, True), (False,) * 5,
                (2, True, 4, False, 3)]


@pytest.mark.parametrize("kind", ["identity", "dense", "wide"])
@pytest.mark.parametrize("ncols", [3, 6])
@pytest.mark.parametrize("single", _GROUP_MIXES)
@pytest.mark.parametrize("per_group", [None, 2], ids=["full", "two"])
@pytest.mark.parametrize("floor", [0, None], ids=["read", "floor"])
def test_sparse_groups_are_decided_one_by_one(monkeypatch, kind, ncols, single, per_group,
                                              floor):
    # r * ncols is not a multiple of 4, so the last group holds the edge
    # columns of the zgemm, which BLAS may round as a fused product; each
    # group's rows must not change whatever the other groups hold, and
    # whatever kind of map holds them (a view of width 1 or 3, or a dense
    # map), both with the sparse read on and below the module's floor,
    # both where most columns hold their nonzero and where few do, and
    # where a column sums several
    import ewire.algebra

    if floor is not None:
        monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", floor)
    rng = np.random.default_rng(31 + ncols)
    f = SuperOp(M2, alg(1, 2), rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)))
    rest, src = alg(1, 2), alg(*([1] * ncols)) if ncols == 3 else alg(1, 1, 2)
    mid = alg_tensor(f.source, rest)
    m = _continuation_matrix(f, rest, src, rng, single, per_group=per_group,
                             per_row=3 if kind == "wide" else 1)
    whole = compose_tensored(f, rest, _as_kind(m, src, mid, kind)).matrix
    for k in range(rest.dim):
        rows, out_rows = _group_rows(f, rest, k)
        zeroed = np.zeros_like(m)
        zeroed[rows] = m[rows]
        dense = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        dense[rows] = m[rows]
        for g in (_as_kind(zeroed, src, mid, kind), SuperOp(src, mid, zeroed),
                  SuperOp(src, mid, dense)):
            alone = compose_tensored(f, rest, g).matrix
            assert alone[out_rows].tobytes() == whole[out_rows].tobytes(), (k, single)


def test_sparse_groups_above_the_default_floor(monkeypatch):
    # the same decision at the module's floor: a contraction of 4 * 2731
    # * 3 entries, with r * ncols odd
    import ewire.algebra

    monkeypatch.setattr(ewire.algebra, "_max_dim", 1 << 14)
    rng = np.random.default_rng(35)
    f = SuperOp(M2, M2, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rest, src = alg(*([1] * 2731)), alg(1, 1, 1)
    assert f.source.dim * rest.dim * src.dim >= ewire.algebra._SPARSE_FLOOR
    mid = alg_tensor(f.source, rest)
    single = [k != 7 for k in range(rest.dim)]
    m = _continuation_matrix(f, rest, src, rng, single)
    last, out_rows = _group_rows(f, rest, rest.dim - 1)
    zeroed = np.zeros_like(m)
    zeroed[last] = m[last]
    for kind in ("identity", "dense"):
        whole = compose_tensored(f, rest, _as_kind(m, src, mid, kind)).matrix
        alone = compose_tensored(f, rest, _as_kind(zeroed, src, mid, kind)).matrix
        assert alone[out_rows].tobytes() == whole[out_rows].tobytes(), kind
        assert np.abs(whole[out_rows] - f.matrix @ m[last]).max() <= 1e-12


def test_a_zero_continuation_above_the_floor_stays_a_width_one_view():
    # H over a zero continuation of 4 * 64 * 256 contracted entries: every
    # group qualifies with no nonzero, so the result is a summed view of
    # no column, held as a width-1 view (no view of width 0); its stack
    # and a second composition over that stack read it as any other view
    import ewire.algebra

    h = gate_denotation(GateRef("H"))
    rest = alg(8)
    g = op_zero(alg(16), alg_tensor(M2, rest))
    assert h.source.dim * rest.dim * g.source.dim >= ewire.algebra._SPARSE_FLOOR
    z = compose_tensored(h, rest, g)
    dense = op_compose(SuperOp(g.source, g.target, g.matrix), op_tensor(h, op_identity(rest)))
    assert z._index is not None and z._index.shape == (z.target.dim,)
    assert z.matrix.tobytes() == dense.matrix.tobytes()
    stacked = copower_stack([z, z])
    rng = np.random.default_rng(57)
    f = SuperOp(C2, M2, rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    rest2 = alg(16)
    assert f.source.dim * rest2.dim * stacked.source.dim >= ewire.algebra._SPARSE_FLOOR
    out = compose_tensored(f, rest2, stacked)
    want = op_compose(SuperOp(stacked.source, stacked.target, stacked.matrix),
                      op_tensor(f, op_identity(rest2)))
    assert out._index is not None and out._index.shape == (out.target.dim,)
    assert out.matrix.tobytes() == want.matrix.tobytes()


def _scrambled_view(m, src, mid, width, rng):
    """``m`` as a view of ``width`` slots a row: each row's nonzeros in
    random slots, in descending column order, with padding between them,
    and a zero in ``vals`` at a column the row does not hold, where one
    fits; every other row's fill is ``-0``."""
    index = np.full((mid.dim, width), -1, dtype=np.intp)
    vals = np.zeros(index.shape, dtype=complex)
    fill = np.zeros(mid.dim, dtype=complex)
    for i, row in enumerate(m != 0):
        cols = np.flatnonzero(row)[::-1]
        slots = rng.permutation(width)
        index[i, slots[:cols.size]], vals[i, slots[:cols.size]] = cols, m[i, cols]
        spare = np.flatnonzero(~row)
        if cols.size < width and spare.size and rng.random() < 0.5:
            index[i, slots[cols.size]] = rng.choice(spare)
        if i % 2:
            fill[i] = -0.0
    if width == 1:
        index, vals = index[:, 0], vals[:, 0]
    return SuperOp.row_view(src, mid, index, vals, fill)


_READ_MIXES = {"one-a-column": (True,) * 5, "sums": (2, True, 4, False, 3), "none": None}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("mix", list(_READ_MIXES))
def test_group_nonzeros_reads_one_order(monkeypatch, width, mix):
    # a view (of width 1, or of width 4 with its slots out of column
    # order, padding between them, zeros in vals and -0 fills) and its
    # dense twin give the same nonzeros, sorted by (k, c, j), with first
    # marking the first of each column, whether a column holds one
    # nonzero or several; group 2 of "sums" holds 4, more than its 3
    # columns, and is not read; "none" holds no nonzero at all
    import ewire.algebra
    from ewire.algebra import _group_nonzeros

    rng = np.random.default_rng(48 + width)
    f = SuperOp(M2, alg(1, 2), np.ones((5, 4)))
    rest, src = alg(1, 2), alg(1, 1, 1)
    mid = alg_tensor(f.source, rest)
    _, _, pin, _ = tensored_layout(f, rest)
    m = np.zeros((mid.dim, src.dim), dtype=complex)
    if _READ_MIXES[mix] is not None:
        m = _continuation_matrix(f, rest, src, rng, _READ_MIXES[mix], per_row=width)
    view = _scrambled_view(m, src, mid, width, rng)
    assert np.array_equal(view.matrix, m)
    twin = SuperOp(src, mid, view.matrix)
    found = _group_nonzeros(view, pin)
    for x, y in zip(found, _group_nonzeros(twin, pin)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    few, j, k, c, v, first = found
    # the same nonzeros as the contraction's, where its group is few
    nonzero = (m != 0)[pin]
    want_few = nonzero.sum(axis=(0, 2)) <= src.dim
    assert np.array_equal(few, want_few)
    assert np.array_equal(v, m[pin[j, k], c]) and (v != 0).all()
    assert j.size == nonzero[:, want_few].sum()
    key = (k * src.dim + c) * pin.shape[0] + j
    assert (np.diff(key) > 0).all()
    assert np.array_equal(first, np.r_[True, (np.diff(k) != 0) | (np.diff(c) != 0)][:k.size])
    assert (mix == "sums") == (not few.all() and not first.all())
    # and through compose_tensored, with the sparse read on
    monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", 0)
    out = compose_tensored(f, rest, view).matrix
    assert out.tobytes() == compose_tensored(f, rest, twin).matrix.tobytes()


@pytest.mark.parametrize("values", ["unit", "complex"])
def test_sparse_read_matches_dense(monkeypatch, values):
    import ewire.algebra

    monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", 0)
    rng = np.random.default_rng({"unit": 41, "complex": 42}[values])
    for _ in range(40):
        src, tgt, rest, g_src = (_MIXED[i] for i in rng.integers(len(_MIXED), size=4))
        if values == "unit":
            f = SuperOp(src, tgt, rng.choice([0, 1, -1], size=(tgt.dim, src.dim)))
        else:
            f = SuperOp(src, tgt, _entries(rng, tgt.dim * src.dim, values).reshape(tgt.dim, -1))
        mid = alg_tensor(src, rest)
        single = rng.random(rest.dim) < 0.7
        m = _continuation_matrix(f, rest, g_src, rng, single, values)
        dense = op_compose(SuperOp(g_src, mid, m), op_tensor(f, op_identity(rest))).matrix
        for kind in ("identity", "dense"):
            fast = compose_tensored(f, rest, _as_kind(m, g_src, mid, kind)).matrix
            if values == "unit":
                assert np.array_equal(fast, dense)
            else:
                assert np.abs(fast - dense).max() <= 1e-12


def test_gathered_rounds_as_a_one_term_dot_product():
    from ewire.algebra import _gathered

    rng = np.random.default_rng(43)
    a = _entries(rng, 24, "complex").reshape(2, 12)
    a[0, :3] = [-0.0 + 0.5j, 0.5 - 0.0j, 0]
    v = _entries(rng, 12, "complex")
    v[3] = 0
    out = _gathered(a, np.arange(12), v)
    for (i, j), x in np.ndenumerate(a):
        # each product rounded on its own, then the sum; a zero sum is +0
        re = x.real * v[j].real - x.imag * v[j].imag + 0.0
        im = x.real * v[j].imag + x.imag * v[j].real + 0.0
        assert out[i, j].real.tobytes() == np.float64(re).tobytes(), (i, j)
        assert out[i, j].imag.tobytes() == np.float64(im).tobytes(), (i, j)


def _rounded_sum(terms):
    """The sum of ``x * y`` over ``terms``, each product rounded as a
    one-term dot product, summed in order, then ``+ 0.0``."""
    re = im = None
    for x, y in terms:
        p_re = x.real * y.real - x.imag * y.imag
        p_im = x.real * y.imag + x.imag * y.real
        re, im = (p_re, p_im) if re is None else (re + p_re, im + p_im)
    return np.float64(re + 0.0).tobytes(), np.float64(im + 0.0).tobytes()


def test_summed_adds_rounded_products_in_ascending_rows(monkeypatch):
    # result columns 0-3 sum 1, 2, 3 and no nonzeros: each product rounded
    # as a one-term dot product, summed in ascending j, then + 0.0; a
    # column with none is a's column 0 times 0
    import ewire.algebra
    from ewire.algebra import _layers, _summed

    rng = np.random.default_rng(44)
    a = _entries(rng, 24, "complex").reshape(4, 6)
    a[0, :3] = [-0.0 + 0.5j, 0.5 - 0.0j, -0.0 - 0.0j]
    at, j = np.array([0, 1, 1, 2, 2, 2]), np.array([3, 0, 4, 1, 2, 5])
    v = _entries(rng, 6, "complex")
    v[1], v[3] = -1, -0.0
    first = np.array([True, True, False, True, False, False])
    out = _summed(a, *_layers(at, j, v, first, 4))
    for i, col in itertools.product(range(4), range(4)):
        terms = [(a[i, jj], vv) for c, jj, vv in zip(at, j, v) if c == col]
        got = out[i, col].real.tobytes(), out[i, col].imag.tobytes()
        assert got == _rounded_sum(terms or [(a[i, 0], 0j)]), (i, col)
    # and through compose_tensored, whose continuation's column 0 holds
    # nonzeros at rows 3, 0 and 2 of a 4 x 4 f's source
    monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", 0)
    f = SuperOp(M2, M2, a[:, :4])
    g = np.zeros((4, 3), dtype=complex)
    g[[3, 0, 2], 0] = v[:3]
    h = compose_tensored(f, SCALARS, SuperOp(alg(1, 1, 1), M2, g)).matrix
    for i in range(4):
        want = _rounded_sum([(a[i, jj], g[jj, 0]) for jj in (0, 2, 3)])
        assert (h[i, 0].real.tobytes(), h[i, 0].imag.tobytes()) == want, i


# -- identity-based views of several entries a row ------------------------------------


# the shapes of f's source, the rest and the continuation's source; the
# last crosses the module's floor of contracted entries
_VIEW_SHAPES = [(alg(1, 1), alg(2), alg(2, 1)), (M2, C2, alg(1, 3)),
                (alg(2, 1), alg(1, 2), alg(2, 2)), (M2, alg(8), alg(8, 8))]
_VIEW_VALS = [1, -1, 0, 1j, complex(_NAN_PAYLOAD, 0.5)]


def _complex_parts(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    # assigned part by part, so that signed zeros and NaN payloads stay
    out.real, out.imag = re, im
    return out


def _random_view(rng, source, target, width, zero=False, groups=None, lone=False, depth=1):
    """An identity-based view of up to ``width`` entries a row, and the
    dense matrix of the same map built entry by entry.  About a fifth of
    the rows hold only padding and a fifth of the other slots are padding;
    each row's fill is a signed zero; ``vals`` are drawn from
    ``_VIEW_VALS`` (a NaN payload among them) and complex normals, or left
    None (all ones), as is ``fill`` (all ``+0``).  With ``zero`` every
    entry is a zero.  With ``groups`` (``pin`` of a tensored layout) the
    rows of each rest group share out distinct columns, so every group of
    the contraction qualifies, and with ``lone`` only the first row of
    each group holds entries; with a ``depth`` of 2 to 4 each column a
    group reads is held by that many of its rows instead, and the group
    holds no more entries than columns."""
    n, ncols = target.dim, source.dim
    index = np.full((n, width), -1, dtype=np.intp)
    for i in range(n):
        cols = rng.permutation(ncols)[:width]
        index[i, :cols.size] = cols
    for rows in [] if groups is None else groups.T:
        cols = rng.permutation(ncols)
        index[rows] = -1
        if depth > 1:
            t = min(depth, rows.size)
            k = max(1, min(ncols, rows.size * width) // t)
            # column c takes rows c t .. c t + t - 1, round the group
            for i, c in zip(rng.permutation(rows)[np.arange(k * t) % rows.size],
                            np.repeat(cols[:k], t)):
                index[i, np.flatnonzero(index[i] < 0)[0]] = c
            continue
        for t, i in enumerate(rows):
            part = cols[t * width:(t + 1) * width]
            index[i, :part.size] = part
        if lone:
            index[rows[1:]] = -1
    index[rng.random(n) < 0.2] = -1
    index[rng.random(index.shape) < 0.2] = -1
    vals = fill = None
    if zero:
        vals = np.zeros(index.shape, dtype=complex)
    elif rng.random() < 0.8:
        vals = _complex_parts(rng.normal(size=index.shape), rng.normal(size=index.shape))
        pick = rng.integers(-len(_VIEW_VALS), len(_VIEW_VALS), size=index.shape)
        vals[pick >= 0] = np.array(_VIEW_VALS)[pick[pick >= 0]]
    if rng.random() < 0.8:
        fill = _complex_parts(rng.choice([0.0, -0.0], size=n), rng.choice([0.0, -0.0], size=n))
    dense = np.empty((n, ncols), dtype=complex)
    dense[:] = 0.0 if fill is None else fill[:, None]
    for (i, t), c in np.ndenumerate(index):
        if c >= 0:
            dense[i, c] = 1.0 if vals is None else vals[i, t]
    if width == 1:
        index, vals = index[:, 0], None if vals is None else vals[:, 0]
    return SuperOp.row_view(source, target, index, vals, fill), dense


def _random_f(rng, source, target, kind):
    """A map ``source -> target`` with entries from ``_VIEW_VALS`` and
    complex normals, about a third of them zero: monomial, or dense; held
    densely, or as a view of width 2 or 3 where its rows fit."""
    m = _complex_parts(rng.normal(size=(target.dim, source.dim)),
                       rng.normal(size=(target.dim, source.dim)))
    pick = rng.integers(-2, len(_VIEW_VALS), size=m.shape)
    m[pick >= 0] = np.array(_VIEW_VALS)[pick[pick >= 0]]
    m[rng.random(m.shape) < 0.3] = 0
    if kind == "monomial":
        keep = np.zeros(m.shape, dtype=bool)
        keep[np.arange(target.dim), rng.integers(source.dim, size=target.dim)] = True
        m[~keep] = 0
    if rng.random() < 0.5:
        return SuperOp(source, target, m)
    width = int(min(source.dim, rng.integers(2, 4)))
    index = np.full((target.dim, width), -1, dtype=np.intp)
    vals = np.zeros(index.shape, dtype=complex)
    for i in range(target.dim):
        cols = np.flatnonzero(m[i])
        if cols.size > width:
            return SuperOp(source, target, m)
        index[i, :cols.size], vals[i, :cols.size] = cols, m[i, cols]
    return SuperOp.row_view(source, target, index, vals)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(_VIEW_SHAPES),
       st.sampled_from(["monomial", "dense"]), st.sampled_from([0, None]),
       st.sampled_from(["random", "groups", "lone"]))
def test_views_read_as_their_dense_maps(seed, width, shapes, f_kind, floor, layout):
    # every reading of a view of width 1 to 4 gives the bytes that the
    # same map held densely gives, signed zeros and NaN payloads included
    import unittest.mock
    import ewire.algebra
    from ewire.algebra import _dense_rows

    rng = np.random.default_rng(seed)
    f_src, rest, src = shapes
    f = _random_f(rng, f_src, _MIXED[rng.integers(len(_MIXED))], f_kind)
    mid = alg_tensor(f.source, rest)
    pin = None if layout == "random" else tensored_layout(f, rest)[2]
    view, m = _random_view(rng, src, mid, width, groups=pin, lone=layout == "lone")
    dense = SuperOp(src, mid, m)
    assert view.matrix.tobytes() == m.tobytes()
    sel = rng.permutation(mid.dim)[:rng.integers(1, mid.dim + 1)]
    assert _dense_rows(view, sel).tobytes() == m[sel].tobytes()
    rows = rng.permutation(mid.dim)
    assert op_relabel(view, mid, rows=rows).matrix.tobytes() == _scatter(m, rows).tobytes()
    f_dense = SuperOp(f.source, f.target, f.matrix)
    with unittest.mock.patch.object(ewire.algebra, "_SPARSE_FLOOR",
                                    ewire.algebra._SPARSE_FLOOR if floor is None else floor):
        got = compose_tensored(f, rest, view).matrix
        for placement in (None, rng.permutation(f.target.dim * rest.dim)):
            want = compose_tensored(f_dense, rest, dense, rows=placement).matrix
            assert compose_tensored(f, rest, view, rows=placement).matrix.tobytes() == want.tobytes()
    # and near the dense definition wherever that is finite (a NaN spreads
    # over the rows and columns of its zero products there)
    ref = op_compose(dense, op_tensor(f_dense, op_identity(rest))).matrix
    assert not (np.abs(got - ref)[np.isfinite(ref)] > 1e-12).any()
    # with a branch of another width and a zero branch, and with a dense
    # branch among views
    other, m2 = _random_view(rng, src, mid, int(rng.integers(1, 5)))
    zero, m3 = _random_view(rng, src, mid, 2, zero=True)
    for fs in ([view, other, zero], [view, SuperOp(src, mid, m2), zero]):
        for placement in (None, rng.permutation(3 * mid.dim)):
            want = copower_stack([SuperOp(src, mid, x) for x in (m, m2, m3)], rows=placement)
            assert copower_stack(fs, rows=placement).matrix.tobytes() == want.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(_VIEW_SHAPES),
       st.integers(2, 4), st.sampled_from([0, None]))
def test_summed_groups_read_as_their_dense_maps(seed, width, shapes, depth, floor):
    # a continuation whose columns hold 2 to 4 nonzeros each, few to a
    # group: the view and its dense map give the same bytes, placed or
    # not, and lie within 1e-12 of the dense definition wherever that is
    # finite, with explicit zero vals, signed-zero fills, padding and NaN
    # payloads among the entries
    import unittest.mock
    import ewire.algebra

    rng = np.random.default_rng(seed)
    f_src, rest, src = shapes
    f = _random_f(rng, f_src, _MIXED[rng.integers(len(_MIXED))], "dense")
    mid = alg_tensor(f.source, rest)
    view, m = _random_view(rng, src, mid, width, groups=tensored_layout(f, rest)[2],
                           depth=depth)
    dense = SuperOp(src, mid, m)
    f_dense = SuperOp(f.source, f.target, f.matrix)
    with unittest.mock.patch.object(ewire.algebra, "_SPARSE_FLOOR",
                                    ewire.algebra._SPARSE_FLOOR if floor is None else floor):
        got = compose_tensored(f, rest, view).matrix
        assert compose_tensored(f_dense, rest, dense).matrix.tobytes() == got.tobytes()
        placement = rng.permutation(f.target.dim * rest.dim)
        want = compose_tensored(f_dense, rest, dense, rows=placement).matrix
        assert compose_tensored(f, rest, view, rows=placement).matrix.tobytes() == want.tobytes()
    ref = op_compose(dense, op_tensor(f_dense, op_identity(rest))).matrix
    assert not (np.abs(got - ref)[np.isfinite(ref)] > 1e-12).any()


@pytest.mark.parametrize("dims", [(3, 5), (64, 64), (300, 70)], ids=["one-block", "256", "tail"])
def test_frobenius_distance_reads_rows_in_blocks(dims):
    # the norm of the difference, within 1e-12 of numpy's over the dense
    # matrices, across blocks of rows; a view's matrix is never built, and
    # a NaN entry gives NaN
    rng = np.random.default_rng(45)
    src, tgt = alg(*([1] * dims[1])), alg(*([1] * dims[0]))
    index = rng.integers(-1, src.dim, size=(tgt.dim, 1)).repeat(2, axis=1)
    index[:, 1] = np.where(index[:, 0] == 0, -1, 0)
    vals = _entries(rng, index.size, "complex").reshape(-1, 2)
    view, m = (SuperOp.row_view(src, tgt, index, vals),
               SuperOp.row_view(src, tgt, index, vals).matrix)
    dense = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    near = dense + 1e-9
    for f, g, want in [(view, SuperOp(src, tgt, dense), np.linalg.norm(m - dense)),
                       (SuperOp(src, tgt, dense), SuperOp(src, tgt, near),
                        np.linalg.norm(dense - near))]:
        assert abs(frobenius_distance(f, g) - want) <= 1e-12 * want
    assert view._matrix is None
    assert frobenius_distance(view, view) == 0.0
    nan = dense.copy()
    nan[-1, -1] = np.nan
    assert math.isnan(frobenius_distance(view, SuperOp(src, tgt, nan)))

# -- gates ---------------------------------------------------------------------------


def test_meas_denotation_matrix():
    m = gate_denotation(GateRef("meas"))
    assert m.source == C2 and m.target == M2
    assert np.allclose(m.matrix @ np.array([2.0, 3.0]), np.diag([2, 3]).reshape(-1))


def test_new_reads_diagonal():
    n = gate_denotation(GateRef("new"))
    x = np.array([[1, 5], [6, 4.0]])
    assert np.allclose(n.matrix @ x.reshape(-1), [1, 4])


def test_unitary_conjugation():
    h = gate_denotation(GateRef("H"))
    hmat = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    x = np.array([[0.3, 1j], [-1j, 0.7]])
    got = (h.matrix @ x.reshape(-1)).reshape(2, 2)
    assert np.allclose(got, hmat.conj().T @ x @ hmat)


def test_all_builtin_gates_cp_unital():
    for g in BUILTIN_GATES:
        op = gate_denotation(g)
        assert is_cp(op, 1e-9), g
        assert is_unital(op, 1e-9), g


def test_gate_table_is_built_once():
    # built at its first use, not at import, and shared after that
    import ewire.algebra as algebra

    table = algebra._unitaries()
    assert list(table) == ["H", "X", "Y", "Z", "CNOT"]
    assert algebra._unitaries() is table
    np.testing.assert_array_equal(table["H"] * math.sqrt(2), [[1, 1], [1, -1]])
    assert algebra._unitary_of(GateRef("X")) is table["X"]


def test_gate_signatures():
    assert gate_signature(GateRef("meas")) == (QUBIT, BIT)
    assert gate_signature(GateRef("CR", index=2)) == (
        TensorW(QUBIT, QUBIT), TensorW(QUBIT, QUBIT)
    )
    bc = GateRef("bit-control", sub=GateRef("X"))
    assert gate_signature(bc) == (TensorW(BIT, QUBIT), TensorW(BIT, QUBIT))
    with pytest.raises(UnknownGate):
        gate_signature(GateRef("frobnicate"))
    with pytest.raises(UnknownGate):
        gate_signature(GateRef("bit-control", sub=GateRef("meas")))


def test_cr_negative_index_rejected():
    # on every call: the gate memo must not turn a failure into a hit
    for _ in range(3):
        with pytest.raises(UnknownGate):
            gate_denotation(GateRef("CR", index=-1))
        with pytest.raises(UnknownGate):
            gate_denotation(GateRef("bit-control", sub=GateRef("CR", index=-1)))


def test_gate_denotations_memoised_read_only():
    a = gate_denotation(GateRef("CR", index=1))
    b = gate_denotation(GateRef("CR", index=1))
    assert a is not b and np.array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, gate_denotation(GateRef("CR", index=2)).matrix)
    assert not np.allclose(gate_denotation(GateRef("R", index=1)).matrix,
                           gate_denotation(GateRef("R", index=2)).matrix)
    for g in BUILTIN_GATES:
        m = gate_denotation(g).matrix
        assert m.dtype == complex and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    assert np.array_equal(gate_denotation(GateRef("meas")).matrix,
                          [[1, 0], [0, 0], [0, 0], [0, 1]])


def test_cr_zero_is_identity():
    op = gate_denotation(GateRef("CR", index=0))
    assert np.allclose(op.matrix, np.eye(16))


# -- verification predicates --------------------------------------------------------


def test_choi_of_identity():
    c = choi_matrix(op_identity(M2))
    eigs = np.sort(np.linalg.eigvalsh(c))
    assert np.allclose(eigs, [0, 0, 0, 2])


def test_choi_of_unitary_rank_one():
    c = choi_matrix(gate_denotation(GateRef("H")))
    eigs = np.linalg.eigvalsh(c)
    assert np.sum(eigs > 1e-9) == 1


def test_choi_of_zero():
    assert np.allclose(choi_matrix(op_zero(M2, M2)), 0)


def test_choi_matches_entrywise_definition():
    # block (i, j) holds, at ((r, t), (s, u)), the (t, u) entry of the
    # image of the matrix unit e_rs of source block i in target block j
    rng = np.random.default_rng(5)
    src, tgt = alg(2, 1, 3), alg(1, 3, 2)
    m = rng.normal(size=(tgt.dim, src.dim)) + 1j * rng.normal(size=(tgt.dim, src.dim))
    f = SuperOp(src, tgt, m)
    pieces = []
    for i, a in enumerate(src.blocks):
        for j, b in enumerate(tgt.blocks):
            c = np.zeros((a * b, a * b), dtype=complex)
            for r, s, t, u in itertools.product(range(a), range(a), range(b), range(b)):
                c[r * b + t, s * b + u] = m[tgt.offsets()[j] + t * b + u,
                                            src.offsets()[i] + r * a + s]
            pieces.append(c)
    want = np.zeros_like(choi_matrix(f))
    k = 0
    for c in pieces:
        want[k : k + len(c), k : k + len(c)] = c
        k += len(c)
    assert np.array_equal(choi_matrix(f), want)


def test_transpose_not_cp():
    t = SuperOp(M2, M2, np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
    ))
    assert not is_cp(t)
    eigs = np.linalg.eigvalsh(choi_matrix(t))
    assert eigs.min() < -0.9


def test_zero_map_subunital_not_unital():
    z = op_zero(M2, M2)
    assert is_cp(z)
    assert is_subunital(z)
    assert not is_unital(z)


def test_loewner_bottom_and_reflexive():
    h = gate_denotation(GateRef("H"))
    assert loewner_leq(op_zero(M2, M2), h)
    assert loewner_leq(h, h)
    assert loewner_leq(op_scale(0.5, h), h)
    assert not loewner_leq(h, op_scale(0.5, h))


def test_loewner_partial_order_properties():
    rng = np.random.default_rng(23)
    for _ in range(6):
        f = random_cpu_map(M2, alg(2, 1), rng)
        g = random_cpu_map(M2, alg(2, 1), rng)
        h = random_cpu_map(M2, alg(2, 1), rng)
        a = op_scale(0.3, f)
        b = op_compose(a, op_identity(alg(2, 1)))  # equal to a
        # reflexivity, antisymmetry up to tolerance, transitivity
        assert loewner_leq(a, a)
        if loewner_leq(a, b) and loewner_leq(b, a):
            assert frobenius_distance(a, b) < 1e-9
        s1 = op_scale(0.2, f)
        s2 = op_add_scaled(s1, 0.3, g)
        s3 = op_add_scaled(s2, 0.4, h)
        assert loewner_leq(s1, s2) and loewner_leq(s2, s3)
        assert loewner_leq(s1, s3)


def op_add_scaled(f, c, g):
    return SuperOp(f.source, f.target, f.matrix + c * g.matrix)


def test_loewner_signature_mismatch():
    with pytest.raises(DimensionMismatch):
        loewner_leq(op_identity(M2), op_identity(C2))


# -- permutation isomorphisms -----------------------------------------------------


def test_permutation_superop_swaps_factors():
    p = permutation_superop([M2, C2], [1, 0])
    assert p.source == alg_tensor(M2, C2)
    assert p.target == alg_tensor(C2, M2)
    assert is_cp(p) and is_unital(p)
    # on a pure tensor x (x) y the swap exchanges the factors
    x = np.array([[1, 2], [3, 4.0]])
    y = np.array([5.0, 7.0])
    src_vec = np.concatenate([(x * y[0]).reshape(-1), (x * y[1]).reshape(-1)])
    tgt = p.matrix @ src_vec
    expected = np.concatenate([(y[0] * x).reshape(-1), (y[1] * x).reshape(-1)])
    # target order: (C2 block j, M2) blocks: block j holds y_j * x
    assert np.allclose(tgt, expected)


def test_factor_permutation_roundtrip():
    algs = [M2, C2, alg(3)]
    p = factor_permutation(algs, [2, 0, 1])
    back_order = [1, 2, 0]  # inverse of [2, 0, 1]
    q = factor_permutation([algs[i] for i in [2, 0, 1]], back_order)
    n = len(p)
    assert np.array_equal(q[p], np.arange(n))


def test_copower_sum_iso():
    a, b = alg(2), alg(1)
    iso = copower_sum_iso(2, a, b)
    assert iso.source == alg_copower(2, alg_direct_sum(a, b))
    assert iso.target == alg_direct_sum(alg_copower(2, a), alg_copower(2, b))
    assert is_cp(iso) and is_unital(iso)
    assert np.allclose(iso.matrix @ iso.matrix.T, np.eye(iso.target.dim))


def test_tensor_copower_iso_and_functoriality():
    a, b = alg(2), alg(1, 1)
    n = 3
    iso = tensor_copower_iso(a, n, b)
    assert iso.source == alg_tensor(a, alg_copower(n, b))
    assert iso.target == alg_copower(n, alg_tensor(a, b))
    # endofunctors preserve copowers: id_A (x) [f_v stack] equals the
    # stacked [id_A (x) f_v] after the recorded permutation
    rng = np.random.default_rng(3)
    x = alg(2)
    fs = [random_cpu_map(x, b, rng) for _ in range(n)]
    lhs = op_compose(op_tensor(op_identity(a), copower_stack(fs)), iso)
    rhs = copower_stack([op_tensor(op_identity(a), f) for f in fs])
    assert frobenius_distance(lhs, rhs) < 1e-12


def test_copower_stack_matches_vstack_then_scatter():
    rng = np.random.default_rng(25)
    for x, y in itertools.product(_MIXED[1:4], _MIXED[2:]):
        fs = [random_cpu_map(x, y, rng), op_zero(x, y), random_cpu_map(x, y, rng),
              op_zero(x, y)]
        stacked = np.vstack([f.matrix for f in fs])
        assert np.array_equal(copower_stack(fs).matrix, stacked)
        rows = rng.permutation(stacked.shape[0])
        placed = copower_stack(fs, rows=rows)
        assert placed.target == alg_copower(len(fs), y)
        assert np.array_equal(placed.matrix, _scatter(stacked, rows))


def test_copower_stack_of_views_bitwise_equal_dense_stack():
    # identity-based branches stack into a view; a branch whose entries
    # are all (signed) zeros writes nothing, as in the dense stack
    f = _phase_map(True)
    rest = C2
    src = alg(2, 1)
    mid = alg_tensor(f.source, rest)
    g = SuperOp.row_view(src, mid, np.array([0, 4, -1, 2, -1, 1, 3, 0], dtype=np.intp))
    fs = [g, compose_tensored(f, rest, g), op_zero(src, mid),
          compose_tensored(f, rest, op_zero(src, mid)),
          compose_tensored(f, rest, compose_tensored(f, rest, g))]
    assert np.signbit(fs[3].matrix.real).any() and not fs[3].matrix.any()
    rows = np.random.default_rng(27).permutation(len(fs) * mid.dim)
    for placement in (None, rows):
        stacked = np.zeros((len(fs) * mid.dim, src.dim), dtype=complex)
        for v, h in enumerate(fs):
            block = np.arange(v * mid.dim, (v + 1) * mid.dim)
            if h.matrix.any():
                stacked[block if placement is None else placement[block]] = h.matrix
        out = copower_stack(fs, rows=placement)
        assert out._index is not None
        assert out.matrix.tobytes() == stacked.tobytes()


# -- distributions ----------------------------------------------------------------


def test_state_to_distribution_uniform():
    n = 4
    st = SuperOp(alg(*([1] * n)), SCALARS, np.full((1, n), 1.0 / n))
    d = state_to_distribution(st)
    assert all(abs(v - 0.25) < 1e-12 for v in d.weights.values())
    assert abs(d.mass() - 1) < 1e-12


def test_state_to_distribution_zero_map():
    st = op_zero(alg(1, 1), SCALARS)
    d = state_to_distribution(st)
    assert d.mass() == 0
    assert abs(d.diverge_mass() - 1.0) < 1e-12


def test_state_rejects_matrix_source():
    with pytest.raises(Exception):
        state_to_distribution(op_zero(M2, SCALARS))


def test_superop_json_shape():
    text = superop_to_json(gate_denotation(GateRef("meas")), report={"is_cp": True})
    j = json.loads(text)
    assert list(j) == ["source_blocks", "target_blocks", "matrix", "report"]
    assert j["source_blocks"] == [1, 1]
    assert j["target_blocks"] == [2]
    assert len(j["matrix"]) == 8
    assert all(len(entry) == 2 for entry in j["matrix"])
    assert j["report"] == {"is_cp": True}


# each part of an entry is drawn from these or from any float, so that
# entries repeat and the edge cases of the 12-digit format meet
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    0.9999999999995, -0.99999999999949, 9.9999999999995e-5, 123456789012.5,
    1e-5, 1e16, -1e16, 1e21, 1.2345678901235e20, 1 / 3,
    math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf,
]
ALGEBRAS = [alg(1), alg(2), alg(1, 1), alg(2, 1), alg(1, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALGEBRAS), st.sampled_from(ALGEBRAS),
    st.data(),
)
def test_superop_json_is_the_list_of_pairs_text(source, target, data):
    part = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
    n = target.dim * source.dim
    re = data.draw(st.lists(part, min_size=n, max_size=n))
    im = data.draw(st.lists(part, min_size=n, max_size=n))
    m = np.empty(n, dtype=complex)
    # assigned part by part, so that signed zeros and NaN payloads stay
    m.real, m.imag = re, im
    f = SuperOp(source, target, m.reshape(target.dim, source.dim))
    fields = {"signature": {"in": "qubit", "out": "bit"}, "report": {"is_cp": False}}
    assert superop_to_json(f, **fields) == json_by_pairs(f, **fields)


# -- positivity by Cholesky ---------------------------------------------------------


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-3])
def test_is_cp_answers_as_eigvalsh_on_random_maps(tol):
    rng = np.random.default_rng(31)
    for src, tgt in [(M2, M2), (alg(2, 1), alg(3)), (alg(4), alg(2, 2)), (C2, alg(1, 3))]:
        for _ in range(8):
            f = random_cpu_map(src, tgt, rng)
            g = random_cpu_map(src, tgt, rng)
            # CP maps, and differences of them that mostly are not CP
            for h in (f, op_scale(0.5, f), op_add_scaled(f, -rng.uniform(0.2, 1.5), g)):
                assert is_cp(h, tol) == is_cp_by_eigvalsh(h, tol)
                assert is_subunital(h, tol) == is_subunital_by_eigvalsh(h, tol)


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-3])
@pytest.mark.parametrize("k", [-8, -1, -0.5, -1e-3, 0, 1e-3, 0.5, 1, 8])
def test_psd_within_answers_as_eigvalsh_at_its_margin(tol, k):
    # the least eigenvalue placed at -tol + k delta, some others at 0:
    # within the margin (|k| < 1) eigvalsh answers, beyond it a Cholesky
    # shortcut does and must answer the same
    rng = np.random.default_rng(int(1000 * k) % 2**32 + int(1e9 * tol))
    for d in [1, 2, 3, 4, 8, 16, 32, 64] * 3:
        q = _unitary(rng, d)
        spec = rng.uniform(0, 1, size=d) * rng.choice([1e-6, 1.0, 1e3])
        spec[: rng.integers(0, d)] = 0.0
        delta = _psd_margin((q * spec) @ q.conj().T, tol)
        spec[0] = -tol + k * delta
        h = (q * spec) @ q.conj().T
        h = (h + h.conj().T) / 2
        assert psd_within(h, tol) == psd_by_eigvalsh(h, tol)


def test_psd_within_zero_and_non_finite():
    assert psd_within(np.zeros((3, 3)), 0.0)
    assert psd_within(np.zeros((3, 3)), 1e-9)
    assert not psd_within(-np.eye(2), 0.5)
    assert psd_within(-np.eye(2), 1.0)
    # a non-finite entry is never within tolerance (eigvalsh can drop a NaN)
    for h in (np.diag([1.0, math.nan]), np.diag([1.0, math.inf]), np.diag([1.0, -math.inf])):
        assert not psd_within(h, 1e-9)
    # an overflowing margin: eigvalsh answers
    h = np.full((2, 2), 1e300)
    assert not 0 < _psd_margin(h, 1e-9) < math.inf
    assert psd_within(h, 1e-9) == psd_by_eigvalsh(h, 1e-9)
