"""Independent Schroedinger-picture oracle.

Deliberately built on different machinery from the package under test:
states are plain density matrices on the full tensor product of all
wire leaves (classical leaves included as dephased subsystems), gates
act by Kraus operators padded with identities via subsystem
permutations, and channels are extracted by pushing basis matrices
through.  Circuits are walked directly off the AST with a tiny host
evaluator for literals; only the constructor subset used by the test
corpus is supported (unbox of literal boxes, literal-ish init).

It also keeps the direct forms of what the package computes faster: the
``denote`` JSON as ``json.dumps`` of a list of [re, im] pairs, and the
positivity tests by the least eigenvalue from ``eigvalsh``; and the maps
that only the tests build (scaling, factor permutations and the copower
isomorphisms), so that no ``ewirec`` process compiles them.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from ewire.algebra import (
    SCALARS, AlgElement, FdAlgebra, SuperOp, _choi_blocks, _fmt, alg_copower,
    alg_direct_sum, apply_to_unit, factor_permutation, tensor_many, unit_element,
)
from ewire.syntax import (
    Box, ClassicalLit, ClassicalW, Compose, Gate, Init, IntLit, Lift,
    Output, PairElim, PairP, Pattern, Prim, QuantumW, TensorW, UnitElim,
    UnitP, UnitW, Unbox, Var, WireP, WireType, free_wires, pattern_wires,
)

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)

QUBIT = QuantumW("qubit", 2)
BIT = ClassicalW("bit", 2)


def leaves(w: WireType):
    match w:
        case UnitW():
            return []
        case ClassicalW(_, k):
            return [("c", k)]
        case QuantumW(_, d):
            return [("q", d)]
        case TensorW(l, r):
            return leaves(l) + leaves(r)
    raise ValueError(f"no leaves for {w!r}")


def enum_values(w: WireType):
    match w:
        case UnitW():
            return [()]
        case ClassicalW(_, k):
            return list(range(k))
        case TensorW(l, r):
            return [(a, b) for a in enum_values(l) for b in enum_values(r)]
    raise ValueError("not classical")


def context_leaves(omega):
    out = []
    for _, ty in omega:
        out.extend(leaves(ty))
    return out


def _perm_matrix(dims, new_order):
    d = int(np.prod(dims)) if dims else 1
    m = np.zeros((d, d))
    for idx in range(d):
        digits = []
        rem = idx
        for dim in reversed(dims):
            digits.append(rem % dim)
            rem //= dim
        digits.reverse()
        new_digits = [digits[j] for j in new_order]
        new_idx = 0
        for j, pos in enumerate(new_order):
            new_idx = new_idx * dims[pos] + new_digits[j]
        m[new_idx, idx] = 1.0
    return m


_GATE_TABLE = {
    # name -> (output type, kraus list or callable)
    "H": (QUBIT, [_H]),
    "X": (QUBIT, [_X]),
    "Y": (QUBIT, [_Y]),
    "Z": (QUBIT, [_Z]),
    "CNOT": (TensorW(QUBIT, QUBIT), [_CNOT]),
    "meas": (BIT, [_P0, _P1]),
    "new": (QUBIT, [_P0, _P1]),
}


def _gate_out_and_kraus(g):
    if g.name in _GATE_TABLE:
        return _GATE_TABLE[g.name]
    if g.name == "R":
        return QUBIT, [np.diag([1.0, np.exp(2j * np.pi / 2**g.index)])]
    if g.name == "CR":
        u = np.eye(4, dtype=complex)
        u[3, 3] = np.exp(2j * np.pi / 2**g.index)
        return TensorW(QUBIT, QUBIT), [u]
    if g.name == "control":
        sub_ty, (u,) = _gate_out_and_kraus(g.sub)
        d = u.shape[0]
        cu = np.eye(2 * d, dtype=complex)
        cu[d:, d:] = u
        return TensorW(QUBIT, sub_ty), [cu]
    if g.name == "bit-control":
        sub_ty, (u,) = _gate_out_and_kraus(g.sub)
        d = u.shape[0]
        k0 = np.zeros((2 * d, 2 * d), dtype=complex)
        k0[:d, :d] = np.eye(d)
        k1 = np.zeros((2 * d, 2 * d), dtype=complex)
        k1[d:, d:] = u
        return TensorW(BIT, sub_ty), [k0, k1]
    raise ValueError(f"oracle does not know gate {g.name}")


class _State:
    def __init__(self, wires, rho):
        self.wires = list(wires)  # (name, [(kind, dim), ...])
        self.rho = np.asarray(rho, dtype=complex)

    @property
    def dims(self):
        return [d for _, ls in self.wires for _, d in ls]

    def front(self, names):
        """Permute the listed wires' subsystems to the front, in order."""
        index = {}
        k = 0
        for name, ls in self.wires:
            index[name] = list(range(k, k + len(ls)))
            k += len(ls)
        order = [i for n in names for i in index[n]]
        order += [i for i in range(len(self.dims)) if i not in set(order)]
        if order != list(range(len(order))):
            p = _perm_matrix(self.dims, order)
            self.rho = p @ self.rho @ p.conj().T
            by_name = dict(self.wires)
            new = [(n, by_name[n]) for n in names]
            new += [w for w in self.wires if w[0] not in set(names)]
            self.wires = new


class Oracle:
    def __init__(self, bases=None):
        self.bases = bases or {"bit": 2, "int": 64}

    def channel(self, omega, circuit, env=None, env_types=None):
        """The Schroedinger channel as a matrix on row-major vectorised
        density matrices over the full input product space."""
        lvs = context_leaves(omega)
        din = int(np.prod([d for _, d in lvs])) if lvs else 1
        cols = []
        for r in range(din):
            for c in range(din):
                rho = np.zeros((din, din), dtype=complex)
                rho[r, c] = 1.0
                out = self.apply(omega, circuit, rho, env, env_types)
                cols.append(out.reshape(-1))
        return np.stack(cols, axis=1)

    def apply(self, omega, circuit, rho, env=None, env_types=None):
        st = _State([(n, leaves(ty)) for n, ty in omega], rho)
        types = dict(omega)
        out_ty, names = self._walk(
            st, types, circuit, dict(env or {}), dict(env_types or {})
        )
        st.front(names)
        return st.rho

    # -- host fragment ---------------------------------------------------

    def _host(self, t, env):
        match t:
            case IntLit(n):
                return n
            case ClassicalLit(_, _, n):
                return n
            case Var(x):
                return env[x]
            case Prim(op, l, r):
                a, b = self._host(l, env), self._host(r, env)
                return {"+": a + b, "-": a - b, "=": int(a == b)}[op]
        raise ValueError(f"oracle host fragment cannot evaluate {t}")

    def _host_type(self, t, env_types):
        match t:
            case IntLit(_):
                return ClassicalW("int", self.bases.get("int", 64))
            case ClassicalLit(b, card, _):
                return ClassicalW(b, card)
            case Var(x):
                return env_types[x]
            case Prim("=", _, _):
                return BIT
            case Prim(_, _, _):
                return ClassicalW("int", self.bases.get("int", 64))
        raise ValueError(f"oracle cannot type {t}")

    # -- walking -----------------------------------------------------------

    def _walk(self, st, types, c, env, env_types):
        """Mutate the state through one circuit; returns (output type,
        output wire names in pattern order)."""
        match c:
            case Output(p):
                return self._pat_type(types, p), pattern_wires(p)
            case Init(t):
                ty = self._host_type(t, env_types)
                val = self._host(t, env)
                name = self._fresh(st, "i")
                mat = self._point_state(ty, val)
                st.rho = np.kron(mat, st.rho)
                st.wires = [(name, leaves(ty))] + st.wires
                types[name] = ty
                return ty, [name]
            case Unbox(t, p):
                if not isinstance(t, Box):
                    raise ValueError("oracle unboxes literal boxes only")
                names = pattern_wires(p)
                self._regroup(st, types, names, self._bind(t.pat, t.w_in))
                return self._walk(st, types, t.body, env, env_types)
            case Compose(p, first, rest):
                fw = free_wires(first)
                names = [n for n, _ in st.wires if n in fw]
                out_ty, out_names = self._walk(st, types, first, env, env_types)
                self._regroup(st, types, out_names, self._bind(p, out_ty))
                return self._walk(st, types, rest, env, env_types)
            case UnitElim(p, rest):
                for n in pattern_wires(p):
                    types.pop(n, None)
                    st.wires = [w for w in st.wires if w[0] != n]
                return self._walk(st, types, rest, env, env_types)
            case PairElim(PairP(WireP(w1), WireP(w2)), p, rest):
                ty = self._pat_type(types, p)
                self._regroup(
                    st, types, pattern_wires(p), [(w1, ty.left), (w2, ty.right)]
                )
                return self._walk(st, types, rest, env, env_types)
            case Gate(out_p, g, in_p, rest):
                self._gate(st, types, g, in_p, out_p)
                return self._walk(st, types, rest, env, env_types)
            case Lift(x, p, rest):
                names = pattern_wires(p)
                st.front(names)
                v_ty = self._pat_type(types, p)
                sub_dims = [d for n in names for _, d in dict(st.wires)[n]]
                k = int(np.prod(sub_dims)) if sub_dims else 1
                rest_dim = st.rho.shape[0] // k
                spect_wires = [w for w in st.wires if w[0] not in set(names)]
                spect_types = {n: t for n, t in types.items() if n not in set(names)}
                acc = None
                final = None
                for i, val in enumerate(enum_values(v_ty)):
                    block = st.rho[
                        i * rest_dim : (i + 1) * rest_dim,
                        i * rest_dim : (i + 1) * rest_dim,
                    ].copy()
                    st2 = _State(list(spect_wires), block)
                    t2 = dict(spect_types)
                    env2 = dict(env)
                    env2[x] = val
                    et2 = dict(env_types)
                    et2[x] = v_ty
                    out_ty, out_names = self._walk(st2, t2, rest, env2, et2)
                    st2.front(out_names)
                    acc = st2.rho if acc is None else acc + st2.rho
                    final = (st2.wires, t2, out_ty, out_names)
                st.rho = acc
                st.wires, new_types, out_ty, out_names = final
                types.clear()
                types.update(new_types)
                return out_ty, out_names
        raise ValueError(f"oracle cannot walk {c}")

    def _point_state(self, ty, val):
        mat = np.eye(1)

        def go(t, v):
            nonlocal mat
            match t:
                case UnitW():
                    pass
                case ClassicalW(_, k):
                    e = np.zeros((k, k))
                    e[v, v] = 1.0
                    mat = np.kron(mat, e)
                case TensorW(l, r):
                    go(l, v[0])
                    go(r, v[1])

        go(ty, val)
        return mat

    def _gate(self, st, types, g, in_p, out_p):
        if g.name in ("init0", "init1"):
            b = 0 if g.name == "init0" else 1
            e = np.zeros((2, 2))
            e[b, b] = 1.0
            name = self._fresh(st, "g")
            st.rho = np.kron(e, st.rho)
            st.wires = [(name, [("q", 2)])] + st.wires
            types[name] = QUBIT
            self._regroup(st, types, [name], self._bind(out_p, QUBIT))
            return
        names = pattern_wires(in_p)
        st.front(names)
        if g.name == "discard":
            d = 2
            rest = st.rho.shape[0] // d
            out = np.zeros((rest, rest), dtype=complex)
            for i in range(d):
                out += st.rho[i * rest : (i + 1) * rest, i * rest : (i + 1) * rest]
            st.rho = out
            st.wires = [w for w in st.wires if w[0] not in set(names)]
            for n in names:
                types.pop(n, None)
            return
        out_ty, kraus = _gate_out_and_kraus(g)
        d = kraus[0].shape[0]
        rest = st.rho.shape[0] // d
        out = np.zeros_like(st.rho)
        for k in kraus:
            full = np.kron(k, np.eye(rest))
            out += full @ st.rho @ full.conj().T
        st.rho = out
        self._regroup(st, types, names, self._bind(out_p, out_ty))

    def _regroup(self, st, types, old_names, bind):
        """Bring old_names to the front and relabel those subsystems
        under the bound wire names."""
        st.front(old_names)
        by_name = dict(st.wires)
        front_leaves = [d for n in old_names for d in by_name[n]]
        rest_wires = [w for w in st.wires if w[0] not in set(old_names)]
        for n in old_names:
            types.pop(n, None)
        new_wires = []
        k = 0
        for name, ty in bind:
            ls = leaves(ty)
            new_wires.append((name, front_leaves[k : k + len(ls)]))
            k += len(ls)
            types[name] = ty
        st.wires = new_wires + rest_wires

    def _fresh(self, st, base):
        used = {n for n, _ in st.wires}
        i = 0
        while f"{base}{i}" in used:
            i += 1
        return f"{base}{i}"

    def _pat_type(self, types, p):
        match p:
            case WireP(x):
                return types[x]
            case UnitP():
                return UnitW()
            case PairP(l, r):
                return TensorW(self._pat_type(types, l), self._pat_type(types, r))
        raise ValueError("bad pattern")

    def _bind(self, p: Pattern, ty: WireType):
        out = []

        def go(q, t):
            match q:
                case WireP(x):
                    out.append((x, t))
                case UnitP():
                    pass
                case PairP(l, r):
                    go(l, t.left)
                    go(r, t.right)

        go(p, ty)
        return out


def channel_matrix(omega, circuit, bases=None, env=None, env_types=None):
    return Oracle(bases).channel(omega, circuit, env, env_types)


def embed_element(leaf_list, alg, vec):
    """Embed a block-diagonal algebra element into the full matrix space
    of the listed leaves (classical leaves spanning diagonal blocks)."""
    dims = [d for _, d in leaf_list]
    full = int(np.prod(dims)) if dims else 1
    out = np.zeros((full, full), dtype=complex)
    offs = alg.offsets()
    classical = [(i, d) for i, (k, d) in enumerate(leaf_list) if k == "c"]
    quantum = [(i, d) for i, (k, d) in enumerate(leaf_list) if k == "q"]

    def mixed_radix(digits, radii):
        out = 0
        for dg, rd in zip(digits, radii):
            out = out * rd + dg
        return out

    import itertools

    blocks = list(itertools.product(*[range(d) for _, d in classical])) or [()]
    qdims = [d for _, d in quantum]
    qtot = int(np.prod(qdims)) if qdims else 1
    for b_idx, cvals in enumerate(blocks):
        n = alg.blocks[b_idx]
        assert n == qtot
        off = offs[b_idx]
        for r in range(n):
            for c in range(n):
                val = vec[off + r * n + c]
                if val == 0:
                    continue
                rdig = []
                rem = r
                for d in reversed(qdims):
                    rdig.append(rem % d)
                    rem //= d
                rdig.reverse()
                cdig = []
                rem = c
                for d in reversed(qdims):
                    cdig.append(rem % d)
                    rem //= d
                cdig.reverse()
                row_digits = [0] * len(leaf_list)
                col_digits = [0] * len(leaf_list)
                for (pos, _), v in zip(classical, cvals):
                    row_digits[pos] = v
                    col_digits[pos] = v
                for (pos, _), v in zip(quantum, rdig):
                    row_digits[pos] = v
                for (pos, _), v in zip(quantum, cdig):
                    col_digits[pos] = v
                out[
                    mixed_radix(row_digits, dims), mixed_radix(col_digits, dims)
                ] += val
    return out


def embedding_matrix(leaf_list, alg):
    """Matrix of the embedding: columns are the row-major vectorised full
    matrices of the algebra basis elements."""
    import itertools

    dims = [d for _, d in leaf_list]
    full = int(np.prod(dims)) if dims else 1
    out = np.zeros((full * full, alg.dim), dtype=complex)
    offs = alg.offsets()
    classical = [(i, d) for i, (k, d) in enumerate(leaf_list) if k == "c"]
    quantum = [(i, d) for i, (k, d) in enumerate(leaf_list) if k == "q"]
    qdims = [d for _, d in quantum]
    qtot = int(np.prod(qdims)) if qdims else 1

    def mixed_radix(digits):
        v = 0
        for dg, rd in zip(digits, dims):
            v = v * rd + dg
        return v

    def qdigits(x):
        ds = []
        for d in reversed(qdims):
            ds.append(x % d)
            x //= d
        ds.reverse()
        return ds

    blocks = list(itertools.product(*[range(d) for _, d in classical])) or [()]
    for b_idx, cvals in enumerate(blocks):
        n = alg.blocks[b_idx]
        assert n == qtot
        off = offs[b_idx]
        for r in range(n):
            rdig = qdigits(r)
            for c in range(n):
                cdig = qdigits(c)
                row_digits = [0] * len(leaf_list)
                col_digits = [0] * len(leaf_list)
                for (pos, _), v in zip(classical, cvals):
                    row_digits[pos] = v
                    col_digits[pos] = v
                for (pos, _), v in zip(quantum, rdig):
                    row_digits[pos] = v
                for (pos, _), v in zip(quantum, cdig):
                    col_digits[pos] = v
                out[mixed_radix(row_digits) * full + mixed_radix(col_digits),
                    off + r * n + c] = 1.0
    return out


def transpose_vec(d):
    """Permutation sending vec_rm(A) to vec_rm(A^T) for d x d matrices."""
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def random_cpu_map(src, tgt, rng, env_dim=2):
    """A random completely positive unital map between block algebras,
    built blockwise from normalised Stinespring-style factors."""
    m = np.zeros((tgt.dim, src.dim), dtype=complex)
    soff = src.offsets()
    toff = tgt.offsets()
    factors = {}
    for j, bj in enumerate(tgt.blocks):
        mats = [
            rng.normal(size=(ai * env_dim, bj)) + 1j * rng.normal(size=(ai * env_dim, bj))
            for ai in src.blocks
        ]
        s = sum(w.conj().T @ w for w in mats)
        evals, evecs = np.linalg.eigh(s)
        s_inv_half = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        factors[j] = [w @ s_inv_half for w in mats]
    for i, ai in enumerate(src.blocks):
        for r in range(ai):
            for s_ in range(ai):
                col = np.zeros(tgt.dim, dtype=complex)
                x = np.zeros((ai, ai))
                x[r, s_] = 1.0
                for j, bj in enumerate(tgt.blocks):
                    w = factors[j][i]
                    out = w.conj().T @ np.kron(x, np.eye(env_dim)) @ w
                    col[toff[j] : toff[j] + bj * bj] = out.reshape(-1)
                m[:, soff[i] + r * ai + s_] = col
    return SuperOp(src, tgt, m)


# ---------------------------------------------------------------------------
# Direct forms of the serialiser and the positivity tests
# ---------------------------------------------------------------------------


def json_by_pairs(f, **fields) -> str:
    """The ``denote`` JSON of the map ``f`` followed by ``fields``, as one
    ``json.dumps`` of the matrix as a list of [re, im] pairs."""
    payload = {
        "source_blocks": list(f.source.blocks),
        "target_blocks": list(f.target.blocks),
        "matrix": [[_fmt(z.real), _fmt(z.imag)] for z in f.matrix.reshape(-1).tolist()],
    }
    payload.update(fields)
    return json.dumps(payload)


def psd_by_eigvalsh(h, tol) -> bool:
    """No eigenvalue of the Hermitian ``h`` below ``-tol``, by ``eigvalsh``."""
    return bool(np.linalg.eigvalsh(h).min() >= -tol)


def is_cp_by_eigvalsh(f, tol) -> bool:
    """``is_cp`` with each Choi block decided by its least eigenvalue."""
    for c in _choi_blocks(f):
        h = (c + c.conj().T) / 2
        if np.linalg.norm(c - h) > max(tol, 1e-9) * max(1.0, np.linalg.norm(c)):
            return False
        if not psd_by_eigvalsh(h, tol):
            return False
    return True


def is_subunital_by_eigvalsh(f, tol) -> bool:
    """``is_subunital`` with each block of ``1 - f(1)`` decided by its least
    eigenvalue."""
    gap = AlgElement(f.target, unit_element(f.target).vec - apply_to_unit(f).vec)
    if not gap.is_selfadjoint(math.sqrt(tol)):
        return False
    return all(psd_by_eigvalsh((b + b.conj().T) / 2, tol) for b in gap.blocks_list())


# ---------------------------------------------------------------------------
# Maps that only the tests build
# ---------------------------------------------------------------------------


def op_scale(c: float, f: SuperOp) -> SuperOp:
    return SuperOp(f.source, f.target, c * f.matrix)


def permutation_superop(algs: Sequence[FdAlgebra], new_order: Sequence[int]) -> SuperOp:
    """The *-isomorphism reordering tensor factors, as a SuperOp from
    ``tensor_many(algs)`` to the reordered tensor: the 0/1 matrix of
    ``factor_permutation``, kept as a row view of the identity."""
    p = factor_permutation(algs, new_order)
    src = tensor_many(algs)
    tgt = tensor_many([algs[i] for i in new_order])
    index = np.empty(src.dim, dtype=np.intp)
    index[p] = np.arange(src.dim)
    return SuperOp.row_view(src, tgt, index)


def copower_sum_iso(n: int, a: FdAlgebra, b: FdAlgebra) -> SuperOp:
    """Permutation witnessing n.(A (+) B) = (n.A) (+) (n.B): the A part
    of every summand comes first, then the B part of every summand."""
    src = alg_copower(n, alg_direct_sum(a, b))
    tgt = FdAlgebra(a.blocks * n + b.blocks * n)
    summands = np.arange(src.dim).reshape(n, a.dim + b.dim)
    cols = np.concatenate(
        [summands[:, : a.dim].reshape(-1), summands[:, a.dim :].reshape(-1)]
    )
    return SuperOp.row_view(src, tgt, cols.astype(np.intp))


def tensor_copower_iso(a: FdAlgebra, n: int, b: FdAlgebra) -> SuperOp:
    """Permutation witnessing A (x) (n.B) = n.(A (x) B).  The copower
    ``n.B`` is literally ``(n.C) (x) B``, so this is the exchange of the
    first two factors of ``A (x) (n.C) (x) B``."""
    return permutation_superop([a, alg_copower(n, SCALARS), b], [1, 0, 2])
