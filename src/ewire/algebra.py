"""Finite-dimensional operator algebras and completely positive maps.

A finite-dimensional C*-algebra is a direct sum of square matrix blocks
and is represented here by its list of block sizes.  Elements are
block-diagonal matrices, stored as one complex vector: the row-major
vectorisations of the blocks, concatenated in order.

Circuits denote maps in the Heisenberg (observable-transformer)
direction: a circuit from W to W' denotes a completely positive
(sub)unital linear map from the algebra of W' to the algebra of W.  A
``SuperOp`` is that linear map as a matrix acting on vectorised
elements, of shape ``target.dim x source.dim``: held densely, or as a
row view of the identity (each row a few entries over a signed zero, or
zero) whose dense ``matrix`` is built on first read.

Conventions used throughout:

* ``A (x) B`` has one block per pair ``(i, j)`` of blocks of A and B,
  ordered lexicographically, of size ``n_i * m_j``; on elements the
  embedding is the blockwise Kronecker product.
* direct sums and copowers concatenate block lists; the copower
  ``n . A`` is n repetitions of A's blocks.
* structural isomorphisms (symmetry, copower distribution) are row
  views of the identity: an index array per target row, no matrix.
  Their ``matrix`` is the explicit permutation matrix, so equalities of
  denotations still hold as literal matrix equalities.
* where a tuple of tensor-factor basis elements lands in the canonical
  layout is decided in ``factor_index_map`` alone; tensors of maps,
  tensored composition and factor permutations all derive from it.
  Given ``rows``, ``compose_tensored`` and ``copower_stack`` write
  canonical row ``i`` to ``rows[i]``, under the canonical target label.
* one helper, ``_moved_rows``, moves and scales a map's rows: for
  ``op_relabel``, and where ``compose_tensored`` composes through a map
  with at most one nonzero entry per row (the structural maps above,
  classical readouts, diagonal gates, zero maps) with no matrix
  product, by moving the continuation's rows and scaling them: a view's
  through a new index, a dense one's into a new matrix.  That is exact
  when the entries are 0 or 1; otherwise each result entry is rounded
  once and stays within 1e-12 of the dense product.  The dense
  ``SuperOp.matrix`` remains the reference semantics, bit for bit: a
  view's ``matrix`` equals what composing the dense matrices row by row
  gives, signed zeros included.  On the other
  side it reads the continuation one rest group at a time: a group that
  holds few nonzeros, no more than it has columns, is ``f``'s columns
  scaled by its nonzeros and summed.  The nonzeros are found one way for
  each kind of map (a view's live slots, a dense map's ``matrix != 0``)
  and read in one order, by rest group, then column, then row.  A
  contracted column holding one nonzero ``v`` gives ``f``'s column times
  ``v``, each entry rounded as BLAS rounds a one-term dot product (each
  real product, then the sum, with a zero sum ``+0``), so its bits are
  what the zgemm gives outside the edge columns a BLAS kernel may round
  as a fused product, and within 1 ulp there.  A column holding several
  sums those separately rounded products in ascending row order, then
  adds ``+0.0``: within 1e-12 of the zgemm, not bit for bit.  A group is
  decided from its own entries alone, whatever kind of map holds them
  and whatever the other groups hold; the others keep one zgemm over the
  whole contraction, as does every contraction below ``_SPARSE_FLOOR``
  entries.  When every group qualifies and the result's rows are
  sparse, it stays a view of those entries, which the next steps move,
  scale and read again without a matrix; ``_materialise`` is the one
  place where a view's entries are written into a matrix.

This module decides no typing: a gate's wire signature is
``typecheck.gate_signature``, and ``gate_denotation`` gives only its map.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .syntax import GateRef, UnknownGate, pretty_print


class DimensionMismatch(ValueError):
    pass


class ResourceLimit(RuntimeError):
    """The requested algebra exceeds the configured element-space cap."""


class BackendUnavailable(ResourceLimit):
    """numpy, which this module loads on first use, failed to load."""


class ZeroCopower(ValueError):
    """Copowers by zero are rejected: the zero algebra is not allowed."""


class NonClassicalSource(ValueError):
    pass


class _Loading:
    """numpy's own loader, run by ``LazyLoader`` at the first read of a
    numpy attribute.  It puts that loader back in numpy's ``__spec__`` and
    ``__loader__``, and a load that fails raises ``BackendUnavailable``,
    whose message is one line.  A failed load is not retried."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        module.__spec__.loader = module.__loader__ = self.loader
        try:
            self.loader.exec_module(module)
        except (ImportError, MemoryError, OSError) as e:
            # numpy wraps the error of a shared library that cannot be
            # mapped in a page of advice: name the first error instead
            root = e
            while root.__cause__ or root.__context__:
                root = root.__cause__ or root.__context__
            text = " ".join(str(root).split())
            cause = f"{type(root).__name__}: {text}" if text else type(root).__name__
            raise BackendUnavailable(f"numpy failed to load: {cause}") from e


def _lazy(spec):
    """The module of ``spec``, whose body runs at the first read of one of
    its attributes (see ``_Loading``)."""
    spec.loader = importlib.util.LazyLoader(_Loading(spec.loader))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numpy():
    """numpy as ``sys.modules`` holds it, or else a module whose body runs
    at the first read of one of its attributes, put there in its place."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    module = sys.modules["numpy"] = _lazy(spec)
    return module


# numpy is loaded here and nowhere else in the package, and importing
# ewire reads no numpy attribute, so a command that builds no map never
# runs numpy's body.  Python 3.11's LazyLoader takes no lock: the first
# read must come from one thread while no other touches numpy.  In
# ``ewirec`` it does: the package starts no thread, and ``ewirec``
# evaluates on its main thread.
np = _numpy()


_DEFAULT_MAX_DIM = 4096
_max_dim = _DEFAULT_MAX_DIM

DEFAULT_TOL = 1e-9  # of the positivity, unitality and order tests, and of equivalence


def set_max_dim(n: int) -> None:
    """Set the element-space dimension cap (see also EWIREC_MAX_DIM);
    raises ValueError, leaving the cap as it was, unless ``n >= 1``."""
    global _max_dim
    n = int(n)
    if n < 1:
        raise ValueError(f"the dimension cap must be a positive integer, got {n}")
    _max_dim = n


def max_dim() -> int:
    return _max_dim


def _check_dim(dim: int, what: str):
    if dim > _max_dim:
        raise ResourceLimit(
            f"{what} needs element-space dimension {dim}, over the cap "
            f"{_max_dim} (raise it with EWIREC_MAX_DIM or set_max_dim)"
        )


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdAlgebra:
    """A direct sum of full matrix algebras, as its block sizes."""

    blocks: tuple
    # dimension of the element space, sum of squared block sizes
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValueError("the zero algebra is not allowed")
        if any(n < 1 for n in self.blocks):
            raise ValueError(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "dim", sum(n * n for n in self.blocks))

    def offsets(self) -> list[int]:
        out, acc = [], 0
        for n in self.blocks:
            out.append(acc)
            acc += n * n
        return out

    def __str__(self):
        return "(+)".join(f"M{n}" if n > 1 else "C" for n in self.blocks)


def alg(*blocks: int) -> FdAlgebra:
    return FdAlgebra(tuple(blocks))


SCALARS = FdAlgebra((1,))


def alg_tensor(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    """Tensor product: blocks ``n_i * m_j`` ordered lexicographically.
    The product is memoised on the block tuples; the dimension cap is
    checked on every call, before any block is listed."""
    _check_dim(a.dim * b.dim, "tensor product")
    return _tensor_blocks(a.blocks, b.blocks)


@functools.cache
def _tensor_blocks(a: tuple, b: tuple) -> FdAlgebra:
    return FdAlgebra(tuple(n * m for n in a for m in b))


def alg_direct_sum(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    out = FdAlgebra(a.blocks + b.blocks)
    _check_dim(out.dim, "direct sum")
    return out


def alg_copower(n: int, a: FdAlgebra) -> FdAlgebra:
    """The n-fold direct sum of ``a`` with itself; the dimension cap is
    checked before any block is listed."""
    if n < 1:
        raise ZeroCopower(f"copower index must be >= 1, got {n}")
    _check_dim(n * a.dim, "copower")
    return FdAlgebra(a.blocks * n)


def tensor_many(algs: Sequence[FdAlgebra]) -> FdAlgebra:
    out = SCALARS
    for a in algs:
        out = alg_tensor(out, a)
    return out


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgElement:
    """A block-diagonal element of a finite-dimensional algebra."""

    algebra: FdAlgebra
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.shape[0] != self.algebra.dim:
            raise DimensionMismatch(
                f"vector of length {v.shape[0]} for algebra of dim {self.algebra.dim}"
            )
        object.__setattr__(self, "vec", v)

    def block(self, i: int) -> np.ndarray:
        n = self.algebra.blocks[i]
        off = self.algebra.offsets()[i]
        return self.vec[off : off + n * n].reshape(n, n)

    def blocks_list(self) -> list[np.ndarray]:
        return [self.block(i) for i in range(len(self.algebra.blocks))]

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        return all(
            np.allclose(b, b.conj().T, atol=tol) for b in self.blocks_list()
        )

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        if not self.is_selfadjoint(math.sqrt(tol)):
            return False
        return all(psd_within((b + b.conj().T) / 2, tol) for b in self.blocks_list())


def element_from_blocks(algebra: FdAlgebra, mats: Iterable[np.ndarray]) -> AlgElement:
    vec = np.concatenate([np.asarray(m, dtype=complex).reshape(-1) for m in mats])
    return AlgElement(algebra, vec)


def unit_element(algebra: FdAlgebra) -> AlgElement:
    return element_from_blocks(algebra, [np.eye(n) for n in algebra.blocks])


# ---------------------------------------------------------------------------
# Superoperators
# ---------------------------------------------------------------------------


class SuperOp:
    """A linear map between algebras, as a matrix on vectorised elements.

    For a circuit the ``source`` is the algebra of the *output* wire
    type and the ``target`` the algebra of the *input* wire type — the
    Heisenberg direction.

    ``SuperOp(source, target, matrix)`` holds a dense matrix.  A map
    whose rows hold few nonzeros each (structural maps, and what moving,
    scaling or clearing their rows gives) is a row view of the identity
    instead (see ``row_view``), and its dense ``matrix`` is built on first
    read, once, as a read-only array.  There is no other kind.  Which
    rows hold at most one nonzero is likewise found once per object (see
    ``_monomial_rows``).
    """

    __slots__ = ("source", "target", "_matrix", "_index", "_vals", "_fill", "_mono")

    def __init__(self, source: FdAlgebra, target: FdAlgebra, matrix: np.ndarray):
        m = np.ascontiguousarray(matrix, dtype=complex)
        if m.shape != (target.dim, source.dim):
            raise DimensionMismatch(
                f"matrix {m.shape} does not map dim {source.dim} "
                f"to dim {target.dim}"
            )
        m.flags.writeable = False
        self.source, self.target, self._matrix = source, target, m
        self._index = self._vals = self._fill = None
        self._mono = _UNSET

    @classmethod
    def row_view(cls, source: FdAlgebra, target: FdAlgebra, index: np.ndarray,
                 vals: np.ndarray | None = None, fill: np.ndarray | None = None) -> "SuperOp":
        """The map whose rows hold up to ``m`` entries each, read from the
        identity on ``source``: ``index`` and ``vals`` are ``(n, m)``, and
        row ``i`` holds ``vals[i, t]`` at column ``index[i, t]`` for each
        ``t`` where that is not the padding -1 (the columns of a row are
        distinct), and the signed zero ``fill[i]`` everywhere else (every
        entry, for a row of padding).  A view of width 1 is held with 1-d
        ``index`` and ``vals``, as ``index[i]`` and ``vals[i]``.  ``vals``
        None stands for all ones and ``fill`` None for all ``+0``.  The
        arrays are shared, not copied.
        """
        if index.shape[:1] != (target.dim,) or index.ndim > 2:
            raise DimensionMismatch(
                f"row index of shape {index.shape} for target dim {target.dim}"
            )
        op = cls.__new__(cls)
        op.source, op.target, op._matrix = source, target, None
        op._index, op._vals, op._fill = index, vals, fill
        op._mono = _UNSET
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = _materialise(self.source.dim, self._index, self._vals, self._fill)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    def __call__(self, x: AlgElement) -> AlgElement:
        if x.algebra != self.source:
            raise DimensionMismatch("element not in the source algebra")
        return AlgElement(self.target, self.matrix @ x.vec)

    def __repr__(self):
        return f"SuperOp({self.source} -> {self.target})"


_UNSET = object()  # a memo slot not filled yet


def _materialise(ncols: int, index, vals, fill) -> np.ndarray:
    """The dense rows of a row view (see ``SuperOp.row_view``): the one
    place where a view's entries are scattered into a matrix."""
    live = index >= 0
    if fill is None:
        out = np.zeros((index.shape[0], ncols), dtype=complex)
    else:
        out = np.empty((index.shape[0], ncols), dtype=complex)
        out[:] = fill[:, None]
    at = live.nonzero()  # (rows,) of a width-1 view, else (rows, slots)
    out[at[0], index[at]] = 1.0 if vals is None else vals[at]
    return out


def _dense_rows(f: SuperOp, sel: np.ndarray | None) -> np.ndarray:
    """Rows ``sel`` of ``f.matrix`` (all of it, read-only, for None),
    without building the rest of it or keeping what it builds."""
    if f._matrix is not None:
        return f._matrix if sel is None else f._matrix.take(sel, axis=0)
    if sel is None:
        return _materialise(f.source.dim, f._index, f._vals, f._fill)
    vals = None if f._vals is None else f._vals[sel]
    fill = None if f._fill is None else f._fill[sel]
    return _materialise(f.source.dim, f._index[sel], vals, fill)


def op_identity(a: FdAlgebra) -> SuperOp:
    return SuperOp.row_view(a, a, np.arange(a.dim, dtype=np.intp))


def op_zero(source: FdAlgebra, target: FdAlgebra) -> SuperOp:
    return SuperOp.row_view(source, target, np.full(target.dim, -1, dtype=np.intp))


def op_relabel(f: SuperOp, target: FdAlgebra, *, rows: np.ndarray) -> SuperOp:
    """``f`` with ``target`` (of the same dimension) as its target label,
    and its row ``i`` moved to row ``rows[i]`` (``_moved_rows``)."""
    if target.dim != f.target.dim:
        raise DimensionMismatch(f"cannot relabel {f!r} as {target}")
    return _moved_rows(f, target, rows)


def _moved_rows(g: SuperOp, target: FdAlgebra, live: np.ndarray,
                src: np.ndarray | None = None, scale: np.ndarray | None = None) -> SuperOp:
    """The map to ``target`` whose row ``live[t]`` is row ``src[t]`` of
    ``g`` (row ``t`` when ``src`` is None), times ``scale[t]`` when set;
    every other row is zero: ``-1`` and ``+0`` in a view, ``+0`` in a
    dense map.  A view's index moves, and only its ``vals`` and ``fill``
    are scaled; a dense map's rows are copied into their new places.
    ``op_relabel`` and ``compose_tensored``'s monomial step both build
    their results here."""
    if g._index is None:
        return SuperOp(g.source, target, _scaled_rows(g._matrix, None, src, live, scale,
                                                      (target.dim, g.source.dim)))
    index = np.full((target.dim,) + g._index.shape[1:], -1, dtype=np.intp)
    index[live] = g._index if src is None else g._index[src]
    return SuperOp.row_view(
        g.source, target, index,
        _scaled_rows(g._vals, 1.0, src, live, scale, index.shape),
        _scaled_rows(g._fill, 0.0, src, live, scale, (target.dim,)),
    )


def op_compose(f: SuperOp, g: SuperOp) -> SuperOp:
    """The composite ``g . f`` (apply f, then g) on algebra elements."""
    if f.target != g.source:
        raise DimensionMismatch(f"cannot compose {f!r} with {g!r}")
    return SuperOp(f.source, g.target, g.matrix @ f.matrix)


def frobenius_distance(f: SuperOp, g: SuperOp) -> float:
    """The Frobenius norm of ``f - g``, read ``_NORM_BLOCK`` entries of
    rows at a time, so that neither dense matrix is built or kept."""
    if f.source != g.source or f.target != g.target:
        raise DimensionMismatch("maps with different signatures")
    step = max(1, _NORM_BLOCK // f.source.dim)
    total = 0.0
    for i in range(0, f.target.dim, step):
        rows = np.arange(i, min(i + step, f.target.dim))
        d = (_dense_rows(f, rows) - _dense_rows(g, rows)).view(np.float64)
        total += float(np.vdot(d, d))
    return math.sqrt(total)


# 64 KiB of complex entries: glibc's malloc serves a block's temporaries
# from its heap, under its default 128 KiB mmap threshold, where the whole
# difference of two 256 x 256 maps would be mapped, and its pages faulted
# in, afresh on every call
_NORM_BLOCK = 1 << 12


# -- index machinery ---------------------------------------------------------


def factor_index_map(algs: Sequence[FdAlgebra]) -> np.ndarray:
    """Array of shape (dim_1, ..., dim_n) giving the canonical index in
    ``tensor_many(algs)`` of each tuple of factor basis indices.

    This is the one place where the block layout of a tensor product is
    decided.  The map is memoised on the block tuples; the dimension cap
    is checked on every call, memo hit or not.
    """
    _check_tensor_dims(algs)
    return _index_map(tuple(a.blocks for a in algs))


def _check_tensor_dims(algs: Sequence[FdAlgebra]) -> None:
    """The dimension checks of ``tensor_many(algs)``, in the same order,
    without building the product."""
    dim = 1
    for a in algs:
        dim *= a.dim
        _check_dim(dim, "tensor product")


@functools.cache
def _index_map(factor_blocks: tuple) -> np.ndarray:
    # a basis element of the product picks one (block, row, column) per
    # factor; blocks are ordered lexicographically, and rows and columns
    # in mixed radix with the later factors least significant
    blk = row = col = np.zeros((), dtype=np.int64)
    size = np.ones((), dtype=np.int64)
    tensor_blocks = np.ones(1, dtype=np.int64)
    for blocks in factor_blocks:
        n = np.asarray(blocks, dtype=np.int64)
        b = np.repeat(np.arange(len(n)), n * n)  # block of each basis element
        nb = n[b]
        within = np.arange(len(b)) - (np.cumsum(n * n) - n * n)[b]
        blk = blk[..., None] * len(n) + b
        row = row[..., None] * nb + within // nb
        col = col[..., None] * nb + within % nb
        size = size[..., None] * nb
        tensor_blocks = np.multiply.outer(tensor_blocks, n).reshape(-1)
    squares = tensor_blocks * tensor_blocks
    out = (np.cumsum(squares) - squares)[blk] + row * size + col
    out = out.reshape(out.shape or (1,))
    out.flags.writeable = False
    return out


def op_tensor(f: SuperOp, g: SuperOp) -> SuperOp:
    """Tensor product of maps, consistent with ``alg_tensor`` ordering;
    rows and columns are placed by ``factor_index_map``."""
    src = alg_tensor(f.source, g.source)
    tgt = alg_tensor(f.target, g.target)
    pin = factor_index_map((f.source, g.source)).reshape(-1)
    pout = factor_index_map((f.target, g.target)).reshape(-1)
    k = np.kron(f.matrix, g.matrix)
    out = np.empty((tgt.dim, src.dim), dtype=complex)
    out[np.ix_(pout, pin)] = k
    return SuperOp(src, tgt, out)


def tensored_layout(f: SuperOp, rest: FdAlgebra):
    """``(source, target, pin, pout)`` of ``f (x) id_rest``: its algebras,
    and the canonical row ``pin[j, k]`` of source pair ``(j, k)`` and
    ``pout[i, k]`` of target pair ``(i, k)``.  These are the dimension
    checks of ``compose_tensored``, in its order.  The layout is memoised
    per dimension cap, like ``factor_index_map``: a failed check is not
    cached, so it raises again with the same message."""
    return _layout(f.source, f.target, rest, _max_dim)


@functools.cache
def _layout(source: FdAlgebra, target: FdAlgebra, rest: FdAlgebra, cap: int):
    src = alg_tensor(source, rest)
    pin = factor_index_map((source, rest))
    pout = factor_index_map((target, rest))
    return src, alg_tensor(target, rest), pin, pout


def compose_tensored(f: SuperOp, rest: FdAlgebra, g: SuperOp, *,
                     rows: np.ndarray | None = None) -> SuperOp:
    """Compute ``(f (x) id_rest) . g`` without materialising the Kronecker
    product, writing canonical row ``i`` to ``rows[i]`` if ``rows`` is set.

    Rows are placed through ``factor_index_map``.  When every row of
    ``f`` has at most one nonzero entry (symmetries, repatternings,
    classical readouts, diagonal gates, zero maps) each result row is one
    row of ``g`` times that entry, moved by ``_moved_rows`` with no matrix
    product: a view ``g`` is read through a new index, and no matrix is
    touched; a dense ``g``'s rows are copied into a dense result.  Entries
    other than 1 scale the rows: a view's ``vals`` and ``fill`` (see
    ``SuperOp.row_view``), or the copied rows, both by ``_scaled_rows``.
    Either way each entry is ``g``'s entry times ``f``'s, rounded once:
    exact for 0/1 entries, within 1e-12 of the dense product otherwise.
    Any other ``f`` is multiplied densely between a gather and a scatter,
    except where the continuation is sparse: from ``_SPARSE_FLOOR`` contracted
    entries up, rest group ``k`` of ``g[pin[:, k], c]`` that holds no more
    nonzeros than it has columns gives rows ``pout[:, k]`` as sums, over
    the nonzeros ``v`` of column ``c`` at rows ``j``, of ``f[:, j] * v``,
    and ``+0`` where the column is zero (``_summed``).  A column of one
    nonzero is that product rounded as BLAS rounds a one-term dot product
    (``_gathered``); a column of several sums the separately rounded
    products in ascending ``j``, then adds ``+0.0``, within 1e-12 of the
    zgemm but not its bits.  The nonzeros come from a view ``g``'s live
    slots, or from ``matrix != 0`` of a dense ``g``, and are read in one
    order, sorted by ``(k, c, j)`` (``_group_nonzeros``); no row of the
    contraction is built unless some group does not qualify.  Each group
    is decided from its own entries alone, so a view and its dense twin,
    or a continuation with other groups pruned, give the group the same
    bytes.  When every group qualifies and no result row holds a nonzero
    in half the columns or more, the result is a view of those entries,
    as wide as the group that reads the most columns, and no matrix is
    built (it takes at most 3/4 of the dense matrix's bytes).  Otherwise
    the groups that do not qualify take one zgemm over the whole
    contraction, at the shape it has with no group read sparsely, so
    their bits do not change, and the sparse groups' rows are written
    over it.  A column of one nonzero has the zgemm's bits where the
    zgemm rounds a one-term dot product so; in columns that the BLAS
    kernel rounds as a fused product (for OpenBLAS on x86-64, the last
    ``(r * ncols) mod 4``) an inexact entry may differ by 1 ulp.
    """
    src_mid, tgt, pin, pout = tensored_layout(f, rest)
    if g.target != src_mid:
        raise DimensionMismatch("continuation does not produce f.source (x) rest")
    if rows is not None:
        pout = rows[pout]
    nonzero = _monomial_rows(f)
    if nonzero is not None:
        nz_rows, nz_cols, vals = nonzero
        # result row pout[i, k] reads row pin[j, k] of g when f[i, j] is
        # row i's nonzero; a zero row of f stays a zero row
        scale = None if vals is None or (vals == 1).all() else vals[:, None]
        return _moved_rows(g, tgt, pout[nz_rows], pin[nz_cols], scale)
    r = rest.dim
    ncols = g.source.dim
    found = None
    if f.source.dim * r * ncols >= _SPARSE_FLOOR:
        found = _group_nonzeros(g, pin)
    if found is not None and found[0].all():
        # each row of group k holds one entry per column the group reads
        k, first = found[2], found[5]
        counts = np.bincount(k[first], minlength=r)
        if 2 * counts.max() < ncols:
            return _summed_view(f.matrix, g.source, tgt, pout, counts, *found[1:])
        out = np.empty((tgt.dim, ncols), dtype=complex)
    else:
        # with rest the scalars, pin and pout are the identity
        gk = _dense_rows(g, None if r == 1 else pin.reshape(-1))
        hk = (f.matrix @ gk.reshape(f.source.dim, r * ncols)).reshape(f.target.dim * r, ncols)
        if r == 1 and rows is None:
            return SuperOp(g.source, tgt, hk)
        out = np.empty((f.target.dim * r, ncols), dtype=complex)
        out[pout.reshape(-1), :] = hk
    if found is not None:
        _write_summed(out, f.matrix, pout, *found)
    return SuperOp(g.source, tgt, out)


# The continuation side of compose_tensored.  Rest group k of the
# contraction is gk[:, k, :], with gk[j, k, c] = g[pin[j, k], c].  When it
# holds few nonzeros, no more than it has columns, the result rows
# pout[:, k] are sums of f's columns scaled: out[pout[i, k], c] is the sum
# of f[i, j] * v over the nonzeros v at (j, c), in ascending j, and +0
# where the column is zero.  Each group is decided from its own entries
# alone, so zeroing or changing other groups, or holding the same entries
# in another kind of map, never changes its rows; the other groups take
# one zgemm over the whole contraction, as with no group read sparsely.
# Contractions of fewer entries than the floor keep the zgemm: below it
# the numpy calls of the reading cost more than the product they save.
_SPARSE_FLOOR = 1 << 15
_GATHER_BLOCK = 1 << 14  # result entries gathered per block of f's rows


def _summed_view(a: np.ndarray, source: FdAlgebra, target: FdAlgebra, pout: np.ndarray,
                 counts, j, k, c, v, first) -> SuperOp:
    """The result when every rest group qualifies, as an identity-based
    view: row ``pout[i, k]`` holds the sum of ``a[i, j] * v``
    (``_summed``) at column ``c`` over the nonzeros ``v`` at ``(j, k,
    c)``, and ``+0`` elsewhere.  Every row of group ``k`` holds the same
    ``counts[k]`` columns, so the view is as wide as the group that reads
    the most columns.  The nonzeros come sorted by ``(k, c, j)``, so a
    group's columns are consecutive and ``first`` numbers them."""
    r = pout.shape[1]
    # a group's columns are consecutive, and at most width of them
    width = max(1, int(counts.max()))
    at = k * width + (np.cumsum(first) - 1) % width
    cols = np.full(r * width, -1, dtype=np.intp)
    cols[at] = c
    index = np.empty((target.dim, width), dtype=np.intp)
    index[pout] = cols.reshape(r, width)
    vals = np.empty((target.dim, width), dtype=complex)
    x = _summed(a, *_layers(at, j, v, first, r * width))
    vals[pout] = x.reshape(pout.shape + (width,))
    if width == 1:
        index, vals = index[:, 0], vals[:, 0]
    return SuperOp.row_view(source, target, index, vals)


def _write_summed(out: np.ndarray, a: np.ndarray, pout: np.ndarray,
                  few, j, k, c, v, first) -> None:
    """Write the rows ``pout[:, k]`` of every qualifying rest group ``k``
    (``few``) into ``out``, whole: the sum of ``a``'s column ``j`` times
    ``v`` over the nonzeros ``v`` at ``(j, k, c)`` (``_summed``), and a
    column with no nonzero ``a``'s column 0 times 0, which is ``+0`` for
    a finite ``a``."""
    groups = np.flatnonzero(few)
    ncols = out.shape[1]
    at = np.searchsorted(groups, k) * ncols + c
    js, vs, more = _layers(at, j, v, first, groups.size * ncols)
    step = max(1, _GATHER_BLOCK // js.size)
    for i in range(0, a.shape[0], step):
        x = _summed(a[i:i + step], js, vs, more)
        out[pout[i:i + step][:, groups]] = x.reshape(-1, groups.size, ncols)


def _group_nonzeros(g: SuperOp, pin: np.ndarray):
    """``(few, j, k, c, v, first)``: whether each rest group ``k`` of the
    contraction ``g[pin[j, k], c]`` holds few nonzeros, no more than it
    has columns, and each nonzero ``v`` of those groups at ``(j, k, c)``,
    sorted by ``(k, c, j)``, with ``first`` marking the first of each
    column; None when no group qualifies.  A view reads its nonzeros from
    ``index[pin]`` and ``vals[pin]``, a dense map from ``(matrix !=
    0)[pin]``, so the contraction's rows are never built."""
    nj, r = pin.shape
    ncols = g.source.dim
    if g._index is None:
        live = (g._matrix != 0)[pin]  # (j, k, c)
    else:
        cols = g._index[pin]  # (j, k), or (j, k, slot) for a view of width m
        live = cols >= 0
        vals = None if g._vals is None else g._vals[pin]
        if vals is not None:
            live &= vals != 0
    few = live.reshape(nj, r, -1).sum(axis=(0, 2)) <= ncols
    if not few.any():
        return None
    live[:, ~few] = False
    at = live.nonzero()
    j, k = at[0], at[1]
    if g._index is None:
        c = at[2]
        v = g._matrix[pin[j, k], c]
    else:
        c = cols[at]
        v = np.ones(j.size, dtype=complex) if vals is None else vals[at]
    order = np.argsort((k * ncols + c) * nj + j)
    j, k, c, v = j[order], k[order], c[order], v[order]
    first = np.ones(k.size, dtype=bool)
    first[1:] = (k[1:] != k[:-1]) | (c[1:] != c[:-1])
    return few, j, k, c, v, first


def _layers(at, j, v, first, size):
    """The nonzeros ``(j, v)`` that ``_summed`` adds into result column
    ``at``, in layers of distinct columns: the first of every column as
    ``size`` entries of ``j`` and ``v`` (0 and 0 where none), then one
    ``(at, j, v)`` per later rank.  The nonzeros of a column are
    consecutive and in ascending ``j``, and ``first`` marks where each
    starts."""
    js = np.zeros(size, dtype=np.intp)
    vs = np.zeros(size, dtype=complex)
    js[at[first]], vs[at[first]] = j[first], v[first]
    rank = np.arange(at.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    more = []
    for t in range(1, int(rank.max(initial=0)) + 1):
        on = rank == t
        more.append((at[on], j[on], v[on]))
    return js, vs, more


def _summed(a: np.ndarray, js: np.ndarray, vs: np.ndarray, more) -> np.ndarray:
    """``_gathered(a, js, vs)``, then each later layer ``(at, j, v)`` of
    ``_layers`` added in order: ``_gathered(a, j, v)`` into columns
    ``at``.  A column of one nonzero has ``_gathered``'s bits; a longer
    one is its separately rounded products summed in ascending ``j``,
    then ``+ 0.0``, since a sum of terms none of which is ``-0`` is never
    ``-0``.  Within 1e-12 of the zgemm, but not its bits."""
    x = _gathered(a, js, vs)
    for at, j, v in more:
        x[:, at] += _gathered(a, j, v)
    return x


def _gathered(a: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a[:, j] * v`` for 1-d ``j`` and ``v``, each entry rounded as BLAS
    rounds a one-term dot product: ``re = ar vr - ai vi`` and ``im = ar vi
    + ai vr``, each product and each sum rounded on its own, and a zero
    sum ``+0``.  Numpy's complex ``*`` may fuse a product into the sum,
    which rounds differently."""
    vr, vi = np.ascontiguousarray(v.real), np.ascontiguousarray(v.imag)
    xr, xi = a.real.take(j, axis=1), a.imag.take(j, axis=1)
    re = xr * vr
    re -= xi * vi
    im = xr * vi
    im += xi * vr
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    out += 0.0
    return out


def _scaled_rows(a, default, src, live, scale, shape):
    """The rows of ``a`` read through ``src`` (in order, for None) into
    rows ``live`` and times ``scale``, one entry per row: per-row ``vals``
    (of ``shape`` ``(n, m)`` or ``(n,)``) or ``fill`` (``(n,)``) of an
    identity-based view, or a dense matrix's rows (``(n, ncols)``); None
    when ``a`` is None (all ``default``) and nothing scales.  Other rows
    hold ``+0``."""
    if a is None and scale is None:
        return None
    if a is None:
        x = np.full(live.shape + shape[1:], default, dtype=complex)
    else:
        x = a if src is None else a[src]
    if scale is not None:
        x = x * (scale if x.ndim == 2 else scale[..., None])
    out = np.zeros(shape, dtype=complex)
    out[live] = x
    return out


def _monomial_rows(f: SuperOp):
    """``(rows, cols, vals)`` of the nonzero entries of ``f`` when no row
    holds more than one of them, else None; ``vals`` None means all ones.
    Found once per map (see ``_find_monomial``) and kept on it."""
    found = f._mono
    if found is _UNSET:
        found = f._mono = _find_monomial(f)
    return found


def _find_monomial(f: SuperOp):
    """``_monomial_rows`` of ``f``, not memoised.  A view answers from its
    index; for a dense map the count comes first, so a dense ``f`` costs
    one pass."""
    if f._index is not None:
        live = f._index >= 0
        if f._vals is not None:
            live &= f._vals != 0
        at = live.nonzero()
        rows = at[0]
        if live.ndim == 2 and (rows[1:] == rows[:-1]).any():
            return None
        return rows, f._index[at], None if f._vals is None else f._vals[at]
    m = f._matrix
    if np.count_nonzero(m) > m.shape[0]:
        return None
    rows, cols = np.nonzero(m)
    if (rows[1:] == rows[:-1]).any():
        return None
    return rows, cols, m[rows, cols]


def factor_permutation(algs: Sequence[FdAlgebra], new_order: Sequence[int]) -> np.ndarray:
    """Index permutation reordering tensor factors.

    Returns an array ``p`` with ``p[src] = tgt``: the canonical index
    ``src`` in ``tensor_many(algs)`` corresponds to ``tgt`` in
    ``tensor_many([algs[i] for i in new_order])``.  Both sides come from
    ``factor_index_map``; the result is memoised like it.
    """
    assert sorted(new_order) == list(range(len(algs)))
    _check_tensor_dims(algs)
    return _factor_permutation(tuple(a.blocks for a in algs), tuple(new_order))


@functools.cache
def _factor_permutation(factor_blocks: tuple, new_order: tuple) -> np.ndarray:
    src_map = _index_map(factor_blocks)
    tgt_map = _index_map(tuple(factor_blocks[i] for i in new_order))
    src_perm = np.transpose(src_map, axes=new_order) if new_order else src_map
    p = np.empty(src_map.size, dtype=np.int64)
    p[src_perm.reshape(-1)] = tgt_map.reshape(-1)
    p.flags.writeable = False
    return p


def copower_stack(fs: Sequence[SuperOp], *, rows: np.ndarray | None = None) -> SuperOp:
    """Assemble maps f_v : X -> Y into the single map X -> (n . Y) whose
    v-th summand is f_v, placed by ``rows`` if set (a zero f_v writes
    nothing, so its rows are ``+0``).  When every nonzero f_v is a view,
    so is the result, as wide as the widest f_v, and only indices move;
    otherwise the nonzero f_v are written into one dense stack."""
    if not fs:
        raise ZeroCopower("cannot stack zero maps")
    src = fs[0].source
    tgt = fs[0].target
    for f in fs:
        if f.source != src or f.target != tgt:
            raise DimensionMismatch("stacked maps must share a signature")
    stacked = alg_copower(len(fs), tgt)
    blocks = [(f, slice(v * tgt.dim, (v + 1) * tgt.dim)) for v, f in enumerate(fs)]
    if rows is not None:
        blocks = [(f, rows[block]) for f, block in blocks]
    blocks = [(f, block) for f, block in blocks if not _is_zero(f)]
    if all(f._index is not None for f, _ in blocks):
        # rows of no branch hold -1 and +0, as does the padding of a
        # branch narrower than the widest
        width = max([f._index.size for f, _ in blocks], default=tgt.dim) // tgt.dim
        index = np.full(stacked.dim if width == 1 else (stacked.dim, width), -1, dtype=np.intp)
        vals = fill = None
        if any(f._vals is not None for f, _ in blocks):
            vals = np.zeros(index.shape, dtype=complex)
        if any(f._fill is not None for f, _ in blocks):
            fill = np.zeros(stacked.dim, dtype=complex)
        for f, block in blocks:
            part, at = f._index, block
            if index.ndim == 2:
                part = part.reshape(tgt.dim, -1)
                at = (block, slice(part.shape[1]))
            index[at] = part
            if vals is not None:
                vals[at] = 1.0 if f._vals is None else f._vals.reshape(part.shape)
            if fill is not None:
                fill[block] = 0.0 if f._fill is None else f._fill
        return SuperOp.row_view(src, stacked, index, vals, fill)
    out = np.zeros((stacked.dim, src.dim), dtype=complex)
    for f, block in blocks:
        # a view's rows are written, not kept on it: a branch may be held
        # by a plan, and its matrix would live as long as the plan
        out[block] = _dense_rows(f, None)
    return SuperOp(src, stacked, out)


def _is_zero(f: SuperOp) -> bool:
    """Whether every entry of ``f`` is zero (signed zeros included)."""
    if f._index is None:
        return not f._matrix.any()
    live = f._index >= 0
    return not (live.any() if f._vals is None else f._vals[live].any())


# ---------------------------------------------------------------------------
# Verification predicates
# ---------------------------------------------------------------------------


def _choi_blocks(f: SuperOp):
    """The Choi matrix of each (source block, target block) component of
    ``f``: entry ((r, t), (s, u)) is the (t, u) entry of the image of the
    matrix unit e_rs."""
    soff = f.source.offsets()
    toff = f.target.offsets()
    for i, a in enumerate(f.source.blocks):
        for j, b in enumerate(f.target.blocks):
            m = f.matrix[toff[j] : toff[j] + b * b, soff[i] : soff[i] + a * a]
            yield m.reshape(b, b, a, a).transpose(2, 0, 3, 1).reshape(a * b, a * b)


def choi_matrix(f: SuperOp) -> np.ndarray:
    """Block-diagonal assembly of the Choi matrices of all block
    components of ``f``; positive semidefiniteness of this matrix is
    equivalent to complete positivity of ``f``."""
    pieces = list(_choi_blocks(f))
    total = sum(p.shape[0] for p in pieces)
    out = np.zeros((total, total), dtype=complex)
    k = 0
    for p in pieces:
        d = p.shape[0]
        out[k : k + d, k : k + d] = p
        k += d
    return out


def psd_within(h: np.ndarray, tol: float) -> bool:
    """Whether the Hermitian matrix ``h`` has no eigenvalue below ``-tol``,
    as ``eigvalsh`` computes them: at most two Cholesky factorisations
    decide all but a band of width ``2 * _psd_margin(h, tol)`` around
    ``-tol``.  If ``h + (tol - delta) I`` factors, the answer is yes; if
    ``h + (tol + delta) I`` does not, it is no; otherwise, and for a zero
    or overflowing margin (a zero ``h`` at ``tol`` 0, entries near the
    largest float), ``eigvalsh`` decides.  A NaN or infinite entry is not
    within any tolerance: ``eigvalsh`` may drop a NaN from its spectrum."""
    if not np.isfinite(h).all():
        return False
    delta = _psd_margin(h, tol)
    if 0 < delta < math.inf:
        if _factors(h, tol - delta):
            return True
        if not _factors(h, tol + delta):
            return False
    return bool(np.linalg.eigvalsh(h).min() >= -tol)


def _psd_margin(h: np.ndarray, tol: float) -> float:
    """The margin ``delta = 8 (d + 1) u nu`` of ``psd_within``, with ``d``
    the order of ``h``, ``u = eps / 2`` the unit roundoff and ``nu = d
    (max_i |h_ii| + tol) + ||h||_F``.

    It exceeds what rounding can move either method by (Higham, *Accuracy
    and Stability of Numerical Algorithms*, thm. 10.3 and 10.7, for ``a =
    h + s I``): a factorisation that succeeds is exact for some ``a + e``
    with ``||e||_2 <= (d + 1) u tr(a)``; one cannot fail once the least
    eigenvalue of ``a`` is above ``d (d + 1) u max_i a_ii``; and
    ``eigvalsh``'s eigenvalues are those of some ``h + e`` with ``||e||_2``
    a modest multiple of ``eps ||h||_2``, below ``d eps ||h||_F``.  So a
    shortcut of ``psd_within`` answers only where ``eigvalsh`` answers the
    same.
    """
    d = h.shape[0]
    with np.errstate(over="ignore"):  # an infinite margin leaves it to eigvalsh
        nu = d * (np.abs(np.diagonal(h)).max() + tol) + np.linalg.norm(h)
    return 4 * (d + 1) * float(np.finfo(float).eps) * nu


def _factors(h: np.ndarray, shift: float) -> bool:
    """Whether ``h + shift I`` has a Cholesky factorisation."""
    a = h.copy()
    a[np.diag_indices_from(a)] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def is_cp(f: SuperOp, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity within ``tol``: each Choi block ``c`` is Hermitian
    to within ``max(tol, 1e-9)`` relative to ``max(1, ||c||_F)``, and its
    Hermitian part has no eigenvalue below ``-tol`` (``psd_within``, which
    answers as ``eigvalsh`` would, mostly by Cholesky)."""
    for c in _choi_blocks(f):
        h = (c + c.conj().T) / 2
        if np.linalg.norm(c - h) > max(tol, 1e-9) * max(1.0, np.linalg.norm(c)):
            return False
        if not psd_within(h, tol):
            return False
    return True


def apply_to_unit(f: SuperOp) -> AlgElement:
    return f(unit_element(f.source))


def is_unital(f: SuperOp, tol: float = DEFAULT_TOL) -> bool:
    u = apply_to_unit(f)
    return bool(np.linalg.norm(u.vec - unit_element(f.target).vec) <= tol)


def is_subunital(f: SuperOp, tol: float = DEFAULT_TOL) -> bool:
    """f(1) <= 1, i.e. 1 - f(1) is positive semidefinite blockwise."""
    gap = unit_element(f.target).vec - apply_to_unit(f).vec
    return AlgElement(f.target, gap).is_positive(tol)


def loewner_leq(f: SuperOp, g: SuperOp, tol: float = DEFAULT_TOL) -> bool:
    """Order on maps: f <= g iff g - f is completely positive, tested on
    the Choi blocks of the difference."""
    if f.source != g.source or f.target != g.target:
        raise DimensionMismatch("maps with different signatures")
    return is_cp(SuperOp(f.source, f.target, g.matrix - f.matrix), tol)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Distribution:
    """A finitely supported subprobability distribution: the value of a
    host computation.

    Keys are host values: ``()``, ints and pairs for a first-order
    outcome, or any other value, which is hashed by identity (a
    distribution too, so that computations nest).  The weights are
    non-negative and sum to at most 1, with the deficit the probability
    of divergence.
    """

    weights: dict

    def mass(self) -> float:
        return float(sum(self.weights.values()))

    def diverge_mass(self) -> float:
        return max(0.0, 1.0 - self.mass())

    def items(self):
        return self.weights.items()

    def __getitem__(self, k):
        return self.weights.get(k, 0.0)


def state_to_distribution(f: SuperOp, values: Sequence | None = None) -> Distribution:
    """Read off the subprobability vector of a state on a classical
    algebra: the i-th weight is f applied to the i-th coordinate basis
    element.  ``values`` names the outcomes (defaults to 0..n-1)."""
    if any(n != 1 for n in f.source.blocks):
        raise NonClassicalSource(f"source {f.source} is not commutative")
    if f.target.blocks != (1,):
        raise NonClassicalSource("target must be the scalars")
    row = f.matrix[0]
    if np.abs(row.imag).max(initial=0.0) > DEFAULT_TOL:
        raise ValueError("state has complex weights")
    w = row.real.copy()
    if w.min(initial=0.0) < -DEFAULT_TOL:
        raise ValueError(f"state has negative weight {w.min()}")
    w = np.clip(w, 0.0, None)
    if values is None:
        values = range(len(w))
    return Distribution({v: float(x) for v, x in zip(values, w)})


# ---------------------------------------------------------------------------
# Gate library
# ---------------------------------------------------------------------------

@functools.cache
def _unitaries() -> dict:
    """The fixed unitary gates by name, built on first use, not at import,
    and shared by every later call."""
    return {
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        "CNOT": np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        ),
    }


def _rotation(n: int) -> np.ndarray:
    if n < 0:
        raise UnknownGate(f"rotation index must be >= 0, got {n}")
    return np.array([[1, 0], [0, np.exp(2j * np.pi / 2**n)]])


def _unitary_of(g: GateRef) -> np.ndarray:
    if g.name in _unitaries():
        return _unitaries()[g.name]
    if g.name == "R":
        return _rotation(g.index)
    if g.name == "CR":
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = _rotation(g.index)
        return u
    if g.name == "control":
        sub = _unitary_of(g.sub)
        d = sub.shape[0]
        u = np.eye(2 * d, dtype=complex)
        u[d:, d:] = sub
        return u
    raise UnknownGate(f"{pretty_print(g)} is not a unitary gate")


def unitary_channel(u: np.ndarray) -> SuperOp:
    """The Heisenberg map x -> u* x u of a unitary on one matrix block."""
    d = u.shape[0]
    m = np.kron(u.conj().T, u.T)
    return SuperOp(alg(d), alg(d), m)


def gate_denotation(g: GateRef) -> SuperOp:
    """Heisenberg-direction denotation of a built-in gate.  Its matrix is
    built once per gate reference and shared, read-only, by every map
    returned for it."""
    op = _gate_superop(g)
    return SuperOp(op.source, op.target, op.matrix)


@functools.cache
def _gate_superop(g: GateRef) -> SuperOp:
    if g.name == "meas":
        m = np.zeros((4, 2), dtype=complex)
        m[0, 0] = 1.0
        m[3, 1] = 1.0
        return SuperOp(alg(1, 1), alg(2), m)
    if g.name == "new":
        # unitality forces reading both diagonal entries
        m = np.zeros((2, 4), dtype=complex)
        m[0, 0] = 1.0
        m[1, 3] = 1.0
        return SuperOp(alg(2), alg(1, 1), m)
    if g.name == "init0":
        return SuperOp(alg(2), alg(1), np.array([[1.0, 0, 0, 0]], dtype=complex))
    if g.name == "init1":
        return SuperOp(alg(2), alg(1), np.array([[0, 0, 0, 1.0]], dtype=complex))
    if g.name == "discard":
        return SuperOp(alg(1), alg(1, 1), np.array([[1.0], [1.0]], dtype=complex))
    if g.name == "bit-control":
        sub = _gate_superop(g.sub)
        if sub.source != sub.target:
            raise UnknownGate("bit-control needs an endo-gate")
        d = sub.source.dim
        m = np.zeros((2 * d, 2 * d), dtype=complex)
        m[:d, :d] = np.eye(d)
        m[d:, d:] = sub.matrix
        a = alg_tensor(alg(1, 1), sub.source)
        return SuperOp(a, a, m)
    if g.name in _unitaries() or g.name in ("R", "CR", "control"):
        return unitary_channel(_unitary_of(g))
    raise UnknownGate(f"no denotation for gate {pretty_print(g)}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> float:
    """``x`` at 12 significant digits: the one number format of the output."""
    return float(f"{x:.12g}")


def superop_to_json(f: SuperOp, **fields) -> str:
    """``f`` as the JSON text that ``json.dumps`` prints for the object
    ``{"source_blocks": ..., "target_blocks": ..., "matrix": ...}``
    followed by ``fields`` in order.  ``matrix`` holds the entries
    row-major as [re, im] pairs, each part at 12 significant digits
    (``_fmt``).  Each distinct pair of bit patterns (so ``-0.0`` and every
    NaN payload apart) is formatted once, by ``json.dumps``, and the texts
    are joined once.  The pairs are found by sorting the 8-byte patterns of
    each part, then the pairs of their codes, which is faster than sorting
    16-byte records."""
    import json  # here: importing the package does not load json

    z = f.matrix.reshape(-1)
    re, re_code = np.unique(z.real.view(np.uint64), return_inverse=True)
    im, im_code = np.unique(z.imag.view(np.uint64), return_inverse=True)
    codes, inverse = np.unique(re_code * im.size + im_code, return_inverse=True)
    pairs = zip(re[codes // im.size].view(float).tolist(),
                im[codes % im.size].view(float).tolist())
    texts = np.array([json.dumps([_fmt(x), _fmt(y)]) for x, y in pairs], dtype=object)
    parts = {
        "source_blocks": json.dumps(list(f.source.blocks)),
        "target_blocks": json.dumps(list(f.target.blocks)),
        "matrix": "[" + ", ".join(texts[inverse].tolist()) + "]",
    }
    parts.update((k, json.dumps(v)) for k, v in fields.items())
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in parts.items()) + "}"
