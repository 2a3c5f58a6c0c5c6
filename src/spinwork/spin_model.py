"""XXZ chain operators, held as their magnetization-sector blocks, and the block bookkeeping.

Conventions (fixed so tests are bit-exact):
  * sigma^+ = (sigma^x + i sigma^y)/2, sigma^- its adjoint, so the flip
    amplitude between up-down and down-up neighbours is exactly J per bond.
  * Computational basis with site 0 as the most significant bit; bit 0 means
    spin up (sigma^z eigenvalue +1).  Every operator is read off one table of
    these sigma^z values: H0 links b to b ^ (0b11 << (N-2-i)) wherever the
    spins of sites i and i+1 differ.
  * Open boundary conditions: bond sums run over sites 0..N-2.

An operator (``OperatorMatrix``) is its blocks, one (rows, rows, array) triple
per invariant block: 8 C(2N, N) bytes for the chain, not 16 4^N, since H0 and
H1 are real symmetric and their blocks are float64.  There is one partition
rule: ``build_hopping`` and ``build_zz`` block by magnetization sector, and
``OperatorMatrix.from_dense`` checks a dense input and blocks it by sector
too, or as one whole-space block if it couples sectors.  A block is float64
when the operator is real and complex128 otherwise (a propagator, a complex
Hermitian input); numpy's dtype dispatch then runs every stage on a real
operator in real arithmetic (real ``eigh``, real eigenvectors) without a
second code path.
Eigenvectors and state factors are (rows, cols, array) triples too, and
``common_blocks`` lines several up: blocks they share, or the whole space.
The pipeline runs on the chain's symmetry-adapted blocks (``adapted_chain``):
each sector split into the +-1 eigenspaces of the site reflection (and of the
spin flip on the middle sector), built orbit by orbit from the basis permutations
of the two (``spin_symmetries``) with no isometry formed, and sector N - k written
in the flip image of sector k's basis so that its blocks are sector k's arrays.  After the build a flip
copy is its partner counted twice: every stage finds it by array identity (``copies``),
computes its partner's result once and shares it (``once_per_copy``), and counts the
partner's sums, atoms and defects at multiplicity 2.
``adapted_block_sizes`` gives the distinct blocks' sizes in closed form, with no operator built;
every cost estimate reads them.  ``check_memory`` is the one memory guard: it raises
:class:`DimensionError` when an estimate (a scan point's by ``chain_points``, from its distinct
adapted-block entries, sum b^2) exceeds the limit.
"""
from __future__ import annotations

import itertools
import math
import os
import resource
from dataclasses import dataclass

import numpy as np

# a scan point's peak bytes per distinct adapted-block entry and the interpreter's, fit to measured peaks (README)
POINT_BYTES_PER_ENTRY = 320
POINT_BYTES_FIXED = 160_000_000


class DimensionError(ValueError):
    """Operator dimensions incompatible, not a power of two, or an estimated memory over the limit."""


def _memory_limit() -> int:
    """Bytes one computation may allocate: physical memory, or a lower soft RLIMIT_AS."""
    physical, soft = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), resource.getrlimit(resource.RLIMIT_AS)[0]
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


def check_memory(what: str, estimate: int) -> int:
    """How many computations of ``estimate`` bytes the memory limit holds; if none, a DimensionError naming ``what``."""
    limit = _memory_limit()
    if estimate <= limit:
        return limit // estimate
    raise DimensionError(f"{what}, an estimated {estimate / 1e9:.3g} GB, over the {limit / 1e9:.3g} GB memory limit")


def adapted_block_sizes(n_sites: int) -> list[int]:
    """Sizes of the chain's distinct symmetry-adapted blocks on ``n_sites``, in ``adapted_chain``'s
    order, one per group of :func:`copies` (a flip copy of sector N - k is sector k's).

    Sector k < N/2 of C = C(N, k) states splits by reflection parity into (C +- P)/2, P its palindromes:
    C(N // 2, k // 2) at odd N, C(N/2, k/2) at even N and k, none at odd k.  The middle sector of even N
    splits by both parities into (C + r P + r f 2^(N/2))/4 for flip f and reflection r = +-1 (2^(N/2)
    states are their own flip's mirror image).  A block is one orbit sum per orbit that its parities do not
    cancel, so empty blocks are dropped, as ``adapted_chain`` drops them.
    """
    sizes = []
    for k in range(n_sites // 2 + 1):
        c = math.comb(n_sites, k)
        p = math.comb(n_sites // 2, k // 2) if n_sites % 2 or k % 2 == 0 else 0
        if 2 * k < n_sites:
            sizes += [(c + p) // 2, (c - p) // 2]
        else:
            sizes += [(c + r * p + r * f * 2 ** (n_sites // 2)) // 4 for f in (1, -1) for r in (1, -1)]
    return [b for b in sizes if b]


def chain_points(n_sites: int) -> int:
    """How many scan points on ``n_sites`` the memory limit holds at once (:func:`check_memory`), at
    POINT_BYTES_PER_ENTRY per distinct adapted-block entry, sum b^2 >= C(2N, N)/8 >= 2^N/8, plus
    POINT_BYTES_FIXED; a chain past the limit's bit length cannot fit, and gets the bound at one site
    past it (the sizes' binomials would stall)."""
    n = min(n_sites, _memory_limit().bit_length() + 1)
    entries, least = sum(b**2 for b in adapted_block_sizes(n)), "at least " * (n < n_sites)
    return check_memory(f"a scan point on {least}{n} sites needs {least}{entries} adapted-block entries",
                        POINT_BYTES_PER_ENTRY * entries + POINT_BYTES_FIXED)


@dataclass(frozen=True)
class SpinChainSpec:
    """Open XXZ chain of ``n_sites`` spins with energy scale ``coupling``."""

    n_sites: int
    coupling: float
    boundary: str = "open"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not np.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.boundary != "open":
            raise ValueError(f"only open boundaries are supported, got {self.boundary!r}")

    @property
    def dimension(self) -> int:
        return 2 ** self.n_sites


def common_blocks(*partitions) -> list[tuple[np.ndarray, tuple]]:
    """Blocks that every given partition of range(d) refines, lined up.

    A partition is a sequence of (rows, cols, array) triples: disjoint rows
    covering range(d), the columns on them (an operator's own rows, or
    eigenvector indices) and the array.  Returns one (rows, ((cols, array) of
    each partition)) pair per common block: the shared blocks when all
    partitions have the same rows, otherwise one whole-space block holding
    each partition's ``dense_view`` (exact, since every partition refines the
    whole space).  Partitions of different d raise :class:`DimensionError`.
    """
    sizes = sorted({sum(rows.size for rows, _, _ in part) for part in partitions})
    if len(sizes) > 1:
        raise DimensionError(f"dimension mismatch: {sizes[0]} vs {sizes[-1]}")
    first = [rows for rows, _, _ in partitions[0]]
    if all(len(p) == len(first) and all(np.array_equal(r, q[0]) for r, q in zip(first, p)) for p in partitions[1:]):
        return [(rows, tuple((cols, a) for _, cols, a in blocks)) for rows, blocks in zip(first, zip(*partitions))]
    whole = np.arange(sizes[0])
    return [(whole, tuple((whole, dense_view(sizes[0], part)) for part in partitions))]


def dense_view(d: int, blocks) -> np.ndarray:
    """The d x d array of (rows, cols, array) blocks, in their common dtype: a view for tests,
    and the whole-space block ``common_blocks`` gives inputs blocked differently (no CLI run has such)."""
    blocks = list(blocks)
    m = np.zeros((d, d), dtype=np.result_type(*(a for _, _, a in blocks)))
    for rows, cols, a in blocks:
        m[np.ix_(rows, cols)] = a
    return m


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator on the 2^N spin Hilbert space, held as one (rows, rows, array) triple
    per invariant block (a magnetization sector, or the whole space); it is
    exactly zero between blocks.  The arrays are float64 for a real operator
    (the chain's: 8 C(2N, N) bytes) and complex128 otherwise."""

    blocks: tuple
    hermitian: bool = True

    @classmethod
    def from_dense(cls, matrix: np.ndarray, hermitian: bool = True) -> "OperatorMatrix":
        """A dense square matrix of power-of-two dimension, blocked by magnetization
        sector if it is exactly zero between sectors and as one whole-space block
        otherwise, in float64 if its imaginary part is exactly zero and in complex128
        if not; rejects a non-finite entry, and a matrix marked Hermitian that is not."""
        m = np.asarray(matrix, dtype=complex)
        if not m.imag.any():
            m = m.real
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        n = m.shape[0]
        if n & (n - 1):
            raise DimensionError(f"dimension {n} is not a power of two")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
        if hermitian:
            scale = max(np.abs(m).max(), 1.0)
            defect = np.abs(m - m.conj().T).max()
            if defect > 1e-12 * scale:
                raise ValueError(f"matrix is not Hermitian: |H - H^dag| = {defect:.3e}")
        blocks = tuple((rows, rows, m[np.ix_(rows, rows)]) for rows in _sectors(n))
        if sum(np.count_nonzero(a) for _, _, a in blocks) < np.count_nonzero(m):
            blocks = ((np.arange(n), np.arange(n), m.copy()),)
        return cls(blocks, hermitian)

    @property
    def dimension(self) -> int:
        return sum(rows.size for rows, _, _ in self.blocks)

    @property
    def matrix(self) -> np.ndarray:
        """The operator as a d x d array (a view for tests; the pipeline reads the blocks)."""
        return dense_view(self.dimension, self.blocks)


def _spins(n_sites: int) -> np.ndarray:
    """(2^N, N) integer table of sigma^z eigenvalues (+1 up, -1 down) per basis state and site."""
    chain_points(n_sites)
    b = np.arange(2**n_sites)
    return 1 - 2 * ((b[:, None] >> (n_sites - 1 - np.arange(n_sites))[None, :]) & 1)


def spin_symmetries(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis permutations of the global spin flip and of the site reflection i -> N-1-i.

    Entry b of each is the index of the image of basis state b.  Both are
    commuting involutions; the flip is b -> b ^ (2^N - 1), i.e. d - 1 - b.
    """
    z = _spins(n_sites)
    place = 2 ** (n_sites - 1 - np.arange(n_sites))
    return ((1 + z) // 2) @ place, ((1 - z[:, ::-1]) // 2) @ place


def adapted_chain(spec: SpinChainSpec) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(H0, H1) of the chain on its symmetry-adapted blocks (see the module notes), built orbit by orbit.

    Sector k <= N/2 splits into the +-1 eigenspaces of the site reflection (flip, then reflection, on
    the middle sector), each spanned by the signed, normalized sums over the orbits of basis states
    that the parities do not cancel, in the order of the orbits' first states.  H0's entries are
    gathered from the nonzeros of ``build_hopping``'s sector block A (at most N - 1 hops per state),
    summed first over each orbit's states (the nonzeros of s^T A) and then over the neighbours' orbits,
    the order in which the dense projection s^T A s sums them; H1 is diagonal there, ``zz_diagonal`` at
    each orbit's first state.  Sector N - k takes sector k's arrays (its blocks are in the flip image
    of sector k's basis), so its blocks are flip copies (``copies``).
    """
    n = spec.n_sites
    flip, reflection = spin_symmetries(n)
    zz = zz_diagonal(spec)
    parts = []  # per sector k <= N/2, (H0, H1) of each of its adapted blocks
    for k, (rows, _, a) in enumerate(build_hopping(spec).blocks[: n // 2 + 1]):
        gens = [np.searchsorted(rows, g[rows]) for g in (flip, reflection)[2 * k != n:]]
        states = np.arange(rows.size)
        elements = [(states, ())]  # the group they generate: each permutation, the generators it uses
        for g, q in enumerate(gens):
            elements += [(q[perm], used + (g,)) for perm, used in elements]
        first = np.min([perm for perm, _ in elements], axis=0)  # each state's orbit's first state
        firsts = np.flatnonzero(first == states)
        orbit, hop_i, hop_j = np.searchsorted(firsts, first), *np.nonzero(a)
        parts.append([])
        for signs in itertools.product((1.0, -1.0), repeat=len(gens)):
            # the state's coefficient in its orbit's column: the signs of the elements taking the first state to it
            w = sum(np.prod([signs[g] for g in used]) * (perm[first] == states) for perm, used in elements)
            norms = np.sqrt(np.bincount(orbit, w * w))
            live = norms > 0.5  # the orbits that the signs do not cancel
            if not live.any():
                continue
            s, col = w / np.maximum(norms, 1.0)[orbit], (np.cumsum(live) - 1)[orbit]
            hops = (s[hop_i] != 0) & (s[hop_j] != 0)
            pair = col[hop_i[hops]] * rows.size + hop_j[hops]
            order = np.argsort(pair, kind="stable")
            i, j = hop_i[hops][order], hop_j[hops][order]  # by (orbit of i, j), each pair's i ascending
            new = np.diff(pair[order], prepend=-1) != 0
            sa = np.zeros(new.sum())  # the nonzeros of s^T A, at (col[i], j) of each pair's first hop
            np.add.at(sa, np.cumsum(new) - 1, s[i] * a[i, j])
            h0 = np.zeros((live.sum(),) * 2)
            np.add.at(h0, (col[i][new], col[j][new]), sa * s[j][new])
            parts[-1].append((h0, np.diag(zz[rows[firsts[live]]])))
    parts += parts[(n - 1) // 2::-1]
    b0, b1 = zip(*(part for sector in parts for part in sector))
    cols = np.split(np.arange(spec.dimension), np.cumsum([b.shape[0] for b in b0])[:-1])
    return OperatorMatrix(tuple(zip(cols, cols, b0))), OperatorMatrix(tuple(zip(cols, cols, b1)))


def copies(*columns) -> list[int]:
    """For each position of equally long sequences of arrays, the first position holding the same
    arrays: each 2-d array (a block, its eigenvectors, its propagator) the same object, as a flip
    copy's are its partner's (``adapted_chain``) and stay through every stage that computes them
    once, and each 1-d array (a block's eigenvalues or weights) equal bit for bit.  A position that
    is its own first stands for its copies: ``Counter`` of the list gives its multiplicity."""
    entries, first = list(zip(*columns)), {}  # holds every array, so no id is reused meanwhile
    return [first.setdefault(tuple(id(a) if a.ndim > 1 else (a.dtype.str, a.tobytes()) for a in arrays), i)
            for i, arrays in enumerate(entries)]


def once_per_copy(fn, *columns) -> list:
    """``fn(*arrays)`` at each position of equally long sequences of arrays, run once per
    group of :func:`copies`: a copy shares its first's result object."""
    first = copies(*columns)
    done = {i: fn(*(column[i] for column in columns)) for i in dict.fromkeys(first)}
    return [done[i] for i in first]


def sublattice_parities(blocks: list) -> list:
    """For each block, a 2-colouring of its exact nonzeros: True on its odd basis vectors, so that
    every nonzero entry joins an even vector to an odd one; None for a complex block or one with
    no such colouring (a nonzero diagonal entry or an odd cycle).  On the chain's hopping the
    colour is the sublattice parity (-1)^(up spins on odd sites) wherever the block's vectors have
    a definite one.

    One breadth-first search over the nonzeros of all the real, zero-diagonal blocks at once, a
    whole level at a time, from the first vector of each block (then of each part not yet reached)."""
    real = [k for k, a in enumerate(blocks) if a.dtype == np.float64 and not np.diagonal(a).any()]
    starts = np.cumsum([0] + [blocks[k].shape[0] for k in real])
    edges = [np.nonzero(blocks[k]) for k in real]
    empty = [np.zeros(0, dtype=np.intp)]  # the edges of no block at all
    i = np.concatenate(empty + [rows + s for (rows, _), s in zip(edges, starts)])
    j = np.concatenate(empty + [cols + s for (_, cols), s in zip(edges, starts)])
    odd, seen = np.zeros(starts[-1], dtype=bool), np.zeros(starts[-1], dtype=bool)
    while not seen.all():
        unseen = np.flatnonzero(~seen)
        front, level = np.zeros_like(seen), False
        front[unseen[np.diff(np.searchsorted(starts, unseen, side="right"), prepend=-1) != 0]] = True
        while front.any():
            seen |= front
            odd |= front & level
            reached = np.zeros_like(seen)
            reached[j[front[i]]] = True
            front, level = reached & ~seen, not level
    # an edge joining two vectors of one colour rules out its block (searchsorted numbers block m as m + 1)
    clash = np.zeros(len(real) + 1, dtype=bool)
    clash[np.searchsorted(starts, i[odd[i] == odd[j]], side="right")] = True
    parities = [None] * len(blocks)
    for m, k in enumerate(real):
        parities[k] = None if clash[m + 1] else odd[starts[m]:starts[m + 1]]
    return parities


def build_hopping(spec: SpinChainSpec) -> OperatorMatrix:
    """Hopping part H0 = J sum_i (sigma+_i sigma-_{i+1} + h.c.), sector by sector."""
    n = spec.n_sites
    z = _spins(n)
    blocks = []
    for rows in _sectors(2**n):
        h = np.zeros((rows.size, rows.size))
        for i in range(n - 1):
            b = np.flatnonzero(z[rows, i] != z[rows, i + 1])
            h[b, np.searchsorted(rows, rows[b] ^ (0b11 << (n - 2 - i)))] = 1.0
        blocks.append((rows, rows, spec.coupling * h))
    return OperatorMatrix(tuple(blocks))


def zz_diagonal(spec: SpinChainSpec) -> np.ndarray:
    """Diagonal of the zz part: entry for basis state b is J * sum_i z_i(b) z_{i+1}(b)."""
    z = _spins(spec.n_sites)
    return spec.coupling * np.sum(z[:, :-1] * z[:, 1:], axis=1).astype(float)


def build_zz(spec: SpinChainSpec) -> OperatorMatrix:
    """Interaction part H1 = J sum_i sigma^z_i sigma^z_{i+1}, diagonal in the computational basis."""
    diag = zz_diagonal(spec)
    return OperatorMatrix(tuple((r, r, np.diag(diag[r])) for r in _sectors(spec.dimension)))


def assemble(h0: OperatorMatrix, h1: OperatorMatrix, lam: float) -> OperatorMatrix:
    """Full Hamiltonian H = H0 + lam * H1, block by block, once per group of :func:`copies`."""
    blocks = common_blocks(h0.blocks, h1.blocks)
    a, b = zip(*((a, b) for _, ((_, a), (_, b)) in blocks))
    summed = once_per_copy(lambda a, b: a + lam * b, a, b)
    return OperatorMatrix(tuple((rows, rows, h) for (rows, _), h in zip(blocks, summed)))


def magnetization_sectors(n_sites: int) -> list[np.ndarray]:
    """Partition of basis indices by Hamming weight (the number of spins down).

    Both chain parts commute with total magnetization, so every H(t) is block
    diagonal over these index groups: the blocks of ``build_hopping`` and
    ``build_zz``, which ``adapted_chain`` splits further.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    chain_points(n_sites)
    return _sectors(2**n_sites)


def _sectors(d: int) -> list[np.ndarray]:
    """Basis indices 0..d-1 grouped by their number of set bits (spins down), 0..log2(d)."""
    n = d.bit_length() - 1
    down = ((np.arange(d)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return [np.flatnonzero(down == k) for k in range(n + 1)]
