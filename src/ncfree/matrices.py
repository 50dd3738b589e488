"""Coefficient families, their block matrices and partition trace sums.

A family assigns an alpha x alpha complex matrix to each length-d index
tuple over a finite alphabet {1..r}.  Splitting the tuple after l slots
arranges the family into a block matrix M_l; its Schatten powers are plain
traces of matrix powers.  The central quantity is the trace sum of a
partition: one free index per block, and the 2m groups of d positions
contribute alternately the family and the conjugate-transpose of the
index-reversed family.  The sums are evaluated as tensor contractions, one
einsum per partition; for star families the block phases join the letters
in a doubled alphabet of size 2r, so they too take one einsum per partition.
Every moment is one weighted sum (`_weighted_sum`) of such trace sums over a
partition family.  Operator norms are exact dense SVD norms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict

import numpy as np

from .partitions import Partition
from .symmetry import GridShape
from .families import enumerate_ncstar, enumerate_ncdm
from .cumulants import (
    CumulantSpec,
    c_norm_2,
    c_norm_2m,
    c_operator_norm,
    holo_word,
    kappa_pi,
    plain_word,
    rdiag_block_weight,
)

ASSIGNMENT_CAP = 10_000_000
DIMENSION_CAP = 4096
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _as_matrix(value, alpha: int) -> np.ndarray:
    mat = np.asarray(value, dtype=complex)
    if mat.shape == () and alpha == 1:
        mat = mat.reshape(1, 1)
    if mat.shape != (alpha, alpha):
        raise ValueError("entry has shape %r, expected (%d, %d)" % (mat.shape, alpha, alpha))
    return mat


class CoefficientFamily:
    """Finitely supported map from {1..r}^d to alpha x alpha complex matrices."""

    def __init__(self, d: int, r: int, alpha: int, entries: Dict[tuple, object]):
        if d < 1 or r < 1 or alpha < 1:
            raise ValueError("need d, r, alpha >= 1")
        self.d = d
        self.r = r
        self.alpha = alpha
        self.entries = {}
        for key, value in entries.items():
            key = tuple(key)
            if len(key) != d or not all(1 <= k <= r for k in key):
                raise ValueError("bad index tuple %r" % (key,))
            self.entries[key] = _as_matrix(value, alpha)
        self._dense = None

    def dense(self) -> np.ndarray:
        """Tensor of shape (r,)*d + (alpha, alpha); absent entries are zero."""
        if self._dense is None:
            t = np.zeros((self.r,) * self.d + (self.alpha, self.alpha), dtype=complex)
            for key, mat in self.entries.items():
                t[tuple(k - 1 for k in key)] = mat
            self._dense = t
        return self._dense

    def frobenius_sq(self) -> float:
        return float(sum(np.sum(np.abs(m) ** 2) for m in self.entries.values()))

    def __repr__(self) -> str:
        return "CoefficientFamily(d=%d, r=%d, alpha=%d, support=%d)" % (
            self.d, self.r, self.alpha, len(self.entries))


class StarCoefficientFamily:
    """Family indexed by ({1..r} x {1,*})^d, supported on tuples where equal
    neighbouring indices carry equal stars."""

    def __init__(self, d: int, r: int, alpha: int, entries: Dict[tuple, object]):
        if d < 1 or r < 1 or alpha < 1:
            raise ValueError("need d, r, alpha >= 1")
        self.d = d
        self.r = r
        self.alpha = alpha
        self.entries = {}
        for key, value in entries.items():
            idx, stars = tuple(key[0]), tuple(key[1])
            if len(idx) != d or not all(1 <= k <= r for k in idx):
                raise ValueError("bad index tuple %r" % (idx,))
            if len(stars) != d or not all(s in (False, True) for s in stars):
                raise ValueError("bad star tuple %r" % (stars,))
            if not _in_reduced_support(idx, stars):
                raise ValueError(
                    "support point %r violates the reduced-word condition" % ((idx, stars),))
            self.entries[(idx, stars)] = _as_matrix(value, alpha)
        self._dense = None

    def dense(self) -> np.ndarray:
        """Tensor of shape (r,)*d + (2,)*d + (alpha, alpha); star axis 1 means starred."""
        if self._dense is None:
            t = np.zeros((self.r,) * self.d + (2,) * self.d + (self.alpha, self.alpha),
                         dtype=complex)
            for (idx, stars), mat in self.entries.items():
                t[tuple(k - 1 for k in idx) + tuple(int(s) for s in stars)] = mat
            self._dense = t
        return self._dense

    def __repr__(self) -> str:
        return "StarCoefficientFamily(d=%d, r=%d, alpha=%d, support=%d)" % (
            self.d, self.r, self.alpha, len(self.entries))


def _in_reduced_support(idx: tuple, stars: tuple) -> bool:
    return all(not (idx[i] == idx[i + 1] and stars[i] != stars[i + 1])
               for i in range(len(idx) - 1))


def flip(a: CoefficientFamily) -> CoefficientFamily:
    """Index-reversed family; an involution."""
    return CoefficientFamily(
        a.d, a.r, a.alpha, {key[::-1]: mat for key, mat in a.entries.items()})


@dataclass
class BlockMatrixView:
    """Dense block matrix for the split {1..r}^d = {1..r}^l x {1..r}^{d-l}."""

    l: int
    matrix: np.ndarray


def build_Ml(a: CoefficientFamily, l: int) -> BlockMatrixView:
    """Rows over {1..r}^l x {1..alpha}, columns over the remaining slots."""
    if not 0 <= l <= a.d:
        raise ValueError("split %d outside 0..%d" % (l, a.d))
    rows = a.r ** l * a.alpha
    cols = a.r ** (a.d - l) * a.alpha
    if max(rows, cols) > DIMENSION_CAP:
        raise ValueError("block matrix dimension exceeds cap %d" % DIMENSION_CAP)
    t = a.dense()
    # axes (k_1..k_d, i, j) -> (k_1..k_l, i, k_{l+1}..k_d, j)
    perm = tuple(range(l)) + (a.d,) + tuple(range(l, a.d)) + (a.d + 1,)
    return BlockMatrixView(l, np.ascontiguousarray(t.transpose(perm).reshape(rows, cols)))


def build_Ml_star(a: StarCoefficientFamily, l: int) -> BlockMatrixView:
    """Block matrix over the doubled alphabet {1..r} x {1,*}."""
    if not 0 <= l <= a.d:
        raise ValueError("split %d outside 0..%d" % (l, a.d))
    rows = (2 * a.r) ** l * a.alpha
    cols = (2 * a.r) ** (a.d - l) * a.alpha
    if max(rows, cols) > DIMENSION_CAP:
        raise ValueError("block matrix dimension exceeds cap %d" % DIMENSION_CAP)
    t = a.dense()
    d = a.d
    # interleave each index axis with its star axis, then split after l slots
    perm = []
    for o in range(d):
        perm.extend([o, d + o])
    perm = tuple(perm[: 2 * l]) + (2 * d,) + tuple(perm[2 * l:]) + (2 * d + 1,)
    return BlockMatrixView(l, np.ascontiguousarray(t.transpose(perm).reshape(rows, cols)))


def _matrix_of(M) -> np.ndarray:
    return M.matrix if isinstance(M, BlockMatrixView) else np.asarray(M)


def schatten_pow(M, m: int) -> float:
    """Tr((M^* M)^m), by repeated matrix multiplication."""
    if m < 1:
        raise ValueError("need m >= 1")
    mat = _matrix_of(M)
    gram = mat.conj().T @ mat
    power = gram
    for _ in range(m - 1):
        power = power @ gram
    return float(power.trace().real)


def schatten_norm(M, m: int) -> float:
    """The 2m-norm: Tr((M^* M)^m)^(1/2m)."""
    return schatten_pow(M, m) ** (1.0 / (2 * m))


# ---------------------------------------------------------------------------
# partition trace sums


def _grid_of(a, p: Partition) -> GridShape:
    if p.n % (2 * a.d) != 0:
        raise ValueError("ground size %d is not 2*d*m for d=%d" % (p.n, a.d))
    return GridShape(a.d, p.n // (2 * a.d))


def _check_assignment_cap(a, p: Partition, cap: int) -> None:
    if a.r ** p.num_blocks > cap:
        raise ValueError(
            "assignment count %d^%d exceeds cap %d" % (a.r, p.num_blocks, cap))


def _tilde_star_tensor(t: np.ndarray, d: int) -> np.ndarray:
    # entry [k, i, j] = conj(t[reversed k, j, i])
    perm = tuple(range(d - 1, -1, -1)) + (d + 1, d)
    return t.transpose(perm).conj()


def _contract(p: Partition, d: int, m: int, tensor_of) -> complex:
    """One einsum over the block indices of p: group j (positions jd+1..jd+d)
    contributes tensor_of(j), subscripted by the blocks of its positions and
    by two matrix indices that chain the 2m groups into one trace."""
    nb = p.num_blocks
    operands = []
    for j in range(2 * m):
        subs = [p.block_id(j * d + o + 1) for o in range(d)]
        subs += [nb + j, nb + (j + 1) % (2 * m)]
        operands.extend([tensor_of(j), subs])
    return complex(np.einsum(*operands, [], optimize=True))


def trace_sum_complex(a: CoefficientFamily, p: Partition, cap: int = ASSIGNMENT_CAP) -> complex:
    """Trace sum of a partition: one alphabet value per block, groups of d
    positions contributing a, then the conjugate-transposed reversed family,
    alternately around the trace."""
    g = _grid_of(a, p)
    _check_assignment_cap(a, p, cap)
    odd_t = a.dense()
    even_t = _tilde_star_tensor(odd_t, g.d)
    return _contract(p, g.d, g.m, lambda j: even_t if j % 2 else odd_t)


def trace_sum(a: CoefficientFamily, p: Partition, cap: int = ASSIGNMENT_CAP) -> float:
    """Real part of the trace sum; the residual imaginary part is available
    from trace_sum_complex and must vanish for mirror-symmetric partitions."""
    return trace_sum_complex(a, p, cap=cap).real


def trace_sum_star_complex(a: StarCoefficientFamily, p: Partition,
                           cap: int = ASSIGNMENT_CAP) -> complex:
    """Star variant: blocks additionally carry one of two alternating star
    phases, and even groups contribute the conjugate-transposed family with
    indices reversed and stars conjugated.

    Each block gets one index (letter k, phase e) over the doubled alphabet
    of size 2r, so the sum over letters and phases is a single contraction.
    The position of rank q in its block (counted from 0 in position order)
    carries the star bit e XOR (q mod 2): a group's tensor has the star axes
    of its odd-rank positions flipped, and each (index, star) axis pair merged
    into one axis k * 2 + e.  At most 2 * 2^d such tensors are built per call.
    """
    g = _grid_of(a, p)
    if any(len(b) % 2 for b in p.blocks):
        raise ValueError("star trace sums need even blocks")
    if (2 * a.r) ** p.num_blocks > cap:
        raise ValueError("assignment count exceeds cap %d" % cap)
    d = g.d
    t = a.dense()
    # [k, e, i, j] = conj(t[rev k, rev(1-e), j, i])
    perm = tuple(range(d - 1, -1, -1)) + tuple(range(2 * d - 1, d - 1, -1)) + (2 * d + 1, 2 * d)
    even_t = np.flip(t.transpose(perm), axis=tuple(range(d, 2 * d))).conj()
    # (k_1..k_d, e_1..e_d, i, j) -> (k_1, e_1, .., k_d, e_d, i, j)
    interleave = tuple(x for o in range(d) for x in (o, d + o)) + (2 * d, 2 * d + 1)
    shape = (2 * a.r,) * d + (a.alpha, a.alpha)
    odd_rank = [0] * p.n
    for b in p.blocks:
        for pos in b[1::2]:
            odd_rank[pos - 1] = 1

    doubled = {}

    def tensor_of(j: int) -> np.ndarray:
        flips = tuple(d + o for o in range(d) if odd_rank[j * d + o])
        key = (j % 2, flips)
        if key not in doubled:
            base = np.flip(even_t if j % 2 else t, axis=flips)
            doubled[key] = base.transpose(interleave).reshape(shape)
        return doubled[key]

    return _contract(p, d, g.m, tensor_of)


def trace_sum_star(a: StarCoefficientFamily, p: Partition, cap: int = ASSIGNMENT_CAP) -> float:
    return trace_sum_star_complex(a, p, cap=cap).real


# ---------------------------------------------------------------------------
# exact even-power norms via cumulant sums


@lru_cache(maxsize=None)
def _star_members(d: int, m: int) -> tuple:
    return tuple(enumerate_ncstar(GridShape(d, m)))


@lru_cache(maxsize=None)
def _interval_members(d: int, m: int) -> tuple:
    return tuple(enumerate_ncdm(GridShape(d, m)))


def _real_part(total: complex, what: str) -> float:
    bound = max(ABS_TOL, REL_TOL * abs(total.real))
    if abs(total.imag) > bound:
        raise ArithmeticError("%s has imaginary residual %g" % (what, total.imag))
    return total.real


def _weighted_sum(members, weight_of, trace_of) -> complex:
    """Sum of weight_of(p) * trace_of(p) over the members of nonzero weight."""
    total = 0j
    for p in members:
        weight = weight_of(p)
        if weight:
            total += weight * trace_of(p)
    return total


def holo_moment(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """The 2m-th moment power: cumulant-weighted trace sums over the star family."""
    word = holo_word(a.d, m)
    total = _weighted_sum(_star_members(a.d, m), lambda p: kappa_pi(spec, p, word),
                          lambda p: trace_sum_complex(a, p))
    value = _real_part(total, "moment sum")
    if value < -ABS_TOL * max(1.0, a.frobenius_sq() ** m):
        raise ArithmeticError("norm power is negative: %g" % value)
    return max(value, 0.0)


def holo_norm_2m(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """Exact 2m-norm of sum_k a_k (x) c_{k_1}..c_{k_d} for R-diagonal presets."""
    return holo_moment(a, spec, m) ** (1.0 / (2 * m))


def ml_norms(a, m: int = None) -> list:
    """All d+1 block-matrix norms; Schatten 2m for integer m, operator norm
    (dense SVD) when m is None."""
    build = build_Ml_star if isinstance(a, StarCoefficientFamily) else build_Ml
    mats = [build(a, l) for l in range(a.d + 1)]
    if m is None:
        return [operator_norm(M.matrix) for M in mats]
    return [schatten_norm(M, m) for M in mats]


def holo_rhs_bound(a, spec: CumulantSpec, m: int = None) -> float:
    """Right-hand side of the even-power (or operator-norm, m=None) bound.

    Circular operators need no constant: e * sqrt(1 + d/m) times the l2
    combination of the block-matrix norms.  General R-diagonal operators
    carry the extra factor 4^5 ||c||_2^(d-2) ||c||_{2m}^2 (operator norm of c
    in the m=None form, where sqrt(e) replaces e*sqrt(1+d/m)).
    """
    d = a.d
    norms = ml_norms(a, m)
    ell2 = math.sqrt(sum(x * x for x in norms))
    if m is None:
        base = math.sqrt(math.e) * ell2
        if spec.kind == "circular":
            return base
        return 4 ** 5 * c_norm_2(spec) ** (d - 2) * c_operator_norm(spec) ** 2 * base
    base = math.e * math.sqrt(1 + d / m) * ell2
    if spec.kind == "circular":
        return base
    return 4 ** 5 * c_norm_2(spec) ** (d - 2) * c_norm_2m(spec, m) ** 2 * base


def _check_adjacent_support(a: CoefficientFamily) -> None:
    for key, mat in a.entries.items():
        if np.any(mat) and any(key[i] == key[i + 1] for i in range(a.d - 1)):
            raise ValueError(
                "family must vanish on tuples with equal neighbouring indices; "
                "offending tuple %r" % (key,))


def nonholo_moment(a, spec: CumulantSpec, m: int) -> float:
    """The 2m-th moment power over the interval-avoiding family.

    Self-adjoint presets pair with a plain family vanishing on tuples with
    equal neighbours; R-diagonal presets pair with a star family supported
    on reduced words.
    """
    if isinstance(a, StarCoefficientFamily):
        total = _weighted_sum(_interval_members(a.d, m), lambda p: rdiag_block_weight(spec, p),
                              lambda p: trace_sum_star_complex(a, p))
    else:
        if spec.kind not in ("semicircle", "star_table"):
            raise ValueError("plain families pair with self-adjoint presets")
        _check_adjacent_support(a)
        word = plain_word(2 * a.d * m)
        total = _weighted_sum(_interval_members(a.d, m), lambda p: kappa_pi(spec, p, word),
                              lambda p: trace_sum_complex(a, p))
    value = _real_part(total, "moment sum")
    return max(value, 0.0)


def nonholo_norm_2m(a, spec: CumulantSpec, m: int) -> float:
    return nonholo_moment(a, spec, m) ** (1.0 / (2 * m))


def nonholo_rhs_bound(a, spec: CumulantSpec, m: int = None) -> float:
    """4^5 ||c||_p^2 ||c||_2^(d-2) (d+1) max_l ||M_l||_p for p = 2m or infinity."""
    d = a.d
    norms = ml_norms(a, m)
    cp = c_operator_norm(spec) if m is None else c_norm_2m(spec, m)
    return 4 ** 5 * cp ** 2 * c_norm_2(spec) ** (d - 2) * (d + 1) * max(norms)


# ---------------------------------------------------------------------------
# operator norms


def operator_norm(M) -> float:
    """Largest singular value, computed exactly by a dense SVD."""
    return float(np.linalg.norm(_matrix_of(M), 2))


# ---------------------------------------------------------------------------
# the prime-alphabet example family


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_family(p: int, d: int) -> CoefficientFamily:
    """Scalar family exp(2 i pi k_1 ... k_d / p) over the alphabet {1..p}."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    entries = {}
    for key in product(range(1, p + 1), repeat=d):
        prod = 1
        for k in key:
            prod = (prod * k) % p
        entries[key] = [[cmath.exp(2j * cmath.pi * prod / p)]]
    return CoefficientFamily(d, p, 1, entries)


def prime_family_gram(p: int, d: int, l: int) -> np.ndarray:
    """Closed form of M_l M_l^* for the prime family, 1 <= l <= d-1.

    Off the congruence class of products the geometric sums collapse to
    p^{d-l} - p(p-1)^{d-l-1}; on it they give p^{d-l}.
    """
    if not 1 <= l <= d - 1:
        raise ValueError("closed form needs 1 <= l <= d-1")
    size = p ** l
    base = p ** (d - l) - p * (p - 1) ** (d - l - 1)
    bump = p * (p - 1) ** (d - l - 1)
    prods = []
    for s in product(range(1, p + 1), repeat=l):
        acc = 1
        for x in s:
            acc = (acc * x) % p
        prods.append(acc)
    gram = np.full((size, size), float(base), dtype=complex)
    for i in range(size):
        for j in range(size):
            if prods[i] == prods[j]:
                gram[i, j] += bump
    return gram


# ---------------------------------------------------------------------------
# reproducible random families


def random_family(d: int, r: int, alpha: int, rng: np.random.Generator) -> CoefficientFamily:
    """Full support, entries uniform in [-1,1] + i[-1,1] componentwise."""
    entries = {}
    for key in product(range(1, r + 1), repeat=d):
        entries[key] = rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))
    return CoefficientFamily(d, r, alpha, entries)


def random_adjacent_distinct_family(d: int, r: int, alpha: int,
                                    rng: np.random.Generator) -> CoefficientFamily:
    """Support restricted to tuples with no equal neighbouring indices."""
    entries = {}
    for key in product(range(1, r + 1), repeat=d):
        if any(key[i] == key[i + 1] for i in range(d - 1)):
            continue
        entries[key] = rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))
    return CoefficientFamily(d, r, alpha, entries)


def random_star_family(d: int, r: int, alpha: int,
                       rng: np.random.Generator) -> StarCoefficientFamily:
    """Full reduced-word support over the doubled alphabet."""
    entries = {}
    for idx in product(range(1, r + 1), repeat=d):
        for stars in product((False, True), repeat=d):
            if _in_reduced_support(idx, stars):
                entries[(idx, stars)] = (rng.uniform(-1, 1, (alpha, alpha))
                                         + 1j * rng.uniform(-1, 1, (alpha, alpha)))
    return StarCoefficientFamily(d, r, alpha, entries)


# ---------------------------------------------------------------------------
# text format: header "d r alpha [star]", one support point per record


def save_family(a, path: str) -> None:
    star = isinstance(a, StarCoefficientFamily)
    with open(path, "w") as fh:
        fh.write("%d %d %d%s\n" % (a.d, a.r, a.alpha, " star" if star else ""))
        for key in sorted(a.entries):
            mat = a.entries[key]
            if star:
                idx, stars = key
                head = " ".join(str(k) for k in idx)
                head += " " + "".join("*" if s else "1" for s in stars)
            else:
                head = " ".join(str(k) for k in key)
            cells = " ".join("%.17g,%.17g" % (z.real, z.imag) for z in mat.flatten())
            fh.write("%s %s\n" % (head, cells))


def _parse_record(toks: list, d: int, alpha: int, star: bool):
    """(support key, matrix) of one support-point record, split into tokens."""
    width = d + (1 if star else 0) + alpha * alpha
    if len(toks) != width:
        raise ValueError("expected %d tokens, got %d" % (width, len(toks)))
    key = tuple(int(t) for t in toks[:d])
    if star:
        pattern = toks[d]
        if any(ch not in "1*" for ch in pattern):
            raise ValueError("bad star pattern %r" % pattern)
        key = (key, tuple(ch == "*" for ch in pattern))
    values = []
    for cell in toks[width - alpha * alpha:]:
        parts = cell.split(",")
        if len(parts) != 2:
            raise ValueError("cell %r is not re,im" % cell)
        z = complex(float(parts[0]), float(parts[1]))
        if not cmath.isfinite(z):
            raise ValueError("cell %r is not finite" % cell)
        values.append(z)
    return key, np.array(values, dtype=complex).reshape(alpha, alpha)


def load_family(path: str):
    """Read the text format of save_family.

    Raises ValueError, naming the line, on a malformed header or record, a
    non-finite cell or a repeated support point. Each record is checked by
    the family constructor on its own, so range and reduced-word errors name
    their line too.
    """
    with open(path) as fh:
        stripped = [(no, ln.strip()) for no, ln in enumerate(fh, 1)]
    lines = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty family file %s" % path)
    head_no, head_line = lines[0]
    head = head_line.split()
    star = head[3:] == ["star"]
    cls = StarCoefficientFamily if star else CoefficientFamily
    try:
        if len(head) != (4 if star else 3):
            raise ValueError("bad header %r" % head_line)
        d, r, alpha = (int(t) for t in head[:3])
        cls(d, r, alpha, {})
    except ValueError as exc:
        raise ValueError("%s line %d: %s" % (path, head_no, exc)) from None
    entries = {}
    first_seen = {}
    for no, line in lines[1:]:
        try:
            key, mat = _parse_record(line.split(), d, alpha, star)
            cls(d, r, alpha, {key: mat})
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, no, exc)) from None
        if key in entries:
            raise ValueError("%s line %d: support point repeats line %d"
                             % (path, no, first_seen[key]))
        entries[key] = mat
        first_seen[key] = no
    return cls(d, r, alpha, entries)
