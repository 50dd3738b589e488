"""Free cumulants of preset operator types, evaluated over partitions.

A cumulant functional is multiplicative over the blocks of a non-crossing
partition; a moment is the sum of the functional over all non-crossing
partitions of the word positions.  The presets cover the circular element,
the Haar unitary, the standard semicircular element, a general alternating
determining sequence and a raw table hook.  Letters of a word are pairs
(alphabet index, starred?); mixed indices inside a block kill the block, so
freeness is built in.

Moments of one-index words are not enumerated.  Those of the semicircle,
alpha = (1,), and of the alternating words (c c* c ... or c* c c* ...) of
the R-diagonal presets are, at length 2n, the 2n-th moment of the even
variable with free cumulants kappa_2s = alpha_s (Nica and Speicher, Lectures
on the Combinatorics of Free Probability, lecture 15), by the first-block
recursion m_n = sum_s kappa_s [z^(n-s)] M(z)^s.  Odd words give 0 and Haar's
even ones 1 (u u* = 1); determining_sequence_from_moments inverts these
through the recursion, checking alpha_n = (-1)^(n-1) C_(n-1).  Words
with mixed indices, R-diagonal words whose stars do not alternate and the
star_table hook are summed over the members of NC(n) whose blocks all carry
a nonzero cumulant (_kappa_support), the only capped step (the constant
partitions.NC_ENUMERATION_CAP).
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from typing import Callable, Iterator, Sequence, Tuple

from .partitions import NC_ENUMERATION_CAP, Partition, enumerate_nc_constrained

Letter = Tuple[int, bool]


def plain_word(n: int, index: int = 1) -> tuple:
    """n unstarred letters of one index (self-adjoint usage)."""
    return tuple((index, False) for _ in range(n))


def alternating_word(n: int, index: int = 1) -> tuple:
    """Letters c, c*, c, c*, ... of length n."""
    return tuple((index, i % 2 == 1) for i in range(n))


def holo_word(d: int, m: int, index: int = 1) -> tuple:
    """2m groups of d letters, starred on even groups."""
    out = []
    for group in range(1, 2 * m + 1):
        out.extend((index, group % 2 == 0) for _ in range(d))
    return tuple(out)


class CumulantSpec:
    """Block-cumulant evaluator for one operator type.

    `name` is the spelling that from_name parsed (rdiag:1,-3 stays as it
    was written), else the name of its values as they were read.
    """

    def __init__(self, kind: str, alphas: Sequence = (), table: Callable = None,
                 cyclic_alternation: bool = True):
        if kind not in ("circular", "haar", "semicircle", "rdiag", "star_table"):
            raise ValueError("unknown cumulant kind %r" % kind)
        self.kind = kind
        self._alphas = tuple(alphas)
        self._table = table
        self.cyclic_alternation = cyclic_alternation
        self._parsed = kind + (":" + ",".join(map(str, self._alphas)) if kind == "rdiag" else "")
        self.name = self._parsed

    def described(self) -> str:
        """The name as it was spelled, and as its values were read where that differs."""
        return self.name + ("" if self._parsed == self.name else " (read as %s)" % self._parsed)

    # -- factories ---------------------------------------------------------

    @classmethod
    def circular(cls) -> "CumulantSpec":
        return cls("circular", alphas=[1])

    @classmethod
    def haar_unitary(cls) -> "CumulantSpec":
        return cls("haar")

    @classmethod
    def semicircular(cls) -> "CumulantSpec":
        return cls("semicircle")

    @classmethod
    def r_diagonal(cls, alphas: Sequence) -> "CumulantSpec":
        """Raises ValueError, naming the spec, on a NaN or infinite value."""
        alphas = list(alphas)
        # x == x rejects NaN; the comparison with inf also takes Fractions
        # and integers past the float range
        if not all(x == x and abs(x) != math.inf for x in alphas):
            raise ValueError("rdiag:%s has a non-finite value" % ",".join(map(str, alphas)))
        return cls("rdiag", alphas=alphas)

    @classmethod
    def star_table(cls, table: Callable) -> "CumulantSpec":
        """A spec whose block value is table(pattern), the star pattern of a
        one-index block in element order.

        The table must be a pure function of the pattern: enumerated moments
        call it once for every candidate block of each segment, mixed-index
        blocks aside, and keep each segment's choices for reuse (the
        brute-force oracle once per star pattern).  The planar
        recursion of matrices.planar_sum calls it once per even block size
        and first star bit, on the pattern that alternates from that bit (on
        the unstarred pattern alone in a plain family's plain word), and
        not on every call: once per table, ring size dm and word in a
        process, while matrices._weight_table keeps the values.
        """
        return cls("star_table", table=table)

    @classmethod
    def from_name(cls, name: str) -> "CumulantSpec":
        """Parse CLI spellings: circular, haar, semicircle, rdiag:1,-0.5,..."""
        presets = {"circular": cls.circular, "haar": cls.haar_unitary,
                   "semicircle": cls.semicircular}
        if name in presets:
            return presets[name]()
        if not name.startswith("rdiag:"):
            raise ValueError("unknown spec name %r" % name)
        try:  # float("") raises too, so no empty value slips through
            alphas = [float(tok) for tok in name[len("rdiag:"):].split(",")]
        except ValueError:
            raise ValueError("%s has an empty or unparsable value" % name) from None
        if not all(map(math.isfinite, alphas)):
            raise ValueError("%s has a non-finite value" % name)
        spec = cls.r_diagonal(alphas)
        spec.name = name
        return spec

    def __repr__(self) -> str:
        return "CumulantSpec(%r)" % self.name

    # -- determining sequence ----------------------------------------------

    def determining(self, nmax: int) -> tuple:
        """Alternating cumulant values alpha_1..alpha_nmax."""
        if self.kind not in ("circular", "haar", "rdiag"):
            raise ValueError("kind %r has no determining sequence" % self.kind)
        return tuple(self._alpha(n) for n in range(1, nmax + 1))

    def _alpha(self, n: int):
        """alpha_n: (-1)^(n-1) C_(n-1) for Haar, else the stored value (0 past
        its end); one value costs no more than reading it from a table."""
        if self.kind == "haar":
            return (-1) ** (n - 1) * (math.comb(2 * n - 2, n - 1) // n)
        return self._alphas[n - 1] if n <= len(self._alphas) else 0

    # -- block values --------------------------------------------------------

    def _pattern_alternates(self, pattern: tuple) -> bool:
        pairs = zip(pattern, pattern[1:] + (pattern[0],)) if self.cyclic_alternation \
            else zip(pattern, pattern[1:])
        return all(x != y for x, y in pairs)

    def block_value(self, pattern: tuple):
        """Cumulant of one block given its star pattern, in element order."""
        size = len(pattern)
        if self.kind == "semicircle":
            return 1 if size == 2 else 0
        if self.kind == "star_table":
            return self._table(pattern)
        if size % 2 or not self._pattern_alternates(pattern):
            return 0
        return self._alpha(size // 2)


def kappa_pi(spec: CumulantSpec, p: Partition, word: Sequence[Letter]):
    """Multiplicative extension over the blocks of p; 0 on mixed indices."""
    if len(word) != p.n:
        raise ValueError("word length %d does not match ground size %d" % (len(word), p.n))
    value = 1
    for b in p.blocks:
        letters = [word[i - 1] for i in b]
        if len({idx for idx, _ in letters}) > 1:
            return 0
        value *= spec.block_value(tuple(star for _, star in letters))
        if value == 0:
            return 0
    return value


def _kappa_support(spec: CumulantSpec, word: Sequence[Letter]) -> Iterator[Partition]:
    """The members of NC(len(word)) on which kappa_pi can be nonzero, each
    once and in enumerate_nc's order.

    A block grows only by letters of its first letter's index and is kept
    only where spec.block_value of its star pattern is nonzero; every other
    member has a zero factor, so kappa_pi would weigh it 0.  A member whose
    nonzero block values multiply to a float 0 (underflow) is still yielded,
    and kappa_pi weighs it 0.  Raises ValueError, when called, for a length
    outside 1..NC_ENUMERATION_CAP.
    """
    n = len(word)
    if not 1 <= n <= NC_ENUMERATION_CAP:
        raise ValueError("ground size %d outside 1..%d" % (n, NC_ENUMERATION_CAP))
    index = [None] + [idx for idx, _ in word]
    star = [None] + [st for _, st in word]

    def extend_ok(block: tuple, cand: int) -> bool:
        return index[cand] == index[block[0]]

    def complete_ok(block: tuple) -> bool:
        return spec.block_value(tuple(star[i] for i in block)) != 0

    return enumerate_nc_constrained(n, extend_ok, complete_ok)


def _stored_block_values(spec: CumulantSpec) -> CumulantSpec:
    """A copy of spec whose block_value computes the value of each star
    pattern once and keeps it in a cache of the copy's own, so that
    _kappa_support and kappa_pi share it over one enumerated sum."""
    stored = copy.copy(spec)
    stored.block_value = functools.cache(spec.block_value)
    return stored


class _ByValue:
    """A spec, hashed and compared by the values its block weights and norms
    read: its kind, its alphas with their types (an int and a float of equal
    value give norms that may differ in the last digit), its table and
    cyclic_alternation.  A memo keyed by it serves every equal spec and
    keeps no state on any; on a miss it reads the spec it was called with,
    so an error names that spec."""

    __slots__ = ("spec", "_key")

    def __init__(self, spec: CumulantSpec):
        self.spec = spec
        self._key = (spec.kind, tuple((type(x), x) for x in spec._alphas), spec._table,
                     spec.cyclic_alternation)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return self._key == other._key


@functools.lru_cache(maxsize=256)
def _kept_bound_norms(spec: _ByValue, m) -> tuple:
    return (c_operator_norm(spec.spec) if m is None else c_norm_2m(spec.spec, m),
            c_norm_2(spec.spec))


def bound_norms(spec: CumulantSpec, m) -> tuple:
    """(||c||_2m, or the operator norm of c when m is None, and ||c||_2), the
    norms of the R-diagonal bounds, computed once per spec value and m in a
    process.  Raises what c_norm_2m and c_operator_norm raise, every call."""
    return _kept_bound_norms(_ByValue(spec), m)


def rdiag_block_weight(spec: CumulantSpec, p: Partition):
    """Product of alternating cumulants alpha_{|V|/2} over the blocks of p.

    The star pattern is not inspected here; callers that sum over star
    assignments enforce alternation on their side.
    """
    if any(len(b) % 2 for b in p.blocks):
        raise ValueError("all blocks must be even")
    sizes = [len(b) // 2 for b in p.blocks]
    alphas = spec.determining(max(sizes))
    value = 1
    for s in sizes:
        value *= alphas[s - 1]
        if value == 0:
            return 0
    return value


def moment_from_cumulants(spec: CumulantSpec, word: Sequence[Letter]):
    """Mixed moment: the cumulant sum over all non-crossing partitions.

    One-index words of the semicircle, and alternating one-index words of
    the R-diagonal presets, are summed by closed recursion with no size
    limit.  Every other word (mixed indices, non-alternating stars, the
    star_table hook) is summed over the members of NC(n) that _kappa_support
    yields, the rest weighing 0, which raises ValueError past
    NC_ENUMERATION_CAP.
    """
    word = tuple(word)
    value = _one_index_moment(spec, word)
    if value is not None:
        return value
    total = 0
    for p in _kappa_support(spec, word):
        total += kappa_pi(spec, p, word)
    return total


def _one_index_moment(spec: CumulantSpec, word: tuple):
    """The NC sum of `word` by recursion, or None when it must be enumerated."""
    if spec.kind == "star_table" or len({idx for idx, _ in word}) != 1:
        return None
    n = len(word)
    # the semicircle's block values ignore the stars
    if spec.kind != "semicircle" and any(x[1] == y[1] for x, y in zip(word, word[1:])):
        return None
    if n % 2:  # every partition has an odd block
        return 0
    if spec.kind == "haar":  # u u* = 1
        return 1
    alphas = (1,) if spec.kind == "semicircle" else spec.determining(n // 2)
    return _rdiag_moment(alphas, n // 2)


def _free_moments(kappas: Sequence, n: int) -> list:
    """Moments m_0..m_n of one variable with free cumulants kappas[s-1] = kappa_s.

    m_k = sum_s kappa_s [z^(k-s)] M(z)^s with M(z) = sum_j m_j z^j, where
    powers[s][j] = [z^j] M(z)^s needs only moments found before m_k, so the
    pass is triangular.  Powers past the last nonzero cumulant kappa_top are
    never weighed, so they are not built: the pass is O(n^2 top).  Zero
    factors are skipped: a sum without a nonzero term stays the int 0, as
    the NC sum it replaces does.  When every odd cumulant is 0 the variable
    is even, so are M(z) and its powers, and their odd coefficients are the
    int 0 without a sum: only even terms are visited.
    """
    top = max((s for s, kappa in enumerate(kappas[:n], start=1) if kappa), default=0)
    step = 1 if any(kappas[:n:2]) else 2
    moments = [1]
    powers = [[1] + [0] * n]
    for k in range(1, n + 1):
        powers.append([])
        total = 0
        for s in range(1, min(k, top) + 1):
            j = k - s
            lower = powers[s - 1]
            coeff = 0 if j % step else sum(
                moments[i] * lower[j - i] for i in range(0, j + 1, step)
                if moments[i] and lower[j - i])
            powers[s].append(coeff)
            if coeff and s <= len(kappas) and kappas[s - 1]:
                total += kappas[s - 1] * coeff
        moments.append(total)
    return moments


def _rdiag_moment(alphas: Sequence, n: int):
    """phi((c c*)^n) of an R-diagonal c with determining sequence alphas.

    It is the 2n-th moment of the even variable with free cumulants
    kappa_2s = alpha_s: non-crossing blocks that are all even alternate c, c*.
    """
    return _free_moments([x for alpha in alphas[:n] for x in (0, alpha)], 2 * n)[2 * n]


def determining_sequence_from_moments(moments: Callable, nmax: int) -> tuple:
    """Recover alpha_1..alpha_nmax from alternating moments of lengths 2..2nmax.

    The conversion is triangular: alpha_n enters the length-2n moment only
    through its full-block term, with coefficient 1, so it is the moment
    minus the recursion value with alpha_n = 0.
    """
    alphas = []
    for n in range(1, nmax + 1):
        lower = _rdiag_moment(alphas + [0], n)
        alphas.append(moments(alternating_word(2 * n)) - lower)
    return tuple(alphas)


def cumulant_domination_bound(p: Partition, m2, mN):
    """Upper bound m2^(2K) (16 mN)^(n-2K) with K the number of pair blocks."""
    pairs = sum(1 for b in p.blocks if len(b) == 2)
    return (m2 ** (2 * pairs)) * ((16 * mN) ** (p.n - 2 * pairs))


# ---------------------------------------------------------------------------
# scalar norms of the underlying operator


def c_moment_2m(spec: CumulantSpec, m: int):
    """Moment of (c c*)^m (plain c^{2m} for the self-adjoint preset).

    Every preset takes the closed recursion, at any m; only the NC(2m) sum
    of a star_table spec is bounded, by NC_ENUMERATION_CAP.
    """
    if spec.kind == "semicircle":
        word = plain_word(2 * m)
    else:
        word = alternating_word(2 * m)
    return moment_from_cumulants(spec, word)


def c_norm_2m(spec: CumulantSpec, m: int) -> float:
    """The 2m-th root of c_moment_2m.

    A positive exact moment (an integer or a Fraction) is rooted through
    the logarithms of its numerator and denominator, so a moment past the
    float range still has a finite norm; a float moment is rooted as it is.
    Raises ArithmeticError on a negative moment, which no operator has,
    naming m and the spec as it was spelled and as its values were read.
    """
    value = c_moment_2m(spec, m)
    if value < 0:
        raise ArithmeticError("%s at m=%d: phi((c c*)^m) = %s is negative, so there is no "
                              "2m-norm" % (spec.described(), m, value))
    if isinstance(value, numbers.Rational) and value > 0:
        log = math.log(value.numerator) - math.log(value.denominator)
        return math.exp(log / (2 * m))
    return float(value) ** (1.0 / (2 * m))


def c_norm_2(spec: CumulantSpec) -> float:
    return c_norm_2m(spec, 1)


OPERATOR_NORMS = {"circular": 2.0, "haar": 1.0, "semicircle": 2.0}


def c_operator_norm(spec: CumulantSpec) -> float:
    """Operator norm of the preset operator (circular and semicircular have
    norm 2, a unitary has norm 1)."""
    try:
        return OPERATOR_NORMS[spec.kind]
    except KeyError:
        raise ValueError("no preset operator norm for kind %r" % spec.kind) from None
