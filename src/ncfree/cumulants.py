"""Free cumulants of preset operator types, evaluated over partitions.

A cumulant functional is multiplicative over the blocks of a non-crossing
partition; a moment is the sum of the functional over all non-crossing
partitions of the word positions.  The presets cover the circular element,
the Haar unitary, the standard semicircular element, a general alternating
determining sequence and a raw table hook.  Letters of a word are pairs
(alphabet index, starred?); mixed indices inside a block kill the block, so
freeness is built in.

Moments of one-index words are not enumerated.  Any such word of the
semicircle, and the alternating words c c* c c* ... (either start) of the
R-diagonal presets (circular, haar, rdiag), take exact closed recursions:
the free cumulants of c c* are the NC(n) sums of prod_V alpha_|V| (Nica and
Speicher, Lectures on the Combinatorics of Free Probability, lecture 15), and
a one-variable NC sum follows the first-block recursion
m_n = sum_s kappa_s [z^(n-s)] M(z)^s.  Odd alternating words give 0.  The
Haar unitary's determining sequence is the closed form
alpha_n = (-1)^(n-1) C_(n-1) (same lecture); inverting its moments, all 1,
with determining_sequence_from_moments is the independent check.  Words
with mixed indices, R-diagonal words whose stars do not alternate and the
star_table hook are summed over NC(n), the only capped step (the constant
partitions.NC_ENUMERATION_CAP).
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Sequence, Tuple

from .partitions import Partition, enumerate_nc

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
    """Block-cumulant evaluator for one operator type."""

    def __init__(self, kind: str, alphas: Sequence = (), table: Callable = None,
                 cyclic_alternation: bool = True):
        if kind not in ("circular", "haar", "semicircle", "rdiag", "star_table"):
            raise ValueError("unknown cumulant kind %r" % kind)
        self.kind = kind
        self._alphas = tuple(alphas)
        self._table = table
        self.cyclic_alternation = cyclic_alternation

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
        return cls("star_table", table=table)

    @classmethod
    def from_name(cls, name: str) -> "CumulantSpec":
        """Parse CLI spellings: circular, haar, semicircle, rdiag:1,-0.5,..."""
        if name == "circular":
            return cls.circular()
        if name == "haar":
            return cls.haar_unitary()
        if name == "semicircle":
            return cls.semicircular()
        if name.startswith("rdiag:"):
            try:  # float("") raises too, so no empty value slips through
                alphas = [float(tok) for tok in name[len("rdiag:"):].split(",")]
            except ValueError:
                raise ValueError("%s has an empty or unparsable value" % name) from None
            if not all(map(math.isfinite, alphas)):
                raise ValueError("%s has a non-finite value" % name)
            return cls.r_diagonal(alphas)
        raise ValueError("unknown spec name %r" % name)

    def __repr__(self) -> str:
        return "CumulantSpec(%r)" % self.kind

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
    star_table hook) enumerates NC(n), which raises ValueError past
    NC_ENUMERATION_CAP.
    """
    word = tuple(word)
    value = _one_index_moment(spec, word)
    if value is not None:
        return value
    total = 0
    for p in enumerate_nc(len(word)):
        total += kappa_pi(spec, p, word)
    return total


def _one_index_moment(spec: CumulantSpec, word: tuple):
    """The NC sum of `word` by recursion, or None when it must be enumerated."""
    if spec.kind == "star_table" or len({idx for idx, _ in word}) != 1:
        return None
    n = len(word)
    if spec.kind == "semicircle":  # its block values ignore the stars
        return _free_moments((0, 1), n)[n]
    stars = [star for _, star in word]
    if any(x == y for x, y in zip(stars, stars[1:])):
        return None
    if n % 2:  # every partition has an odd block
        return 0
    return _rdiag_moment(spec.determining(n // 2), n // 2)


def _free_moments(kappas: Sequence, n: int) -> list:
    """Moments m_0..m_n of one variable with free cumulants kappas[s-1] = kappa_s.

    m_k = sum_s kappa_s [z^(k-s)] M(z)^s with M(z) = sum_j m_j z^j, where
    powers[s][j] = [z^j] M(z)^s needs only moments found before m_k, so the
    pass is triangular.  Powers past the last nonzero cumulant kappa_top are
    never weighed, so they are not built: the pass is O(n^2 top).  Zero
    factors are skipped: a sum without a nonzero term stays the int 0, as
    the NC sum it replaces does.
    """
    top = max((s for s, kappa in enumerate(kappas[:n], start=1) if kappa), default=0)
    moments = [1]
    powers = [[1] + [0] * n]
    for k in range(1, n + 1):
        powers.append([])
        total = 0
        for s in range(1, min(k, top) + 1):
            j = k - s
            lower = powers[s - 1]
            coeff = sum(moments[i] * lower[j - i] for i in range(j + 1)
                        if moments[i] and lower[j - i])
            powers[s].append(coeff)
            if coeff and s <= len(kappas) and kappas[s - 1]:
                total += kappas[s - 1] * coeff
        moments.append(total)
    return moments


def _rdiag_moment(alphas: Sequence, n: int):
    """phi((c c*)^n) of an R-diagonal c with determining sequence alphas.

    The free cumulants of c c* are the moments of a variable whose free
    cumulants are the alphas; the moments of c c* follow from them.
    """
    return _free_moments(_free_moments(alphas, n)[1:], n)[n]


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
    """
    value = c_moment_2m(spec, m)
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
