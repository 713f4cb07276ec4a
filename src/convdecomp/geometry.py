"""Exact rational vectors, binary lattice points, and convex combinations.

Everything in this module is an immutable value over exact rationals, and no
operation rounds.  These are the carriers for the whole pipeline: targets and
residuals are rational vectors, solution candidates are 0/1 points, and
distributions over candidates are convex combinations whose weights sum to
exactly 1 as a rational identity.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, repeat
from typing import Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .errors import DimensionMismatch

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_BIT_VALUES = frozenset((0, 1))


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or integer, decimal or "p/q" string to a Fraction.

    Floats are rejected on purpose: converting one silently would smuggle
    rounding into a pipeline that promises bit-exact results.  Booleans are
    rejected too, although Python counts them as ints: a JSON ``true`` is
    not a number.  Strings in exponent notation are rejected because
    ``Fraction`` expands the power: an 11-byte ``"1e999999999"`` would take
    practically forever.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to convert float {value!r}; pass an exact rational")
    if isinstance(value, bool):
        raise TypeError(f"refusing to convert bool {value!r}; pass an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(
                f"exponent notation is not accepted: {value!r}; "
                "write an integer, a decimal or 'p/q'"
            )
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_text(value: Fraction) -> str:
    """``str(value)``, or its size in bits where that would pass the
    interpreter's int-to-string limit (Python 3.10.7+).

    Reports are written with the limit lifted, but a run is not, so error
    messages about derived numbers format them with this and never raise.
    """
    try:
        return str(value)
    except ValueError:
        return (
            f"<rational of {value.numerator.bit_length()} bits over "
            f"{value.denominator.bit_length()} bits>"
        )


class RVector:
    """Immutable fixed-dimension vector with exact rational components.

    Stored as a tuple of integer numerators over one positive common
    denominator, in lowest terms: no prime divides the denominator and every
    numerator.  The form is canonical, so equal vectors store equal
    numerators and denominators, and arithmetic runs on plain ints.
    Indexing and iteration yield Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, components: Iterable[RationalLike]):
        parts = [to_rational(c) for c in components]
        if not parts:
            raise ValueError("a vector needs at least one component")
        # No reduction is needed: for each prime p of den, some part's
        # denominator q holds p to the same power as den, and that part's
        # numerator and den // q are both coprime to p.
        den = math.lcm(*(p.denominator for p in parts))
        self._num = tuple(p.numerator * (den // p.denominator) for p in parts)
        self._den = den

    @classmethod
    def from_numerators(cls, numerators: Iterable[int], denominator: int = 1) -> "RVector":
        """The vector ``numerators / denominator``, reduced to lowest terms.

        ``denominator`` must be a positive int and the numerators ints.
        """
        num = tuple(numerators)
        if not num:
            raise ValueError("a vector needs at least one component")
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        common = math.gcd(denominator, *num)
        if common != 1:
            num = tuple(a // common for a in num)
            denominator //= common
        vector = object.__new__(cls)
        vector._num = num
        vector._den = denominator
        return vector

    @property
    def numerators(self) -> Tuple[int, ...]:
        """The components times :attr:`denominator`, as ints."""
        return self._num

    @property
    def denominator(self) -> int:
        """The least positive common denominator of the components."""
        return self._den

    @property
    def dim(self) -> int:
        return len(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __getitem__(self, index: int) -> Fraction:
        return Fraction(self._num[index], self._den)

    def __iter__(self) -> Iterator[Fraction]:
        return map(Fraction, self._num, repeat(self._den))

    def _check_dim(self, other: "RVector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"vector dimensions differ: {self.dim} vs {other.dim}"
            )

    def _combine(self, other: "RVector", op) -> "RVector":
        """``op`` applied componentwise to both vectors over a common denominator."""
        self._check_dim(other)
        a, b = self._den, other._den
        if a == b:
            return RVector.from_numerators(map(op, self._num, other._num), a)
        common = math.gcd(a, b)
        sa, sb = b // common, a // common
        return RVector.from_numerators(
            (op(x * sa, y * sb) for x, y in zip(self._num, other._num)), a * sa
        )

    def __add__(self, other: "RVector") -> "RVector":
        if not isinstance(other, RVector):
            return NotImplemented
        return self._combine(other, operator.add)

    def __sub__(self, other: "RVector") -> "RVector":
        if not isinstance(other, RVector):
            return NotImplemented
        return self._combine(other, operator.sub)

    def scale(self, factor: RationalLike) -> "RVector":
        f = to_rational(factor)
        p = f.numerator
        return RVector.from_numerators(
            (p * a for a in self._num), f.denominator * self._den
        )

    def dot(self, other: "RVector") -> Fraction:
        self._check_dim(other)
        return Fraction(
            sum(map(operator.mul, self._num, other._num)), self._den * other._den
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return "RVector((%s))" % ", ".join(f"'{c}'" for c in self)


def squared_l2(v: RVector) -> Fraction:
    """Exact sum of squared components.

    Comparisons throughout the pipeline are done on squared norms so that
    irrational square roots never arise.
    """
    num = v.numerators
    return Fraction(sum(map(operator.mul, num, num)), v.denominator**2)


class BinaryPoint:
    """A 0/1 lattice point, hashable (the hash is kept once computed) and
    ordered lexicographically."""

    __slots__ = ("_bits", "_ones", "_hash")

    def __init__(self, bits: Iterable[int]):
        bs = tuple(bits)
        if not bs:
            raise ValueError("a point needs at least one component")
        try:
            valid = _BIT_VALUES.issuperset(bs)
        except TypeError:  # an unhashable component
            valid = False
        if not valid:
            for b in bs:
                if b != 0 and b != 1:
                    raise ValueError(f"binary point component must be 0 or 1, got {b!r}")
        self._bits = tuple(map(int, bs))
        self._ones = tuple(compress(range(len(bs)), self._bits))

    @classmethod
    def origin(cls, dim: int) -> "BinaryPoint":
        return cls([0] * dim)

    @classmethod
    def _trusted(cls, bits: Tuple[int, ...], ones: Tuple[int, ...]) -> "BinaryPoint":
        """A point on ``bits``, a tuple of int 0s and 1s whose 1s sit at ``ones``."""
        point = object.__new__(cls)
        point._bits = bits
        point._ones = ones
        return point

    @classmethod
    def unit(cls, dim: int, k: int) -> "BinaryPoint":
        """The point whose only 1 sits at index ``k``."""
        if not 0 <= k < dim:
            raise IndexError(f"unit index {k} out of range for dimension {dim}")
        return cls._trusted((0,) * k + (1,) + (0,) * (dim - k - 1), (k,))

    @classmethod
    def units(cls, dim: int) -> Iterator["BinaryPoint"]:
        """The unit points e_0, ..., e_{dim-1}, each copied from one reused buffer."""
        buffer = [0] * dim
        for k in range(dim):
            buffer[k] = 1
            yield cls._trusted(tuple(buffer), (k,))
            buffer[k] = 0

    @property
    def dim(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> Tuple[int, ...]:
        return self._bits

    def ones(self) -> Tuple[int, ...]:
        """Indices of the components equal to 1."""
        return self._ones

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, index: int) -> int:
        return self._bits[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def dot(self, values: Sequence[int]) -> int:
        """Sum of ``values`` over this point's ones: ``values . point``.

        For an :class:`RVector` pass its numerators; the sum is then the
        numerator of the dot product over the vector's denominator.
        """
        return sum(map(values.__getitem__, self._ones))

    def is_origin(self) -> bool:
        return not self._ones

    def minus_unit(self, k: int) -> "BinaryPoint":
        """Copy of this point with component ``k`` lowered from 1 to 0."""
        if self._bits[k] != 1:
            raise ValueError(f"component {k} is 0, cannot lower it")
        bits = list(self._bits)
        bits[k] = 0
        return BinaryPoint._trusted(tuple(bits), tuple(filter(bits.__getitem__, self._ones)))

    def dominates(self, other: "BinaryPoint") -> bool:
        """Componentwise ``self >= other``."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"point dimensions differ: {self.dim} vs {other.dim}")
        return all(a >= b for a, b in zip(self._bits, other._bits))

    def as_vector(self) -> RVector:
        return RVector.from_numerators(self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryPoint):
            return NotImplemented
        return self._bits == other._bits

    def __lt__(self, other: "BinaryPoint") -> bool:
        if not isinstance(other, BinaryPoint):
            return NotImplemented
        return self._bits < other._bits

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._bits)
            return self._hash

    def __repr__(self) -> str:
        return f"BinaryPoint({list(self._bits)})"


class ConvexCombination:
    """A finite distribution over binary points with exact positive weights.

    Invariants enforced at construction: all weights strictly positive
    (zero entries are dropped), all support points share one dimension, and
    the weights sum to exactly 1.  Iteration over the support is always in
    lexicographic order of the points, so downstream algorithms that "pick
    some point" are reproducible.
    """

    __slots__ = ("_items",)

    def __init__(
        self,
        weights: Union[
            Mapping[BinaryPoint, RationalLike],
            Iterable[Tuple[BinaryPoint, RationalLike]],
        ],
    ):
        pairs = weights.items() if isinstance(weights, Mapping) else weights
        merged: dict = {}
        for point, raw in pairs:
            if not isinstance(point, BinaryPoint):
                raise TypeError(f"support keys must be BinaryPoint, got {point!r}")
            w = to_rational(raw)
            if w < 0:
                raise ValueError(f"negative weight {rational_text(w)} for {point!r}")
            if w == 0:
                continue
            merged[point] = merged.get(point, _ZERO) + w
        if not merged:
            raise ValueError("combination has empty support; weights must sum to 1")
        dims = {p.dim for p in merged}
        if len(dims) > 1:
            raise DimensionMismatch(f"support points have mixed dimensions {sorted(dims)}")
        total = sum(merged.values(), _ZERO)
        if total != _ONE:
            raise ValueError(f"weights sum to {rational_text(total)}, expected exactly 1")
        self._items = tuple(sorted(merged.items(), key=lambda kv: kv[0].bits))

    @classmethod
    def point_mass(cls, point: BinaryPoint) -> "ConvexCombination":
        """The distribution concentrated entirely on one point."""
        return cls({point: _ONE})

    @property
    def dim(self) -> int:
        return self._items[0][0].dim

    @property
    def support_size(self) -> int:
        return len(self._items)

    def support(self) -> Tuple[BinaryPoint, ...]:
        return tuple(p for p, _ in self._items)

    def items(self) -> Tuple[Tuple[BinaryPoint, Fraction], ...]:
        return self._items

    def __iter__(self) -> Iterator[BinaryPoint]:
        return iter(p for p, _ in self._items)

    def barycenter(self) -> RVector:
        """The exact weighted sum of the support points.

        Every component lies in [0, 1] because the support is binary and the
        weights form a distribution.
        """
        den = math.lcm(*(w.denominator for _, w in self._items))
        comps = [0] * self.dim
        for point, w in self._items:
            share = w.numerator * (den // w.denominator)
            for k in point.ones():
                comps[k] += share
        return RVector.from_numerators(comps, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexCombination):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{list(p.bits)}: '{w}'" for p, w in self._items)
        return "ConvexCombination({%s})" % inner
