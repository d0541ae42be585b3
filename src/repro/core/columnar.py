"""Columnar pL-relations and the pL operators of Section 5.3.

The operators are defined so that (i) on purely extensional inputs they reduce
to the classical extensional operators of [8] (Eqs. 2-4), and (ii) in general
they push as much work as possible into plain arithmetic on the probability
column, creating network nodes only where the data forces it:

* :func:`select_eq` / :func:`select_where` — relational selection (always
  data safe, Sec 5.3.1);
* :func:`independent_project` / :func:`deduplicate` — the two halves of
  projection (Sec 5.3.2); deduplication is the only place Or nodes are born;
* :func:`condition` — the ``Cond`` operation (Sec 5.3.3): make a tuple
  deterministic and remember its probability as a fresh network leaf;
* :func:`cset` / :func:`cset_mask` — the offending tuples of a join
  (Definition 5.14);
* :func:`pl_join_raw` — ``⋈_pL`` (Definition 5.13), correct only after
  conditioning; And nodes are born here;
* :func:`pl_join` — Theorem 5.16's recipe: condition both sides on their
  cSets, then ``⋈_pL``.

Every operator returns a new :class:`ColumnarPLRelation` sharing (and
augmenting) the input's network. The extensional arithmetic is the part the
paper proves linear-time, so the representation keeps it in NumPy kernels:

* a ``float64`` probability column and an ``int64`` lineage-node column;
* dictionary-encoded key columns: every attribute value is interned once in a
  shared :class:`ValueInterner` and the relation stores only its ``int64``
  code, so selections, join-key comparisons, and group-bys are integer
  array operations;
* ``select_eq`` is a boolean mask; ``independent_project`` groups by
  (key, lineage) via ``np.unique`` and merges probabilities with
  :func:`or_fold`, a log-space ``1 - Π(1-p)`` grouped reduction;
  ``deduplicate`` batches whole Or groups into one
  :meth:`~repro.core.network.AndOrNetwork.add_gates` call; ``condition``
  bulk-allocates leaves/gates; :func:`match_join` enumerates a join's pairs
  once (sort + ``searchsorted``) with both sides' partner counts, from
  which ``pl_join`` reads its cSets and its pairs.

:mod:`repro.dissociation.engine` folds ``(upper, lower)`` vectors through
the same :class:`BaseScanner`, masks, :func:`match_join` and
:func:`or_fold`, over the shared key half :class:`CodedRelation`.

Every kernel fixes its *operation order* — first-occurrence group ordering,
left-major/right-stable match ordering, row-order conditioning — so one plan
over one instance always allocates the same network nodes. The independent
checks are possible-worlds enumeration (:meth:`PLRelation.distribution` on
small relations, the brute-force marginals in ``tests/property``) and the
SQLite backend (:mod:`repro.sqlbackend`), which must agree with these kernels
on answers, offending counts and network size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.db.relation import ProbabilisticRelation
from repro.db.schema import Row
from repro.errors import CapacityError, PlanError, SchemaError
from repro.obs.trace import span as _span
from repro.query.syntax import Constant

__all__ = [
    "ValueInterner",
    "CodedRelation",
    "ColumnarPLRelation",
    "ColumnarProjected",
    "Comparison",
    "BaseScanner",
    "JoinMatch",
    "from_base",
    "eq_mask",
    "where_mask",
    "match_join",
    "offending_mask",
    "or_fold",
    "select_eq",
    "select_where",
    "independent_project",
    "deduplicate",
    "project",
    "condition",
    "cset",
    "cset_mask",
    "pl_join_raw",
    "pl_join",
]


class ValueInterner:
    """Append-only dictionary encoding of attribute values.

    Every distinct value (by ``==``/``hash``, exactly Python tuple equality)
    gets one non-negative ``int64`` code; all columnar relations of
    one evaluation share a single interner, so codes are directly comparable
    across relations and a join never has to look at the values themselves.
    """

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._values: list = []

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value) -> int:
        """Code of *value*, interning it first if unseen."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def code_of(self, value) -> int | None:
        """Code of *value*, or ``None`` when it was never interned (in which
        case no columnar relation anywhere contains it)."""
        return self._codes.get(value)

    def encode_column(self, values: Sequence) -> np.ndarray:
        """Encode one column of values into an ``int64`` code array.

        Numeric and all-string columns take a vectorized path: ``np.unique``
        collapses the column to its distinct values at C speed (strings as a
        fixed-width array, so the sort compares flat character buffers, not
        Python objects) and only the few distinct values pass through the
        Python-level intern dict. Everything else (mixed types, unhashable
        oddities) falls back to a plain loop.
        """
        n = len(values)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        arr = None
        try:
            arr = np.asarray(values)
        except (ValueError, TypeError):  # ragged / unconvertible
            arr = None
        if arr is not None and arr.ndim == 1:
            # A "U" dtype alone is not proof of a string column — np.asarray
            # coerces mixed int/str input to strings, which would silently
            # merge 1 and "1". Only trust it when every element really is str.
            if arr.dtype.kind in "iufb" or (
                arr.dtype.kind == "U"
                and all(isinstance(v, str) for v in values)
            ):
                uniq, inv = np.unique(arr, return_inverse=True)
                return self._intern_unique(uniq)[inv]
        return np.fromiter(map(self.intern, values), dtype=np.int64, count=n)

    def _intern_unique(self, uniq: np.ndarray) -> np.ndarray:
        """Intern a small array of distinct values; returns their codes."""
        codes = self._codes
        vals = self._values
        append = vals.append
        out = np.empty(uniq.size, dtype=np.int64)
        for i, v in enumerate(uniq.tolist()):
            c = codes.get(v)
            if c is None:
                c = len(vals)
                codes[v] = c
                append(v)
            out[i] = c
        return out

    def decode_column(self, codes: np.ndarray) -> list:
        """Values behind a code array, as native Python objects."""
        vals = self._values
        return [vals[c] for c in codes.tolist()]


#: Transient columnar representation between independent project and
#: deduplication: already merged by (projected key, lineage), in
#: first-occurrence order.
@dataclass
class ColumnarProjected:
    codes: np.ndarray  # (rows, len(attributes)) int64
    lineage: np.ndarray  # (rows,) int64
    probs: np.ndarray  # (rows,) float64


class CodedRelation:
    """The key half of every columnar relation (attribute names, shared
    :class:`ValueInterner`, ``(n, arity)`` ``int64`` code matrix): all that
    the masks, :func:`match_join` and the group-bys read. Subclasses add the
    per-row values: lineage + probability, or dissociation's (upper, lower).
    """

    __slots__ = ("attributes", "interner", "name", "codes", "_positions")

    def __init__(
        self,
        attributes: Iterable[str],
        interner: ValueInterner,
        codes: np.ndarray,
        name: str = "",
    ) -> None:
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attributes: {self.attributes}")
        self.interner = interner
        self.name = name
        self.codes = codes
        self._positions = {a: i for i, a in enumerate(self.attributes)}

    def __len__(self) -> int:
        return self.codes.shape[0]

    def index_of(self, attribute: str) -> int:
        """Position of *attribute* in the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"attributes are {self.attributes}"
            ) from None

    def rows(self) -> list[Row]:
        """All rows (decoded), in insertion order."""
        k = len(self.attributes)
        if k == 0:
            return [()] * len(self)
        cols = [
            self.interner.decode_column(self.codes[:, j]) for j in range(k)
        ]
        return list(zip(*cols))


class ColumnarPLRelation(CodedRelation):
    """A pL-relation stored column-wise over a shared And-Or network.

    Semantically identical to :class:`~repro.core.plrelation.PLRelation`
    (Definition 5.2); the representation differs: ``codes`` holds the
    dictionary-encoded key columns as an ``(n, arity)`` ``int64`` matrix,
    ``lineage`` the network node per row, ``probs`` the probability column.
    Row order is insertion order. Every operator of this module consumes and
    produces this representation; :meth:`to_rows` converts a (small) final
    result into the row-backed :class:`PLRelation` that results expose.
    """

    __slots__ = ("network", "lineage", "probs")

    def __init__(
        self,
        attributes: Iterable[str],
        network: AndOrNetwork,
        interner: ValueInterner,
        codes: np.ndarray,
        lineage: np.ndarray,
        probs: np.ndarray,
        name: str = "",
    ) -> None:
        super().__init__(attributes, interner, codes, name)
        self.network = network
        self.lineage = lineage
        self.probs = probs
        if codes.shape != (len(lineage), len(self.attributes)):
            raise SchemaError(
                f"code matrix {codes.shape} does not match "
                f"{len(lineage)} rows x {len(self.attributes)} attributes"
            )

    def items(self) -> Iterator[tuple[Row, int, float]]:
        """Iterate over ``(row, lineage, probability)`` triples (decoded)."""
        lineage = self.lineage.tolist()
        probs = self.probs.tolist()
        for row, l, p in zip(self.rows(), lineage, probs):
            yield row, l, p

    def symbolic_rows(self) -> list[Row]:
        """Rows whose lineage is not ε — the intensional part."""
        idx = np.flatnonzero(self.lineage != EPSILON)
        rows = self.rows()
        return [rows[i] for i in idx.tolist()]

    def is_purely_extensional(self) -> bool:
        """True when every row has trivial lineage."""
        return bool((self.lineage == EPSILON).all())

    def to_rows(self) -> PLRelation:
        """Convert to a row-backed :class:`PLRelation` (same network)."""
        with _span("to_rows", tuples=len(self)):
            out = PLRelation(self.attributes, self.network, name=self.name)
            for row, l, p in self.items():
                out.add(row, l, p)
            return out

    def _take(self, indices: np.ndarray, name: str) -> "ColumnarPLRelation":
        """Gather a row subset by index."""
        return ColumnarPLRelation(
            self.attributes,
            self.network,
            self.interner,
            self.codes[indices],
            self.lineage[indices],
            self.probs[indices],
            name=name,
        )

    def __repr__(self) -> str:
        sym = int((self.lineage != EPSILON).sum())
        return (
            f"<ColumnarPLRelation {self.name!r}({', '.join(self.attributes)}) "
            f"{len(self)} rows, {sym} symbolic>"
        )


# ----------------------------------------------------------------- construction
def from_base(
    relation: ProbabilisticRelation,
    network: AndOrNetwork,
    interner: ValueInterner,
    attributes: Iterable[str] | None = None,
) -> ColumnarPLRelation:
    """Lift an independent relation: every tuple gets lineage ε.

    This is Example 5.3 — an independent relation is a pL-relation whose
    lineage column is constantly the trivial node.
    """
    attrs = tuple(
        attributes if attributes is not None else relation.schema.attributes
    )
    codes, probs = encode_base(relation, interner)
    lineage = np.full(len(relation), EPSILON, dtype=np.int64)
    return ColumnarPLRelation(
        attrs, network, interner, codes, lineage, probs, name=relation.name
    )


def encode_base(
    relation: ProbabilisticRelation, interner: ValueInterner
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode a base relation: ``(codes matrix, probability column)``.

    Network-independent (base tuples all carry lineage ε), so the result can
    be cached across evaluations sharing one interner.
    """
    n = len(relation)
    k = relation.schema.arity
    codes = np.empty((n, k), dtype=np.int64)
    if not n:
        return codes, np.empty(0, dtype=np.float64)
    with _span("encode_base", relation=relation.name, tuples=n):
        return _encode_base(relation, interner, codes, n, k)


def _encode_base(relation, interner, codes, n, k):
    rows = relation.rows()
    probs = np.fromiter(
        (p for _, p in relation.items()), dtype=np.float64, count=n
    )
    # Homogeneous numeric relations convert to one (n, k) matrix at C speed,
    # so per column only the distinct values touch the Python-level interner.
    arr = None
    if k:
        try:
            arr = np.asarray(rows)
        except (ValueError, TypeError):
            arr = None
        if arr is not None and (
            arr.shape != (n, k) or arr.dtype.kind not in "iufb"
        ):
            arr = None
    if arr is not None:
        for j in range(k):
            uniq, inv = np.unique(arr[:, j], return_inverse=True)
            codes[:, j] = interner._intern_unique(uniq)[inv]
    else:
        columns = list(zip(*rows))
        for j in range(k):
            codes[:, j] = interner.encode_column(columns[j])
    return codes, probs


class BaseScanner:
    """Scan base relations into dictionary-encoded columns.

    Owns an evaluator's :class:`ValueInterner` and base-encode cache, keyed
    ``name -> (relation object, version, codes, probs)``: an entry serves
    only the object and :attr:`~ProbabilisticRelation.version` it was
    encoded from, so any mutation (or a commit's new object) re-encodes and
    replaces it. Encoding, the only step that grows the interner, is locked.
    """

    def __init__(self) -> None:
        self.interner = ValueInterner()
        self._cache: dict[str, tuple] = {}
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Drop every cached encoding (the interner keeps its codes)."""
        with self._lock:
            self._cache.clear()

    def encode(
        self, base: ProbabilisticRelation
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached :func:`encode_base` of *base* against this interner."""
        with self._lock:
            hit = self._cache.get(base.name)
            if hit is None or hit[0] is not base or hit[1] != base.version:
                hit = (base, base.version, *encode_base(base, self.interner))
                self._cache[base.name] = hit
        return hit[2], hit[3]

    def scan(
        self, base: ProbabilisticRelation, terms
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """``(attributes, codes, probs)`` of the atom ``base(terms)``.

        A constant term keeps only rows carrying that value (none when the
        value was never interned); a repeated variable keeps rows whose
        columns agree; the output has one column per distinct variable, in
        first-occurrence order. ``terms=None`` reads the relation as-is.
        """
        codes, probs = self.encode(base)
        if terms is None:
            return base.schema.attributes, codes, probs
        if len(terms) != base.schema.arity:
            raise PlanError(
                f"scan of {base.name}: {len(terms)} terms for arity "
                f"{base.schema.arity}"
            )
        mask = np.ones(len(probs), dtype=bool)
        var_first: dict[str, int] = {}
        for i, t in enumerate(terms):
            if isinstance(t, Constant):
                code = self.interner.code_of(t.value)
                if code is None:
                    mask[:] = False
                else:
                    mask &= codes[:, i] == code
            elif t.name in var_first:
                mask &= codes[:, i] == codes[:, var_first[t.name]]
            else:
                var_first[t.name] = i
        idx = np.flatnonzero(mask)
        positions = list(var_first.values())
        return tuple(var_first), codes[idx][:, positions], probs[idx]


def from_plrelation(
    rel: PLRelation, interner: ValueInterner
) -> ColumnarPLRelation:
    """Columnar view of a row-backed pL-relation (shares its network)."""
    n = len(rel)
    k = len(rel.attributes)
    codes = np.empty((n, k), dtype=np.int64)
    lineage = np.empty(n, dtype=np.int64)
    probs = np.empty(n, dtype=np.float64)
    rows = rel.rows()
    if n:
        columns = list(zip(*rows)) if k else []
        for j in range(k):
            codes[:, j] = interner.encode_column(columns[j])
        for i, row in enumerate(rows):
            lineage[i] = rel.lineage(row)
            probs[i] = rel.probability(row)
    return ColumnarPLRelation(
        rel.attributes, rel.network, interner, codes, lineage, probs,
        name=rel.name,
    )


# ------------------------------------------------------------------- grouping
def _fuse(n: int, cols: list[np.ndarray]) -> np.ndarray:
    """Fuse non-negative code columns into one ``int64`` key per row.

    Mixed-radix packing; columns fused together must come from one shared
    code space (concatenate both sides of a join before fusing). Falls back
    to densifying intermediate keys if the radix product approaches 2^62.
    """
    if not cols:
        return np.zeros(n, dtype=np.int64)
    out = cols[0].astype(np.int64, copy=True)
    for c in cols[1:]:
        radix = int(c.max()) + 1 if c.size else 1
        hi = int(out.max()) if out.size else 0
        if (hi + 1) * radix >= 2 ** 62:
            _, out = np.unique(out, return_inverse=True)
            hi = int(out.max()) if out.size else 0
            if (hi + 1) * radix >= 2 ** 62:
                raise CapacityError(
                    "composite key space exceeds 62 bits even after "
                    "densification"
                )
        out = out * radix + c
    return out


def _group_first_occurrence(
    n: int, cols: list[np.ndarray]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Group rows by the fused key, numbering groups in first-occurrence
    order (the order a Python dict would insert them in).

    Returns ``(group id per row, group count, first row index per group)``.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    fused = _fuse(n, cols)
    _, first, inverse = np.unique(
        fused, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse], order.size, first[order]


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start+count)`` blocks, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return reps + offs


# --------------------------------------------------------------------- select
def eq_mask(
    rel: CodedRelation, conditions: Iterable[tuple[str, object]]
) -> np.ndarray:
    """Row mask of ``σ_{A=a, ...}`` given ``(attribute, value)`` pairs (all
    false as soon as a value was never interned)."""
    mask = np.ones(len(rel), dtype=bool)
    for attr, value in conditions:
        j = rel.index_of(attr)
        code = rel.interner.code_of(value)
        if code is None:
            mask[:] = False
            break
        mask &= rel.codes[:, j] == code
    return mask


def select_eq(
    rel: ColumnarPLRelation, conditions: Mapping[str, object]
) -> ColumnarPLRelation:
    """Selection ``σ_{A=a, ...}``: one boolean mask over the code columns.

    Always data safe (Proposition 3.2); lineage and probability pass through.
    """
    return rel._take(
        np.flatnonzero(eq_mask(rel, conditions.items())),
        name=f"σ({rel.name})",
    )


#: Comparison operators :class:`Comparison` can compile. ``>`` / ``>=`` ride
#: along for symmetry — they are the mirrored ``<`` / ``<=``.
_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """A compilable selection predicate ``attribute <op> constant``.

    Handed to :func:`select_where` instead of a callable, the predicate is evaluated as array expressions over the
    dictionary-encoded column — no per-row Python call, no row decoding:

    * ``==`` / ``!=`` compare codes directly: equal values share a code by
      construction, so one interner lookup turns the predicate into a single
      integer comparison against the column;
    * ``<`` / ``<=`` / ``>`` / ``>=`` cannot read off codes (interning order
      is first-appearance, not value order), so the column is collapsed to
      its *distinct* codes with ``np.unique``, only those few values are
      decoded and compared in Python, and the verdicts are gathered back
      over the rows — O(distinct) comparisons instead of O(rows).

    Examples
    --------
    >>> Comparison("A", "<", 3).matches((2, "x"), lambda a: 0)
    True
    """

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise SchemaError(
                f"unknown comparison operator {self.op!r}; "
                f"choose from {_COMPARISON_OPS}"
            )

    def matches(self, row, index_of) -> bool:
        """Evaluate on one decoded row (the ordering comparisons of
        :meth:`mask` run it once per distinct value)."""
        v = row[index_of(self.attribute)]
        if self.op == "==":
            return v == self.value
        if self.op == "!=":
            return v != self.value
        if self.op == "<":
            return v < self.value
        if self.op == "<=":
            return v <= self.value
        if self.op == ">":
            return v > self.value
        return v >= self.value

    def mask(self, rel: CodedRelation) -> np.ndarray:
        """Boolean row mask over a columnar relation (the compiled path)."""
        column = rel.codes[:, rel.index_of(self.attribute)]
        if self.op in ("==", "!="):
            code = rel.interner.code_of(self.value)
            if code is None:
                return np.full(len(rel), self.op == "!=", dtype=bool)
            return column == code if self.op == "==" else column != code
        uniq, inv = np.unique(column, return_inverse=True)
        values = rel.interner.decode_column(uniq)
        verdicts = np.fromiter(
            (
                self.matches((v,), lambda _attr: 0)
                for v in values
            ),
            dtype=bool,
            count=uniq.size,
        )
        return verdicts[inv]


def where_mask(rel: CodedRelation, predicate) -> np.ndarray:
    """Row mask of a selection predicate — compiled when possible.

    *predicate* may be a :class:`Comparison`, an iterable of them (their
    conjunction), or an arbitrary callable. Comparisons are compiled to
    array expressions over the encoded columns; the callable form is the
    exotic-predicate fallback: decode once, evaluate per row.
    """
    compiled = _as_comparisons(predicate)
    if compiled is None:
        return np.fromiter(
            (bool(predicate(row)) for row in rel.rows()),
            dtype=bool,
            count=len(rel),
        )
    mask = np.ones(len(rel), dtype=bool)
    for comparison in compiled:
        mask &= comparison.mask(rel)
    return mask


def select_where(rel: ColumnarPLRelation, predicate) -> ColumnarPLRelation:
    """Selection with a row predicate (see :func:`where_mask`), gathered
    with one mask."""
    return rel._take(
        np.flatnonzero(where_mask(rel, predicate)), name=f"σ({rel.name})"
    )


def _as_comparisons(predicate) -> list[Comparison] | None:
    """*predicate* as a conjunction of comparisons, or ``None`` (callable)."""
    if isinstance(predicate, Comparison):
        return [predicate]
    if isinstance(predicate, (list, tuple)) and all(
        isinstance(c, Comparison) for c in predicate
    ):
        return list(predicate)
    return None


# -------------------------------------------------------------------- project
def log_complement(probs: np.ndarray) -> np.ndarray:
    """``log(1 - p)`` per entry (``-inf`` at ``p = 1``), computed as
    ``log1p(-p)`` for precision near 0 — the log space of every
    independent-OR fold and failure split."""
    with np.errstate(divide="ignore"):
        return np.log1p(-probs)


def or_fold(
    gid: np.ndarray, groups: int, first: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Per-group independent OR ``1 - Π(1-p)`` as a log-space grouped sum.

    Clamped into [0, 1] — expm1 rounding on many near-1 inputs can
    overshoot by an ulp, and an out-of-range probability poisons inference —
    and singleton groups pass their probability through bit-exactly.
    """
    counts = np.bincount(gid, minlength=groups)
    sums = np.bincount(gid, weights=log_complement(probs), minlength=groups)
    out = np.clip(-np.expm1(sums), 0.0, 1.0)
    single = counts == 1
    out[single] = probs[first[single]]
    return out


def independent_project(
    rel: ColumnarPLRelation, attributes: Sequence[str]
) -> ColumnarProjected:
    """Independent project (Sec 5.3.2): group by projected value *and* lineage.

    Rows sharing both are merged extensionally by :func:`or_fold`.
    """
    positions = [rel.index_of(a) for a in attributes]
    cols = [rel.codes[:, j] for j in positions] + [rel.lineage]
    gid, groups, first = _group_first_occurrence(len(rel), cols)
    return ColumnarProjected(
        codes=rel.codes[first][:, positions],
        lineage=rel.lineage[first],
        probs=or_fold(gid, groups, first, rel.probs),
    )


def deduplicate(
    rel: ColumnarPLRelation,
    attributes: Sequence[str],
    projected: ColumnarProjected,
) -> ColumnarPLRelation:
    """Deduplication (Sec 5.3.2): merge same-value rows through an Or node.

    Groups with a single member pass through unchanged. A group with several
    members — necessarily with pairwise distinct lineage — becomes one row
    with probability 1 and a fresh Or node whose parents are the members'
    lineage nodes, with the members' probabilities as edge probabilities;
    the whole batch of Or gates is allocated in one
    :meth:`~repro.core.network.AndOrNetwork.add_gates` call. The probability
    mass moves onto the edges; Theorem 5.10 shows the result obeys
    possible-worlds semantics.
    """
    net = rel.network
    lineage, probs, codes = projected.lineage, projected.probs, projected.codes
    n = len(lineage)
    k = codes.shape[1]
    cols = [codes[:, j] for j in range(k)]
    gid, groups, first = _group_first_occurrence(n, cols)
    counts = np.bincount(gid, minlength=groups)
    out_lineage = np.empty(groups, dtype=np.int64)
    out_probs = np.empty(groups, dtype=np.float64)
    single = counts == 1
    out_lineage[single] = lineage[first[single]]
    out_probs[single] = probs[first[single]]
    multi = np.flatnonzero(~single)
    if multi.size:
        order = np.argsort(gid, kind="stable")
        sorted_gid = gid[order]
        seg_starts = np.searchsorted(sorted_gid, multi)
        seg_counts = counts[multi]
        flat = order[_concat_ranges(seg_starts, seg_counts)]
        offsets = np.zeros(multi.size + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=offsets[1:])
        gates = net.add_gates(
            NodeKind.OR, lineage[flat], probs[flat], offsets=offsets
        )
        out_lineage[multi] = gates
        out_probs[multi] = 1.0
    return ColumnarPLRelation(
        tuple(attributes),
        net,
        rel.interner,
        codes[first],
        out_lineage,
        out_probs,
        name=f"π({rel.name})",
    )


def project(
    rel: ColumnarPLRelation, attributes: Sequence[str]
) -> ColumnarPLRelation:
    """Full projection ``π_A``: independent project + deduplication."""
    return deduplicate(rel, attributes, independent_project(rel, attributes))


# ---------------------------------------------------------------- conditioning
def _target_mask(rel: ColumnarPLRelation, rows: Iterable[Row]) -> np.ndarray:
    """Boolean mask of the given rows; raises on rows absent from *rel*."""
    targets = [tuple(r) for r in rows]
    k = len(rel.attributes)
    codes = np.full((len(targets), k), -1, dtype=np.int64)
    for i, row in enumerate(targets):
        if len(row) != k:
            raise SchemaError(
                f"row {row!r} has arity {len(row)}, expected {k}"
            )
        for j, v in enumerate(row):
            code = rel.interner.code_of(v)
            if code is not None:
                codes[i, j] = code
    # Rows holding a never-interned value cannot be present; the rest are
    # semi-joined against *rel* on every attribute.
    valid = (codes >= 0).all(axis=1)
    m = match_join(
        rel, CodedRelation(rel.attributes, rel.interner, codes[valid]),
        rel.attributes,
    )
    found = np.zeros(len(targets), dtype=bool)
    found[valid] = m.right_fanout > 0
    if not found.all():
        absent = [targets[i] for i in np.flatnonzero(~found).tolist()]
        raise SchemaError(f"cannot condition on absent rows: {sorted(absent)}")
    return m.left_fanout > 0


def condition(
    rel: ColumnarPLRelation, rows, recorder=None
) -> ColumnarPLRelation:
    """``Cond`` (Sec 5.3.3): make the given rows deterministic.

    *rows* is either a boolean mask over the relation or an iterable of row
    tuples. An uncertain row with trivial lineage moves its probability to a
    fresh leaf (the paper's definition). An uncertain row that already
    carries lineage ``l ≠ ε`` — an intermediate relation feeding a later
    join — is the event ``l ∧ anon(p)``, so it gets a single-parent And gate
    with edge probability ``p``; this generalises Lemma 5.12 and keeps the
    distribution unchanged. Rows that are already deterministic are left
    untouched. Nodes are allocated in row order, in same-kind runs, so ids
    follow the rows. The optional *recorder* ``(node, source, row)``
    receives every conditioned tuple.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == bool:
        mask = rows
    else:
        mask = _target_mask(rel, rows)
    net = rel.network
    todo = np.flatnonzero(mask & (rel.probs < 1.0))
    lineage = rel.lineage.copy()
    probs = rel.probs.copy()
    out = ColumnarPLRelation(
        rel.attributes,
        net,
        rel.interner,
        rel.codes,
        lineage,
        probs,
        name=f"cond({rel.name})",
    )
    if todo.size == 0:
        return out
    is_eps = rel.lineage[todo] == EPSILON
    new_nodes = np.empty(todo.size, dtype=np.int64)
    # Allocate in row order, in maximal same-kind runs, so node ids follow
    # the rows exactly as a one-at-a-time allocation would.
    boundaries = np.flatnonzero(is_eps[1:] != is_eps[:-1]) + 1
    run_starts = np.concatenate([[0], boundaries, [todo.size]])
    for s, e in zip(run_starts[:-1], run_starts[1:]):
        seg = todo[s:e]
        if is_eps[s]:
            new_nodes[s:e] = net.add_leaves(rel.probs[seg])
        else:
            new_nodes[s:e] = net.add_gates(
                NodeKind.AND,
                rel.lineage[seg][:, None],
                rel.probs[seg][:, None],
            )
    lineage[todo] = new_nodes
    probs[todo] = 1.0
    if recorder is not None:
        all_rows = rel.rows()
        for i, node in zip(todo.tolist(), new_nodes.tolist()):
            recorder(node, rel.name, all_rows[i])
    return out


# ----------------------------------------------------------------------- join
@dataclass(frozen=True)
class JoinMatch:
    """Every matching ``(left row, right row)`` pair of an equi-join.

    Pairs are left-major, right insertion order within a key. The fanouts
    are the partner counts the offending-tuple test (Definition 5.14) and
    the dissociation split both read: ``left_fanout[i]`` right rows join
    left row ``i``, ``right_fanout[j]`` left rows join right row ``j``.
    """

    li: np.ndarray
    ri: np.ndarray
    left_fanout: np.ndarray
    right_fanout: np.ndarray
    #: Output schema: the left attributes, then the right non-join ones.
    attributes: tuple[str, ...]
    #: Right-side columns that survive into the output.
    keep: list[int]

    def codes(self, left: CodedRelation, right: CodedRelation) -> np.ndarray:
        """The joined code matrix, one row per pair."""
        codes = left.codes[self.li]
        if self.keep:
            codes = np.concatenate(
                [codes, right.codes[self.ri][:, self.keep]], axis=1
            )
        return codes


def match_join(
    left: CodedRelation, right: CodedRelation, on: Sequence[str]
) -> JoinMatch:
    """Enumerate the pairs of ``left ⋈_on right`` once.

    Both sides' key columns are fused in one shared key space, the right
    keys sorted (stable), and a ``searchsorted`` range per left row yields
    its partners — the one pair enumeration every join kernel uses.
    """
    if left.interner is not right.interner:
        raise SchemaError(
            "columnar join requires both sides to share one interner"
        )
    nl, nr = len(left), len(right)
    cols = [
        np.concatenate([left.codes[:, left.index_of(a)],
                        right.codes[:, right.index_of(a)]])
        for a in on
    ]
    fused = _fuse(nl + nr, cols)
    lkeys, rkeys = fused[:nl], fused[nl:]
    r_order = np.argsort(rkeys, kind="stable")
    r_sorted = rkeys[r_order]
    starts = np.searchsorted(r_sorted, lkeys, side="left")
    counts = np.searchsorted(r_sorted, lkeys, side="right") - starts
    li = np.repeat(np.arange(nl, dtype=np.int64), counts)
    ri = r_order[_concat_ranges(starts, counts)]
    keep = [i for i, a in enumerate(right.attributes) if a not in set(on)]
    return JoinMatch(
        li=li,
        ri=ri,
        left_fanout=counts,
        right_fanout=np.bincount(ri, minlength=nr),
        attributes=left.attributes + tuple(right.attributes[i] for i in keep),
        keep=keep,
    )


def offending_mask(probs: np.ndarray, fanout: np.ndarray) -> np.ndarray:
    """Rows that offend at a join (Definition 5.14): uncertain (``p < 1``)
    with more than one join partner, given each row's *probs* and partner
    count *fanout* (a :class:`JoinMatch` side)."""
    return (probs < 1.0) & (fanout > 1)


def cset_mask(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> np.ndarray:
    """Boolean mask of *left*'s offending tuples (Definition 5.14).

    A tuple offends when it is uncertain (``p < 1``) and joins with more than
    one tuple of *right*. Matching Proposition 3.2, *all* join partners count,
    deterministic or not: a shared uncertain left tuple correlates its output
    tuples regardless of the partners' probabilities.
    """
    return offending_mask(left.probs, match_join(left, right, on).left_fanout)


def cset(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> list[Row]:
    """``cSet(left, right)`` (Definition 5.14) as decoded rows."""
    mask = cset_mask(left, right, on)
    rows = left.rows()
    return [rows[i] for i in np.flatnonzero(mask).tolist()]


def pl_join_raw(
    left: ColumnarPLRelation, right: ColumnarPLRelation, on: Sequence[str]
) -> ColumnarPLRelation:
    """``⋈_pL`` (Definition 5.13), *without* conditioning.

    Correct (possible-worlds preserving) only when both cSets are empty —
    use :func:`pl_join` for the safe composition. The pairs come from
    :func:`match_join`; one vectorized pass then gives pairs whose sides
    both carry lineage a batched And gate, and folds the rest by
    multiplying probabilities (the non-trivial lineage, if any, passes
    through).
    """
    return _and_join(left, right, match_join(left, right, on))


def _and_join(
    left: ColumnarPLRelation, right: ColumnarPLRelation, m: JoinMatch
) -> ColumnarPLRelation:
    if left.network is not right.network:
        raise SchemaError("pL-join requires both sides to share one network")
    net = left.network
    ll = left.lineage[m.li]
    rl = right.lineage[m.ri]
    lp = left.probs[m.li]
    rp = right.probs[m.ri]
    out_lineage = np.where(rl == EPSILON, ll, rl)
    out_probs = lp * rp
    both = np.flatnonzero((ll != EPSILON) & (rl != EPSILON))
    if both.size:
        parents = np.stack([ll[both], rl[both]], axis=1)
        edge_probs = np.stack([lp[both], rp[both]], axis=1)
        out_lineage[both] = net.add_gates(NodeKind.AND, parents, edge_probs)
        out_probs[both] = 1.0
    return ColumnarPLRelation(
        m.attributes,
        net,
        left.interner,
        m.codes(left, right),
        out_lineage,
        out_probs,
        name=f"({left.name}⋈{right.name})",
    )


def pl_join(
    left: ColumnarPLRelation,
    right: ColumnarPLRelation,
    on: Sequence[str],
    recorder=None,
) -> tuple[ColumnarPLRelation, int]:
    """Safe join (Theorem 5.16): condition both sides on their cSets, then
    ``⋈_pL``.

    Returns the joined relation and the number of tuples conditioned — the
    per-operator offending-tuple count that measures data (un)safety. The
    optional *recorder* ``(node, source, row)`` receives the provenance of
    every conditioned tuple (used for what-if analysis).
    """
    m = match_join(left, right, on)
    lmask = offending_mask(left.probs, m.left_fanout)
    rmask = offending_mask(right.probs, m.right_fanout)
    left2 = condition(left, lmask, recorder) if lmask.any() else left
    right2 = condition(right, rmask, recorder) if rmask.any() else right
    joined = _and_join(left2, right2, m)
    return joined, int(lmask.sum()) + int(rmask.sum())
