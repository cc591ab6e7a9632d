"""Columnar group-key encoding for batch aggregation kernels.

The object-path aggregate formation (:mod:`repro.algebra.aggregate`)
materializes a ``Dict[combo, Set[Fact]]`` and walks Python objects per
group.  This module instead lays a grouping out flat, the way a column
store would:

* one fact-ordered ``array('q')`` of **composed group keys** — per
  grouped dimension the rollup index supplies a dense ``fact_id →
  value_id`` array (:meth:`RollupIndex.grouping_value_id_array`), the
  per-dimension value ids are mapped to local codes, and the codes are
  packed into a single integer by **mixed-radix** positional encoding
  (first grouped dimension most significant).  Facts with multi-valued
  (imprecise) characterizations product-expand into one row per value
  combination, exactly like the object path; facts uncharacterized in
  any grouped dimension drop out, exactly like the object path;
* one parallel ``array('q')`` of fact ids, so groups can be converted
  back to object-level ``FrozenSet[Fact]`` views on demand;
* per-dimension **measure columns** — each fact's measure count, sum,
  min and max in a result dimension, extracted once per relation
  version and gathered row-aligned per grouping.

Batch kernels (:meth:`AggregationFunction.batch_apply`) then evaluate
*every* group in one pass over the key column, instead of one Python
call per group.  The layout itself is module-level (digits per
dimension, key composition, decoding, keys to member lists), shared by
:class:`ColumnarStore` and the sharded backend's workers, which compose
the keys of one fact-id slice each.  Everything is version-stamped and
refreshed lazily, the same staleness protocol as the rollup index: a
stale layout or measure column is patched from the change logs for
just the facts a write touched, or rebuilt when the logs cannot replay
the span (see :class:`ColumnarStore`);
``use_index=False`` stays the byte-identity oracle (see
docs/PERFORMANCE.md for the float-ordering caveat on SUM/AVG).

Fallback rules (any of these routes the caller to the object path):

* a grouped dimension's radix product would exceed
  :data:`MAX_COMPOSED_KEY` (composed keys must stay machine ints) —
  :meth:`ColumnarStore.grouping` returns ``None``;
* the function has no batch kernel (``has_batch_kernel`` is False) —
  :meth:`ColumnarGrouping.evaluate` returns ``None``;
* a measure column is poisoned (some fact has a non-numeric surrogate
  in the argument dimension) — ``evaluate`` returns ``None`` and the
  per-group object path re-raises on exactly the groups the naive path
  would.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import compress
from typing import (TYPE_CHECKING, AbstractSet, Dict, Iterable, List,
                    Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
                    Union)

from repro.algebra.functions import (AggregationFunction, has_batch_kernel,
                                     measures_of)
from repro.core.errors import AlgebraError
from repro.core.values import DimensionValue, Fact
from repro.engine.rollup_index import (MULTI_VALUED, UNCHARACTERIZED,
                                       RollupIndex)
from repro.obs import metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded import ShardMeasures

__all__ = [
    "MAX_COMPOSED_KEY",
    "KeyDigit",
    "MeasureColumn",
    "MeasureRows",
    "ColumnarGrouping",
    "ColumnarStore",
]

#: composed keys must stay within a signed 64-bit ``array('q')`` cell
#: (and cheap small-int arithmetic); a grouping whose radix product
#: exceeds this falls back to the object path.
MAX_COMPOSED_KEY = 2 ** 62

_BUILDS = metrics.counter("columnar.build")
_PATCHES = metrics.counter("columnar.patch")
_HITS = metrics.counter("columnar.hit")
_RADIX_FALLBACK = metrics.counter("columnar.fallback.radix")
_MEASURE_BUILDS = metrics.counter("columnar.measure_column.build")
_MEASURE_POISONED = metrics.counter("columnar.measure.poisoned")

#: one grouping-key combo decoded back to objects: the grouped value per
#: dimension, in the grouping's item order.
Combo = Tuple[DimensionValue, ...]


class KeyDigit(NamedTuple):
    """One grouped dimension's digit of the mixed-radix group key.

    ``column[fid - base]`` is a fact's single grouping-value id,
    :data:`~repro.engine.rollup_index.UNCHARACTERIZED`, or
    :data:`~repro.engine.rollup_index.MULTI_VALUED` with the id tuple in
    ``multi[fid]``; ``code`` maps value ids to digits below ``radix``
    and ``decode`` (``radix`` entries) maps digits back to values.  A
    dimension grouped at ⊤ is the radix-1 digit with no column (every
    fact has digit 0).  Shard payloads carry slices of the column and
    no decode table."""

    name: str
    radix: int
    column: Optional[array]
    multi: Dict[int, Tuple[int, ...]]
    code: Dict[int, int]
    decode: Sequence[DimensionValue]


def _key_layout(index: RollupIndex, items: Sequence[Tuple[str, str]]
                ) -> Optional[List[KeyDigit]]:
    """The digits of a grouping's composed keys, one per ``(dimension,
    category)`` item in order, the first most significant: a
    dimension's value ids get dense codes in id order.  ``None`` when
    the radix product overflows :data:`MAX_COMPOSED_KEY`."""
    digits: List[KeyDigit] = []
    max_key = 1
    for name, category in items:
        dimension = index.mo.dimension(name)
        if category == dimension.dtype.top_name:
            digits.append(KeyDigit(name, 1, None, {}, {},
                                   (dimension.top_value,)))
            continue
        column, multi = index.grouping_value_id_array(name, category)
        vids = {vid for vid in column if vid >= 0}
        for vid_tuple in multi.values():
            vids.update(vid_tuple)
        ordered = sorted(vids)
        # no characterized fact makes a radix-0 digit: every fact drops
        max_key *= len(ordered)
        if max_key > MAX_COMPOSED_KEY:
            return None
        digits.append(KeyDigit(
            name, len(ordered), column, multi,
            {vid: code for code, vid in enumerate(ordered)},
            [index.value_of(name, vid) for vid in ordered]))
    return digits


def _compose_keys(digits: Sequence[KeyDigit], fact_ids: Iterable[int],
                  base: int = 0) -> Tuple[array, array]:
    """The composed key column and its row-aligned fact-id column for
    ``fact_ids`` (ascending): one pass composing each fact's key digit by
    digit.  Imprecise facts product-expand into one row per value
    combination; a fact uncharacterized in any dimension drops out.
    ``base`` is the fact id at ``column[0]`` (a shard slice's first
    fact, 0 for whole columns)."""
    keys = array("q")
    row_facts = array("q")
    append_key = keys.append
    append_fact = row_facts.append
    # ⊤ digits have no column: their digit is always 0
    columns = [(each.column, len(each.column), each.multi, each.code,
                each.radix)
               for each in digits if each.column is not None]
    for fid in fact_ids:
        idx = fid - base
        composed = 0
        expansions = None
        for column, size, multi, code, radix in columns:
            vid = column[idx] if idx < size else UNCHARACTERIZED
            if vid >= 0:
                digit = code[vid]
                if expansions is None:
                    composed = composed * radix + digit
                else:
                    expansions = [k * radix + digit for k in expansions]
            elif vid == MULTI_VALUED:
                codes = [code[v] for v in multi[fid]]
                if expansions is None:
                    expansions = [composed * radix + d for d in codes]
                else:
                    expansions = [k * radix + d
                                  for k in expansions for d in codes]
            else:  # UNCHARACTERIZED: the fact drops out entirely
                expansions = ()
                break
        if expansions is None:
            append_key(composed)
            append_fact(fid)
        else:
            for key in expansions:
                append_key(key)
                append_fact(fid)
    return keys, row_facts


def _decode_key(decodes: Sequence[Sequence[DimensionValue]],
                key: int) -> Combo:
    """A composed key decoded to its value combo, given each digit's
    decode table in digit order (a table's length is its radix)."""
    values: List[DimensionValue] = []
    for decode in reversed(decodes):
        key, code = divmod(key, len(decode))
        values.append(decode[code])
    values.reverse()
    return tuple(values)


#: one touched fact's rows in a patch: old rows ``[lo, hi)`` give way
#: to the new rows ``[new_lo, new_hi)`` (see :func:`_splice`)
Splice = Tuple[int, int, int, int]


def _splice(old: array, new: array, plan: Sequence[Splice]) -> array:
    """``old`` with each plan step's rows replaced by its rows of
    ``new``: slices and concatenation only, no per-row Python work."""
    out = array(old.typecode)
    start = 0
    for lo, hi, new_lo, new_hi in plan:
        out += old[start:lo]
        out += new[new_lo:new_hi]
        start = hi
    out += old[start:]
    return out


def _members_by_key(keys: Iterable[int], row_facts: Iterable[int]
                    ) -> Dict[int, List[int]]:
    """``composed key → fact ids of its rows``: the integer-level
    groups."""
    members: Dict[int, List[int]] = {}
    get = members.get
    for key, fid in zip(keys, row_facts):
        bucket = get(key)
        if bucket is None:
            members[key] = [fid]
        else:
            bucket.append(fid)
    return members


class MeasureColumn:
    """Per-fact measure summaries of one dimension, dense by fact id.

    ``counts[fid]`` is how many measures the fact has in the dimension
    (0 for none); ``sums``/``mins``/``maxs`` are its measure sum,
    minimum and maximum (0.0 placeholders when it has none).  When any
    fact of the MO carries a non-numeric surrogate, the column is
    *poisoned*: :attr:`error` holds an :class:`AlgebraError`,
    :attr:`poisoned` the offending fact ids, and the kernels refuse to
    use it, so the object path keeps the exact raise-only-if-grouped
    semantics.
    """

    __slots__ = ("counts", "sums", "mins", "maxs", "error", "poisoned",
                 "stamp")

    def __init__(self, size: int, stamp: Tuple[int, int]) -> None:
        self.counts = array("q", [0]) * size
        self.sums = array("d", [0.0]) * size
        self.mins = array("d", [0.0]) * size
        self.maxs = array("d", [0.0]) * size
        self.error: Optional[AlgebraError] = None
        self.poisoned: Set[int] = set()
        self.stamp = stamp

    def grown_copy(self, size: int, stamp: Tuple[int, int]
                   ) -> "MeasureColumn":
        """A copy stamped ``stamp`` and padded to ``size`` cells — the
        start of a patch, which leaves this column as it was for its
        holders."""
        pad = size - len(self.counts)
        copy = MeasureColumn(0, stamp)
        copy.counts = self.counts + array("q", [0]) * pad
        copy.sums = self.sums + array("d", [0.0]) * pad
        copy.mins = self.mins + array("d", [0.0]) * pad
        copy.maxs = self.maxs + array("d", [0.0]) * pad
        copy.error = self.error
        copy.poisoned = set(self.poisoned)
        return copy


class MeasureRows:
    """A :class:`MeasureColumn` gathered row-aligned with one grouping's
    key column — what :meth:`AggregationFunction.batch_apply` consumes.
    Shard workers gather their measure slice the same way, with row
    fact ids rebased to the slice."""

    __slots__ = ("counts", "sums", "mins", "maxs")

    def __init__(self, column: Union[MeasureColumn, "ShardMeasures"],
                 row_facts: Sequence[int]) -> None:
        self.counts = array("q", map(column.counts.__getitem__, row_facts))
        self.sums = array("d", map(column.sums.__getitem__, row_facts))
        self.mins = array("d", map(column.mins.__getitem__, row_facts))
        self.maxs = array("d", map(column.maxs.__getitem__, row_facts))

    def spliced(self, column: MeasureColumn, new_row_facts: array,
                plan: Sequence[Splice]) -> "MeasureRows":
        """These rows with a patch's :func:`_splice` plan applied: the
        touched facts' new rows (``new_row_facts``) gathered from
        ``column``, every other row carried over."""
        gathered = MeasureRows(column, new_row_facts)
        out = MeasureRows.__new__(MeasureRows)
        for name in MeasureRows.__slots__:
            setattr(out, name, _splice(getattr(self, name),
                                       getattr(gathered, name), plan))
        return out


class ColumnarGrouping:
    """One grouping laid out flat: row-aligned key and fact-id columns
    plus the decode tables to map keys back to value combos.

    Rows are in fact-id order, one row per fact × characterization
    combination; a fact appears at most once per distinct key (its
    value combinations are all distinct), so per-key row counts are
    exact group sizes.  All views are lazy and cached; treat everything
    as read-only.
    """

    __slots__ = ("_index", "_store", "items", "keys", "row_facts",
                 "_decodes", "_codes", "_rows_by_key", "_groups",
                 "_combos", "_measure_cache", "stamp")

    def __init__(self, index: RollupIndex, store: "ColumnarStore",
                 items: Tuple[Tuple[str, str], ...],
                 keys: array, row_facts: array,
                 decodes: List[Sequence[DimensionValue]],
                 codes: List[Optional[Dict[int, int]]],
                 stamp: tuple) -> None:
        self._index = index
        self._store = store
        #: the grouping as ``(dimension, category)`` pairs, in order
        self.items = items
        #: composed mixed-radix group key per row
        self.keys = keys
        #: interned fact id per row, aligned with :attr:`keys`
        self.row_facts = row_facts
        #: per grouped dimension, in :attr:`items` order: digit → value
        #: and value id → digit (``None`` at ⊤) — only the code tables:
        #: the value-id columns would pin superseded index arrays while
        #: a stale grouping stays cached
        self._decodes = decodes
        self._codes = codes
        self._rows_by_key: Optional[Dict[int, List[int]]] = None
        self._groups: Optional[Dict[Combo, frozenset]] = None
        self._combos: Optional[Dict[int, Combo]] = None
        self._measure_cache: Dict[str, Tuple[MeasureColumn, MeasureRows]] = {}
        self.stamp = stamp

    @property
    def n_rows(self) -> int:
        """How many (fact × characterization) rows the grouping has."""
        return len(self.keys)

    def rows_by_key(self) -> Dict[int, List[int]]:
        """``composed key → row fact ids`` (the integer-level groups)."""
        if self._rows_by_key is None:
            self._rows_by_key = _members_by_key(self.keys, self.row_facts)
        return self._rows_by_key

    def combos(self) -> Dict[int, Combo]:
        """Every distinct key decoded, cached."""
        if self._combos is None:
            self._combos = {key: _decode_key(self._decodes, key)
                            for key in self.rows_by_key()}
        return self._combos

    def groups(self) -> Dict[Combo, frozenset]:
        """The object-level view: value combo → the facts of the group
        (byte-identical to the object path's formation)."""
        if self._groups is None:
            facts_of = self._index.facts_of_ids
            combos = self.combos()
            self._groups = {
                combos[key]: frozenset(facts_of(fids))
                for key, fids in self.rows_by_key().items()
            }
        return self._groups

    def restricted(self, fact_ids: AbstractSet[int]) -> "ColumnarGrouping":
        """The rows of the facts ``fact_ids`` only (a dice's fact mask),
        sharing this layout's decode tables and measure columns; never
        cached, since the mask is per query."""
        keep = [fid in fact_ids for fid in self.row_facts]
        return ColumnarGrouping(
            self._index, self._store, self.items,
            array("q", compress(self.keys, keep)),
            array("q", compress(self.row_facts, keep)),
            self._decodes, self._codes, self.stamp)

    def patched(self, touched: Sequence[int], keys: array,
                row_facts: array, stamp: tuple) -> "ColumnarGrouping":
        """A new layout with the rows of the ascending fact ids
        ``touched`` replaced by ``keys``/``row_facts`` (their recomposed
        rows, in fact-id order), stamped ``stamp``.  The code tables
        stay, so every untouched row, key and decoded combo is carried
        over as is; the lazy views this layout has already built are
        carried too, recomputing only the keys whose rows moved."""
        old_keys, old_facts = self.keys, self.row_facts
        plan: List[Splice] = []
        lo = new_lo = 0
        for fid in touched:
            lo = bisect_left(old_facts, fid, lo)
            hi = bisect_right(old_facts, fid, lo)
            new_hi = bisect_right(row_facts, fid, new_lo)
            if hi > lo or new_hi > new_lo:
                plan.append((lo, hi, new_lo, new_hi))
            lo, new_lo = hi, new_hi
        out = ColumnarGrouping(
            self._index, self._store, self.items,
            _splice(old_keys, keys, plan),
            _splice(old_facts, row_facts, plan),
            self._decodes, self._codes, stamp)
        if self._rows_by_key is not None:
            self._carry_views(out, plan, keys, row_facts)
        names = [name for name, _ in self.items]
        facts_version, versions = self.stamp
        for name, (column, rows) in self._measure_cache.items():
            # the touched facts cover every measure that moved since this
            # layout's stamp: carry rows gathered at exactly that stamp
            if (name not in names or column.stamp
                    != (versions[names.index(name)][1], facts_version)):
                continue
            fresh = self._store.measure_column(name)
            if fresh.error is None:
                out._measure_cache[name] = (
                    fresh, rows.spliced(fresh, row_facts, plan))
        return out

    def _carry_views(self, out: "ColumnarGrouping", plan: Sequence[Splice],
                     keys: array, row_facts: array) -> None:
        """Give ``out`` this layout's lazy views with a patch applied:
        a key whose rows moved gets its fact-id list (and group) redone
        from the moved rows; every other key's entry is shared."""
        gone: Dict[int, Set[int]] = {}
        came: Dict[int, Set[int]] = {}
        for lo, hi, new_lo, new_hi in plan:
            for key, fid in zip(self.keys[lo:hi], self.row_facts[lo:hi]):
                gone.setdefault(key, set()).add(fid)
            for key, fid in zip(keys[new_lo:new_hi], row_facts[new_lo:new_hi]):
                came.setdefault(key, set()).add(fid)
        rows_by_key = dict(self._rows_by_key)
        combos = dict(self.combos())
        groups = None if self._groups is None else dict(self._groups)
        facts_of = self._index.facts_of_ids
        for key in gone.keys() | came.keys():
            left = gone.get(key, set()) - came.get(key, set())
            joined = came.get(key, set()) - gone.get(key, set())
            if not left and not joined:
                continue
            fids = list(rows_by_key.get(key, ()))
            for fid in left:
                del fids[bisect_left(fids, fid)]
            for fid in joined:
                insort(fids, fid)
            combo = (combos[key] if key in combos
                     else _decode_key(self._decodes, key))
            if not fids:
                del rows_by_key[key], combos[key]
                if groups is not None:
                    del groups[combo]
                continue
            rows_by_key[key] = fids
            combos[key] = combo
            if groups is not None:
                members = groups.get(combo)
                groups[combo] = (
                    frozenset(facts_of(fids)) if members is None
                    else members.difference(facts_of(left)).union(
                        facts_of(joined)))
        out._rows_by_key = rows_by_key
        out._combos = combos
        out._groups = groups

    def measure_rows(self, dimension_name: str,
                     column: MeasureColumn) -> MeasureRows:
        """The column gathered row-aligned, cached per column identity
        (a rebuilt measure column invalidates the gather even when the
        grouping itself is still fresh)."""
        cached = self._measure_cache.get(dimension_name)
        if cached is not None and cached[0] is column:
            return cached[1]
        rows = MeasureRows(column, self.row_facts)
        self._measure_cache[dimension_name] = (column, rows)
        return rows

    def evaluate(self, function: AggregationFunction
                 ) -> Optional[Dict[Combo, object]]:
        """Run the function's batch kernel over every group at once.

        Returns ``combo → result`` with exactly the keys of
        :meth:`groups`, or ``None`` when the function has no kernel or
        an argument measure column is poisoned — the caller must then
        fall back to per-group :meth:`AggregationFunction.apply`.
        """
        if not has_batch_kernel(function):
            return None
        measures: Dict[str, MeasureRows] = {}
        for name in function.args:
            column = self._store.measure_column(name)
            if column.error is not None:
                return None
            measures[name] = self.measure_rows(name, column)
        by_key = function.batch_apply(self.keys, measures)
        if by_key is None:  # pragma: no cover - kernels never decline
            return None
        combos = self.combos()
        return {combos[key]: value for key, value in by_key.items()}


class ColumnarStore:
    """The per-MO cache of columnar groupings and measure columns.

    Obtained via :meth:`RollupIndex.columnar`.  Groupings are cached by
    their ``(dimension, category)`` item sequence (order-sensitive: the
    combo tuples follow it) and stamped with the MO's fact-set version
    plus the grouped dimensions' order/relation version pairs; measure
    columns are stamped with the relation version and fact-set version.
    Stale entries are never served: on access they are patched from the
    change logs (the relations' and ``mo.fact_log``), recomputing only
    the facts the span since their stamp touched — removals included —
    or rebuilt when the span holds an order change or a log gap, when
    it touches too many facts, when a touched fact's value falls
    outside a layout's code tables or a coded value lost its last fact,
    or when the index's ``delta_enabled`` is off.
    A patch returns a new object, so holders of the old one keep a
    consistent snapshot.
    """

    def __init__(self, index: RollupIndex) -> None:
        self._index = index
        self._groupings: Dict[Tuple[Tuple[str, str], ...],
                              ColumnarGrouping] = {}
        self._measures: Dict[str, MeasureColumn] = {}

    def _grouping_stamp(self, items: Tuple[Tuple[str, str], ...]) -> tuple:
        mo = self._index.mo
        return (
            mo.facts_version,
            tuple((mo.dimension(name).order.version,
                   mo.relation(name).version) for name, _ in items),
        )

    def peek(self, grouping: Mapping[str, str]) -> Optional[ColumnarGrouping]:
        """A cached *fresh* grouping, or ``None`` — never builds (the
        cuboid-sizing fast path wants a free answer or nothing)."""
        items = tuple(grouping.items())
        entry = self._groupings.get(items)
        if entry is not None and entry.stamp == self._grouping_stamp(items):
            return entry
        return None

    def grouping(self, grouping: Mapping[str, str]
                 ) -> Optional[ColumnarGrouping]:
        """The columnar layout of a grouping (category per dimension;
        ⊤ categories are radix-1 components).  Served from cache while
        fresh, patched or rebuilt otherwise; ``None`` when the radix product
        overflows :data:`MAX_COMPOSED_KEY` (fall back to the object
        path)."""
        items = tuple(grouping.items())
        stamp = self._grouping_stamp(items)
        entry = self._groupings.get(items)
        if entry is not None and entry.stamp == stamp:
            _HITS.inc()
            return entry
        if entry is not None:
            entry = self._patch_grouping(entry, stamp)
        if entry is None:
            entry = self._build_grouping(items, stamp)
            if entry is None:
                return None
        self._groupings[items] = entry
        return entry

    def _touched(self, facts_version: int,
                 relations: Iterable[Tuple[str, int]]) -> Optional[Set[int]]:
        """The ids of every fact a write since ``facts_version`` (and,
        per ``(dimension, relation version)``, since that version)
        inserted, related or unrelated — the only facts whose rows or
        measures can differ — or ``None`` when a log cannot replay its
        span (an aged out entry) or the index's ``delta_enabled`` is
        off."""
        if not self._index.delta_enabled:
            return None
        mo = self._index.mo
        ops = mo.fact_log.since(facts_version, mo.facts_version)
        if ops is None:
            return None
        facts: List[Fact] = [fact for _, fact in ops]
        for name, version in relations:
            relation = mo.relation(name)
            ops = relation.change_log.since(version, relation.version)
            if ops is None:
                return None
            facts.extend(fact for _, fact, _ in ops)
        return set(map(self._index.fact_id, facts))

    def _patch_grouping(self, entry: ColumnarGrouping, stamp: tuple
                        ) -> Optional[ColumnarGrouping]:
        """``entry`` brought to ``stamp`` by recomposing only the touched
        facts' rows with the entry's own code tables, or ``None`` when
        only a rebuild is exact (see the class docstring)."""
        old_facts_version, old_versions = entry.stamp
        if [order for order, _ in old_versions] != \
                [order for order, _ in stamp[1]]:
            return None  # an order change can move every fact
        names = [name for name, _ in entry.items]
        touched = self._touched(old_facts_version, zip(
            names, (relation for _, relation in old_versions)))
        if touched is None or len(touched) > max(16, len(entry.keys) // 2):
            return None
        index = self._index
        digits: List[KeyDigit] = []
        for (name, category), code, decode in zip(
                entry.items, entry._codes, entry._decodes):
            if code is None:  # ⊤: digit 0 for every fact
                digits.append(KeyDigit(name, 1, None, {}, {}, decode))
                continue
            column, multi = index.grouping_value_id_array(name, category)
            for fid in touched:
                vid = column[fid] if fid < len(column) else UNCHARACTERIZED
                vids = multi[fid] if vid == MULTI_VALUED else (vid,)
                if any(v >= 0 and v not in code for v in vids):
                    return None  # a new value: a fresh build's codes differ
            if not index.all_characterize(name, code):
                return None  # a value lost its last fact: likewise
            digits.append(KeyDigit(name, len(decode), column, multi, code,
                                   decode))
        with trace.span("columnar.patch", grouping=entry.items,
                        facts=len(touched)):
            order = sorted(touched)
            in_f = index.mo_fact_ids()
            keys, row_facts = _compose_keys(
                digits, [fid for fid in order if fid in in_f])
            _PATCHES.inc()
            return entry.patched(order, keys, row_facts, stamp)

    def _build_grouping(self, items: Tuple[Tuple[str, str], ...],
                        stamp: tuple) -> Optional[ColumnarGrouping]:
        index = self._index
        with trace.span("columnar.build", grouping=items):
            digits = _key_layout(index, items)
            if digits is None:
                _RADIX_FALLBACK.inc()
                return None
            keys, row_facts = _compose_keys(digits,
                                            sorted(index.mo_fact_ids()))
            _BUILDS.inc()
            return ColumnarGrouping(
                index, self, items, keys, row_facts,
                [digit.decode for digit in digits],
                [None if digit.column is None else digit.code
                 for digit in digits], stamp)

    def measure_column(self, dimension_name: str) -> MeasureColumn:
        """The per-fact measure summaries of one dimension, patched or
        rebuilt when the dimension's relation or the MO's fact set
        moved."""
        index = self._index
        mo = index.mo
        stamp = (mo.relation(dimension_name).version, mo.facts_version)
        cached = self._measures.get(dimension_name)
        if cached is not None and cached.stamp == stamp:
            return cached
        column = (None if cached is None else
                  self._patch_measure_column(dimension_name, cached, stamp))
        if column is None:
            _MEASURE_BUILDS.inc()
            fact_ids = index.mo_fact_ids()
            column = MeasureColumn(
                (max(fact_ids) + 1) if fact_ids else 0, stamp)
            self._fill(column, dimension_name, mo.facts)
        if column.error is not None:
            _MEASURE_POISONED.inc()
        self._measures[dimension_name] = column
        return column

    def _patch_measure_column(self, dimension_name: str,
                              cached: MeasureColumn, stamp: Tuple[int, int]
                              ) -> Optional[MeasureColumn]:
        """A copy of ``cached`` with the touched facts' cells redone, or
        ``None`` when only a rebuild is exact."""
        relation_version, facts_version = cached.stamp
        touched = self._touched(facts_version,
                                [(dimension_name, relation_version)])
        if touched is None or \
                len(touched) > max(16, len(cached.counts) // 2):
            return None
        touched &= self._index.mo_fact_ids()  # F's facts have cells
        column = cached.grown_copy(
            max(len(cached.counts), max(touched, default=-1) + 1), stamp)
        for fid in touched:
            column.counts[fid] = 0
            column.sums[fid] = column.mins[fid] = column.maxs[fid] = 0.0
        column.poisoned -= touched
        if not column.poisoned:
            column.error = None
        self._fill(column, dimension_name, self._index.facts_of_ids(touched))
        return column

    def _fill(self, column: MeasureColumn, dimension_name: str,
              facts: Iterable[Fact]) -> None:
        """Write each fact's measure summary into its cells of
        ``column``."""
        index = self._index
        mo = index.mo
        counts, sums = column.counts, column.sums
        mins, maxs = column.mins, column.maxs
        for fact in facts:
            fid = index.fact_id(fact)
            try:
                ms = measures_of(mo, dimension_name, fact)
            except AlgebraError as exc:
                # poisoned: this fact's surrogate is non-numeric; kernels
                # refuse the column so the object path raises exactly
                # when a bad fact is actually grouped
                column.error = exc
                column.poisoned.add(fid)
                continue
            if ms:
                counts[fid] = len(ms)
                sums[fid] = sum(ms)
                mins[fid] = min(ms)
                maxs[fid] = max(ms)
