"""Seeded op streams for the four benchmark workloads.

Every generator here is a pure function of ``(seed, inventory)``: the
inventory is the list of surrogate ids the generated clinical MO holds
(itself a pure function of the seed), so the same seed always yields
the same stream.  Streams carry surrogate ids only, never live objects;
:mod:`perfbench.workloads` resolves them against an MO.

A query spec is the canonical triple ``(grouping, dices, function)``:

* ``grouping`` -- sorted ``((dimension, category), ...)``, 1-2 entries;
* ``dices`` -- sorted ``(("Residence", value sid), ...)``, 0-2 entries;
* ``function`` -- ``(name, argument dimension or None)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Grouping = Tuple[Tuple[str, str], ...]
Dices = Tuple[Tuple[str, int], ...]
FunctionSpec = Tuple[str, Optional[str]]
QuerySpec = Tuple[Grouping, Dices, FunctionSpec]

#: the clinical schema's categories, bottom first (⊤ excluded)
CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "Diagnosis": ("Low-level Diagnosis", "Diagnosis Family",
                  "Diagnosis Group"),
    "Residence": ("Area", "County", "Region"),
    "Age": ("Age", "Five-year group", "Ten-year group"),
}

SET_COUNT: FunctionSpec = ("SetCount", None)
SUM: FunctionSpec = ("Sum", "Age")
AVG: FunctionSpec = ("Avg", "Age")
MIN: FunctionSpec = ("Min", "Age")
MAX: FunctionSpec = ("Max", "Age")
MEDIAN: FunctionSpec = ("Median", "Age")

#: reads that follow each ingest write batch
INGEST_READS = 4
#: existing patients re-linked per ingest write batch
INGEST_RELINKS = 4
#: every this-many-th ingest batch is a correction (remove + re-relate)
INGEST_CORRECTION_EVERY = 20
#: surrogate ids of patients added by ingest start here, far above the
#: generator's ids
NEW_PATIENT_BASE = 1_000_000


@dataclass(frozen=True)
class Inventory:
    """The surrogate ids of one generated clinical MO that streams draw
    from.  ``counties`` pairs each county with its region."""

    regions: Tuple[int, ...]
    counties: Tuple[Tuple[int, int], ...]
    low_levels: Tuple[int, ...]
    areas: Tuple[int, ...]
    ages: Tuple[int, ...]
    patients: Tuple[int, ...]


def _groupings(levels: Sequence[int]) -> List[Grouping]:
    """Every 1- and 2-dimension grouping whose categories sit at the
    given levels (0 = bottom) of their dimension."""
    singles = [(dim, CATEGORIES[dim][level])
               for dim in sorted(CATEGORIES) for level in levels]
    out: List[Grouping] = [(single,) for single in singles]
    for a, b in itertools.combinations(singles, 2):
        if a[0] != b[0]:
            out.append(tuple(sorted((a, b))))
    return out


# -- dashboard -----------------------------------------------------------


_DG = ("Diagnosis", "Diagnosis Group")
_DF = ("Diagnosis", "Diagnosis Family")
_CO = ("Residence", "County")
_RE = ("Residence", "Region")
_A5 = ("Age", "Five-year group")
_A10 = ("Age", "Ten-year group")

#: the dashboard's shape in popularity order: (grouping, function,
#: diced on a Region).  Every seed replays the same shape, so the cost
#: mix is the same; the seed picks the MO, the diced regions and the
#: replay sequence.  Eight queries per function, a quarter diced; a
#: set-count always groups two dimensions or dices, so it never takes
#: the index fast path, whose result is too cheap for the cache to
#: admit.
DASHBOARD_SHAPE: Tuple[Tuple[Grouping, FunctionSpec, bool], ...] = (
    ((_DG, _RE), SET_COUNT, False),
    ((_DG,), SUM, False),
    ((_RE, _A10), AVG, False),
    ((_DF,), SET_COUNT, True),
    ((_CO,), SUM, False),
    ((_DF, _CO), SET_COUNT, False),
    ((_A10,), AVG, False),
    ((_DG, _A5), SUM, True),
    ((_DF,), AVG, False),
    ((_RE, _A5), SET_COUNT, False),
    ((_CO, _A10), SUM, False),
    ((_DG,), AVG, True),
    ((_A5,), SUM, False),
    ((_DG, _A10), SET_COUNT, False),
    ((_RE,), AVG, False),
    ((_DF, _RE), SUM, True),
    ((_CO,), SET_COUNT, True),
    ((_DF, _A10), AVG, False),
    ((_RE,), SUM, False),
    ((_DG, _CO), AVG, False),
    ((_CO, _A5), SET_COUNT, True),
    ((_A5,), AVG, False),
    ((_DF, _A5), SUM, False),
    ((_DG, _A5), SET_COUNT, False),
)


def dashboard_queries(seed: int, inventory: Inventory) -> List[QuerySpec]:
    """The fixed set of distinct dashboard queries, in popularity order
    (index 0 is the most popular): :data:`DASHBOARD_SHAPE` with seeded
    Region dices."""
    rng = random.Random(f"dashboard:{seed}")
    return [
        (tuple(sorted(grouping)),
         (("Residence", rng.choice(inventory.regions)),) if diced else (),
         function)
        for grouping, function, diced in DASHBOARD_SHAPE
    ]


def dashboard_stream(seed: int) -> Iterator[int]:
    """An endless Zipf-skewed replay of dashboard query indices."""
    rng = random.Random(f"dashboard-replay:{seed}")
    population = range(len(DASHBOARD_SHAPE))
    weights = [1.0 / (rank + 1) for rank in population]
    while True:
        yield from rng.choices(population, weights, k=256)


# -- adhoc / offload -----------------------------------------------------


def _dice_options(inventory: Inventory) -> Dict[str, List[Dices]]:
    """Dice sets by shape: none, one Region, one County, or a Region
    plus a County inside it (two dices on one dimension)."""
    return {
        "none": [()],
        "region": [(("Residence", r),) for r in inventory.regions],
        "county": [(("Residence", c),) for c, _ in inventory.counties],
        "region+county": [
            tuple(sorted((("Residence", r), ("Residence", c))))
            for c, r in inventory.counties
        ],
    }


_DICE_SHAPES = ("none", "region", "county", "region+county")


def _distinct_stream(rng: random.Random, inventory: Inventory,
                     functions: Sequence[FunctionSpec]) -> Iterator[QuerySpec]:
    """Blocks of 36 queries, one per grouping.  In block ``b``, grouping
    ``g`` takes dice shape ``(g + b) % 4`` and function
    ``(g + 2b) % len(functions)``, so every block has the same mix of
    shapes and functions and every four blocks pair each grouping with
    each shape: the query mix, which sets the cost, is the same for
    every seed.  The seed orders each block and picks the dice values.
    A spec already issued is redrawn, moving to the next function after
    every four tries and to the next shape after every 64 (a grouping
    runs out of undiced specs after about 24 blocks)."""
    groupings = _groupings((0, 1, 2))
    options = _dice_options(inventory)
    seen = set()
    for block in itertools.count():
        order = list(range(len(groupings)))
        rng.shuffle(order)
        for g in order:
            for attempt in range(4 * 64):
                shape = _DICE_SHAPES[(g + block + attempt // 64)
                                     % len(_DICE_SHAPES)]
                function = functions[(g + 2 * block + attempt // 4)
                                     % len(functions)]
                spec = (groupings[g], rng.choice(options[shape]), function)
                if spec not in seen:
                    break
            else:
                raise RuntimeError("distinct query space exhausted")
            seen.add(spec)
            yield spec


#: the adhoc function cycle: 1 in 12 is Median, which has no batch
#: kernel and so takes the object path
ADHOC_FUNCTIONS: Tuple[FunctionSpec, ...] = (
    SET_COUNT, SUM, AVG, MIN, MAX, SET_COUNT, SUM, AVG, MIN, MAX,
    SET_COUNT, MEDIAN)
OFFLOAD_FUNCTIONS: Tuple[FunctionSpec, ...] = (SET_COUNT, SUM, AVG, MIN, MAX)


def adhoc_stream(seed: int, inventory: Inventory) -> Iterator[QuerySpec]:
    """An endless stream of distinct queries, bottoms included."""
    return _distinct_stream(random.Random(f"adhoc:{seed}"), inventory,
                            ADHOC_FUNCTIONS)


def offload_stream(seed: int, inventory: Inventory) -> Iterator[QuerySpec]:
    """An adhoc-style distinct stream without Median."""
    return _distinct_stream(random.Random(f"offload:{seed}"), inventory,
                            OFFLOAD_FUNCTIONS)


# -- ingest --------------------------------------------------------------


@dataclass(frozen=True)
class WriteBatch:
    """One ingest write batch, as surrogate ids.

    ``relinks`` are ``(patient, low-level diagnosis)`` pairs to relate;
    ``new_patient`` is ``(patient, age, area, low-level diagnosis)``;
    ``correction`` is ``(patient, low-level diagnosis)``: remove every
    Diagnosis pair of the patient, then relate it to the diagnosis."""

    relinks: Tuple[Tuple[int, int], ...]
    new_patient: Tuple[int, int, int, int]
    correction: Optional[Tuple[int, int]]


#: an ingest op: a write batch, or the index of a dashboard query
IngestOp = Tuple[str, object]


def ingest_stream(seed: int, inventory: Inventory) -> Iterator[IngestOp]:
    """Endless steps of one write batch followed by
    :data:`INGEST_READS` Zipf-skewed dashboard reads."""
    rng = random.Random(f"ingest:{seed}")
    reads = dashboard_stream(seed)
    patients, low_levels = inventory.patients, inventory.low_levels
    for step in itertools.count():
        relinks = tuple((rng.choice(patients), rng.choice(low_levels))
                        for _ in range(INGEST_RELINKS))
        new_patient = (NEW_PATIENT_BASE + step, rng.choice(inventory.ages),
                       rng.choice(inventory.areas), rng.choice(low_levels))
        correction = None
        if step % INGEST_CORRECTION_EVERY == INGEST_CORRECTION_EVERY - 1:
            correction = (rng.choice(patients), rng.choice(low_levels))
        yield ("write", WriteBatch(relinks, new_patient, correction))
        for _ in range(INGEST_READS):
            yield ("read", next(reads))
