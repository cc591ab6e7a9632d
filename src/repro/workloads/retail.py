"""The retail workload of the paper's introduction.

"In a retail business, products are sold to customers at certain times
in certain amounts at certain prices.  A typical fact would be a
purchase, with the amount and price as the measures, and the customer
purchasing the product, the product being purchased, and the time of
purchase as the dimensions."

This generator builds that MO — treating Amount and Price as dimensions
too, per the model's symmetric view — with the usual retail hierarchies
(Product < Category < Department; Customer < City < Region;
Day < Month < Year).  It backs the second-domain example and the
cross-domain benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.aggtypes import AggregationType
from repro.core.category import CategoryType
from repro.core.dimension import Dimension, DimensionType
from repro.core.helpers import make_numeric_dimension
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact, SurrogateSource

__all__ = ["RetailConfig", "RetailWorkload", "generate_retail"]


@dataclass(frozen=True)
class RetailConfig:
    """Parameters of a synthetic retail workload."""

    n_purchases: int = 200
    n_departments: int = 3
    categories_per_department: int = 4
    products_per_category: int = 10
    n_regions: int = 2
    cities_per_region: int = 3
    customers_per_city: int = 5
    n_days: int = 90
    max_amount: int = 10
    max_price: int = 500
    seed: int = 0


@dataclass
class RetailWorkload:
    """The generated MO plus value inventories for the benchmarks."""

    mo: MultidimensionalObject
    products: List[DimensionValue] = field(default_factory=list)
    categories: List[DimensionValue] = field(default_factory=list)
    departments: List[DimensionValue] = field(default_factory=list)
    customers: List[DimensionValue] = field(default_factory=list)
    cities: List[DimensionValue] = field(default_factory=list)
    days: List[DimensionValue] = field(default_factory=list)
    purchases: List[Fact] = field(default_factory=list)


def _linear(name: str, levels: List[str]) -> Dimension:
    ctypes = [
        CategoryType(level, AggregationType.CONSTANT, is_bottom=(i == 0))
        for i, level in enumerate(levels)
    ]
    edges = [(levels[i], levels[i + 1]) for i in range(len(levels) - 1)]
    # generation links every child to exactly one parent, so the chain
    # hierarchies are strict and partitioning — declared for the
    # analyzer
    return Dimension(DimensionType(
        name, ctypes, edges,
        declared_strict=True, declared_partitioning=True))


def generate_retail(config: RetailConfig = RetailConfig()) -> RetailWorkload:
    """Generate a retail workload (deterministic in ``config``)."""
    rng = random.Random(config.seed)
    surrogates = SurrogateSource(start=1)
    workload = RetailWorkload(mo=None)  # type: ignore[arg-type]

    product = _linear("Product", ["Product", "Category", "Department"])
    for d in range(config.n_departments):
        dept = surrogates.fresh_value(label=f"Dept{d}")
        product.add_value("Department", dept)
        workload.departments.append(dept)
        for c in range(config.categories_per_department):
            cat = surrogates.fresh_value(label=f"Cat{d}.{c}")
            product.add_value("Category", cat)
            product.add_edge(cat, dept)
            workload.categories.append(cat)
            for p in range(config.products_per_category):
                item = surrogates.fresh_value(label=f"P{d}.{c}.{p}")
                product.add_value("Product", item)
                product.add_edge(item, cat)
                workload.products.append(item)

    customer = _linear("Customer", ["Customer", "City", "Region"])
    for r in range(config.n_regions):
        region = surrogates.fresh_value(label=f"Region{r}")
        customer.add_value("Region", region)
        for c in range(config.cities_per_region):
            city = surrogates.fresh_value(label=f"City{r}.{c}")
            customer.add_value("City", city)
            customer.add_edge(city, region)
            workload.cities.append(city)
            for k in range(config.customers_per_city):
                cust = surrogates.fresh_value(label=f"Cust{r}.{c}.{k}")
                customer.add_value("Customer", cust)
                customer.add_edge(cust, city)
                workload.customers.append(cust)

    date = _linear("Date", ["Day", "Month", "Year"])
    months: Dict[Tuple[int, int], DimensionValue] = {}
    years: Dict[int, DimensionValue] = {}
    for offset in range(config.n_days):
        year, month = 1998 + offset // 360, (offset // 30) % 12 + 1
        day_value = surrogates.fresh_value(label=f"D{offset}")
        date.add_value("Day", day_value)
        workload.days.append(day_value)
        month_value = months.get((year, month))
        if month_value is None:
            month_value = surrogates.fresh_value(label=f"{year}-{month:02d}")
            date.add_value("Month", month_value)
            months[(year, month)] = month_value
            year_value = years.get(year)
            if year_value is None:
                year_value = surrogates.fresh_value(label=str(year))
                date.add_value("Year", year_value)
                years[year] = year_value
            date.add_edge(month_value, year_value)
        date.add_edge(day_value, month_value)

    amount = make_numeric_dimension(
        "Amount", range(1, config.max_amount + 1),
        aggtype=AggregationType.SUM,
        declared_strict=True, declared_partitioning=True)
    price = make_numeric_dimension(
        "Price", range(1, config.max_price + 1),
        aggtype=AggregationType.SUM,
        declared_strict=True, declared_partitioning=True)

    dimensions = {
        "Product": product,
        "Customer": customer,
        "Date": date,
        "Amount": amount,
        "Price": price,
    }
    schema = FactSchema("Purchase", [d.dtype for d in dimensions.values()])
    mo = MultidimensionalObject(schema=schema, dimensions=dimensions)
    for _ in range(config.n_purchases):
        purchase = surrogates.fresh_fact(ftype="Purchase")
        mo.add_fact(purchase)
        workload.purchases.append(purchase)
        mo.relate(purchase, "Product", rng.choice(workload.products))
        mo.relate(purchase, "Customer", rng.choice(workload.customers))
        mo.relate(purchase, "Date", rng.choice(workload.days))
        mo.relate(purchase, "Amount",
                  DimensionValue(sid=rng.randint(1, config.max_amount)))
        mo.relate(purchase, "Price",
                  DimensionValue(sid=rng.randint(1, config.max_price)))
    workload.mo = mo
    return workload
