"""Shared fixtures: case-study MOs and small workloads."""

from __future__ import annotations

import pytest

from repro.casestudy import case_study_mo
from repro.casestudy.icd import IcdShape
from repro.workloads import (
    ClinicalConfig,
    RetailConfig,
    generate_clinical,
    generate_retail,
)


@pytest.fixture(scope="session")
def snapshot_mo():
    """The case study MO with temporal annotations collapsed."""
    return case_study_mo(temporal=False)


@pytest.fixture(scope="session")
def valid_time_mo():
    """The case study MO with Table 1's validity intervals."""
    return case_study_mo(temporal=True)


@pytest.fixture(scope="session")
def valid_time_mo_ex10():
    """The valid-time case study MO with Example 10's link 8 ≤ 11."""
    return case_study_mo(temporal=True, include_example10_link=True)


@pytest.fixture(scope="session")
def small_clinical():
    """A small seeded clinical workload (strict shares of non-strict
    links so both code paths are exercised)."""
    return generate_clinical(ClinicalConfig(
        n_patients=60,
        icd=IcdShape(n_groups=3, families_per_group=(2, 4),
                     lowlevels_per_family=(2, 4), extra_parent_prob=0.15),
        seed=1234,
    ))


@pytest.fixture(scope="session")
def strict_clinical():
    """A clinical workload with a fully strict classification and only
    low-level diagnoses (summarizable everywhere)."""
    return generate_clinical(ClinicalConfig(
        n_patients=60,
        diagnoses_per_patient=(1, 1),
        family_granularity_prob=0.0,
        icd=IcdShape(n_groups=3, families_per_group=(2, 4),
                     lowlevels_per_family=(2, 4), extra_parent_prob=0.0),
        seed=99,
    ))


@pytest.fixture(scope="session")
def two_group_clinical():
    """200 patients on the benchmark's ICD shape, some of whom reach
    ``icd.groups[2]`` and ``icd.groups[4]`` only through different
    diagnoses: a σ per dice keeps them, one σ over the conjunction of
    the dices does not."""
    return generate_clinical(ClinicalConfig(
        n_patients=200,
        icd=IcdShape(n_groups=5, families_per_group=(3, 6),
                     lowlevels_per_family=(3, 6), extra_parent_prob=0.1),
        seed=1,
    ))


@pytest.fixture(scope="session")
def small_retail():
    """A small seeded retail workload."""
    return generate_retail(RetailConfig(n_purchases=120, seed=5))
