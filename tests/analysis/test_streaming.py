"""Streaming folds vs batch row accumulation: byte-identical tables.

Converting the adoption aggregator from retained-row accumulation to
an incremental fold must not change a single output byte, serial or
sharded.  The legacy row worker is kept in-tree
(``run_adoption_sweep_rows``) precisely so these tests can keep
comparing the two pipelines end to end.  The device matrix has one
worker; its table is compared serial vs sharded.
"""

import pytest

from repro.analysis.adoption import (
    run_adoption_sweep,
    run_adoption_sweep_rows,
    sweep_table,
    windows_refresh_mixes,
)
from repro.analysis.matrix import run_device_matrix_table
from repro.core.metrics import AdoptionFold, CensusFold, ClientCensus
from repro.core.testbed import TestbedConfig
from repro.net.addresses import MacAddress


@pytest.mark.parametrize("jobs", [1, 4])
def test_adoption_streaming_fold_matches_row_path(jobs):
    mixes = windows_refresh_mixes(fleet_size=10)
    config = TestbedConfig()
    streaming = sweep_table(run_adoption_sweep(mixes, config, jobs=jobs))
    rows = sweep_table(run_adoption_sweep_rows(mixes, config, jobs=jobs))
    assert streaming == rows


def test_adoption_streaming_fold_matches_row_path_intervention_off():
    mixes = windows_refresh_mixes(fleet_size=8)
    config = TestbedConfig(poisoned_dns=False)
    assert sweep_table(run_adoption_sweep(mixes, config)) == sweep_table(
        run_adoption_sweep_rows(mixes, config)
    )


def test_matrix_streaming_table_serial_vs_sharded():
    config = TestbedConfig()
    assert run_device_matrix_table(config, jobs=1) == run_device_matrix_table(
        config, jobs=4
    )


def test_census_fold_merge_is_addition():
    a = CensusFold()
    b = CensusFold()
    a.observe_flags(True, False, True, True, True)  # dual-stack
    b.observe_flags(False, True, True, False, True)  # RFC 8925 v6-only
    b.observe_flags(True, False, False, True, False)  # ipv4-only
    merged = CensusFold()
    merged.merge(a)
    merged.merge(b)
    assert merged.total == 3
    assert merged.naive_v6only == 2
    assert merged.accurate_v6only == 1
    assert sum(merged.by_class.values()) == 3


def test_census_table_view_delegates_to_fold():
    census = ClientCensus()
    census.observe("a", MacAddress(0x020000000001), True, False, True, True, True)
    census.observe("b", MacAddress(0x020000000002), False, True, True, False, True)
    assert census.fold.total == 2
    assert census.naive_ipv6_only_count() == census.fold.naive_ipv6_only_count()
    assert census.accurate_ipv6_only_count() == 1
    assert sum(census.breakdown().values()) == 2
    assert len(census.rows) == 2  # the table view still keeps its rows


def test_adoption_fold_bulk_equals_per_device():
    per_device = AdoptionFold()
    for _ in range(7):
        per_device.add_device(True, False, intervened=True, counts_v6only=False)
    bulk = AdoptionFold()
    bulk.add_bulk(7, True, False, intervened=True, counts_v6only=False)
    assert (
        per_device.total,
        per_device.ipv4_leases,
        per_device.rfc8925_grants,
        per_device.intervened,
        per_device.accurate_v6only,
    ) == (bulk.total, bulk.ipv4_leases, bulk.rfc8925_grants, bulk.intervened, bulk.accurate_v6only)
