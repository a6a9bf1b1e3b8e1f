"""The closed-form fleet sweep: equivalence, golden tables, memory scaling."""

import contextlib
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __main__ as cli

from repro.analysis.adoption import (
    FleetMix,
    run_adoption_sweep,
    windows_refresh_mixes,
)
from repro.analysis.fleet import (
    _fold_state,
    _runs_for_mix,
    calibrate_fleet,
    distinct_profiles,
    fold_fleet,
    fold_runs,
    run_fleet_adoption_sweep,
    run_fleet_adoption_sweep_stats,
)
from repro.clients.fleet import calibrate_profiles, outcome_tables
from repro.clients.profiles import (
    ALL_PROFILES,
    LEGACY_IOT,
    MACOS,
    WINDOWS_10,
    WINDOWS_11_RFC8925,
)
from repro.core.testbed import Testbed, TestbedConfig
from repro.parallel import SweepExecutor
from repro.sim.fleet import FleetState, OUTCOME_COLUMNS

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def as_tuples(points):
    return [
        (p.label, p.total, p.ipv4_leases, p.rfc8925_grants, p.intervened, p.accurate_v6only)
        for p in points
    ]


def test_fleet_sweep_matches_object_path():
    """The tentpole equivalence: per-profile calibration broadcast over
    columns must reproduce the live-client sweep's counts exactly."""
    mixes = windows_refresh_mixes(fleet_size=12)
    assert as_tuples(run_fleet_adoption_sweep(mixes)) == as_tuples(
        run_adoption_sweep(mixes)
    )


def test_fleet_sweep_equivalence_with_intervention_off():
    config = TestbedConfig(poisoned_dns=False)
    mixes = windows_refresh_mixes(fleet_size=10)
    assert as_tuples(run_fleet_adoption_sweep(mixes, config)) == as_tuples(
        run_adoption_sweep(mixes, config)
    )


def run_cli(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return stdout.getvalue()


@pytest.mark.parametrize("devices", [100_000, 200_000, 1_000_000, 10_000_000])
def test_fleet_cli_matches_golden_table(devices):
    """``python -m repro fleet`` stdout, pinned byte-for-byte to tables
    captured from the materialised columnar sweep this closed form
    replaced."""
    golden = (GOLDEN / f"fleet_{devices}.txt").read_text()
    assert run_cli("fleet", "--devices", str(devices), "--jobs", "2") == golden


def test_fleet_cli_starts_no_worker_pool(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the fleet command dispatched shards")

    monkeypatch.setattr(SweepExecutor, "run", refuse)
    assert run_cli("fleet", "--devices", "1000", "--jobs", "4").startswith("stage")


_CALIBRATIONS = {}


def _calibration_by_name(poisoned_dns):
    """Every profile calibrated once per intervention setting."""
    if poisoned_dns not in _CALIBRATIONS:
        outcomes = calibrate_profiles(ALL_PROFILES, TestbedConfig(poisoned_dns=poisoned_dns))
        _CALIBRATIONS[poisoned_dns] = {outcome.name: outcome for outcome in outcomes}
    return _CALIBRATIONS[poisoned_dns]


@st.composite
def run_length_mixes(draw):
    """A stage of up to 8 distinct profiles in up to 12 runs; a profile
    may recur in non-adjacent runs and a run may be empty."""
    codes = draw(
        st.lists(st.integers(0, len(ALL_PROFILES) - 1), min_size=1, max_size=8, unique=True)
    )
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(codes), st.integers(0, 10**5)), min_size=1, max_size=12
        )
    )
    return FleetMix(devices=tuple((ALL_PROFILES[code], count) for code, count in runs))


@settings(max_examples=40, deadline=None)
@given(mix=run_length_mixes(), poisoned_dns=st.booleans())
def test_closed_form_equals_materialised_fold(mix, poisoned_dns):
    by_name = _calibration_by_name(poisoned_dns)
    profiles = distinct_profiles([mix])
    tables = calibrate_fleet([mix], calibration=[by_name[p.name] for p in profiles])
    runs = _runs_for_mix(mix, {p.name: i for i, p in enumerate(profiles)})

    state = FleetState(mix.total)
    state.fill_runs(runs)
    state.apply_outcomes(tables)
    expected_fold, expected_census = _fold_state(state)

    assert fold_runs(runs, tables) == (expected_fold, expected_census)
    assert as_tuples(fold_fleet([mix], tables)) == [
        (
            "",
            expected_fold.total,
            expected_fold.ipv4_leases,
            expected_fold.rfc8925_grants,
            expected_fold.intervened,
            expected_fold.accurate_v6only,
        )
    ]


def test_fleet_sweep_scales_without_v4_pool_exhaustion():
    """The object path is capped by the DHCP pool; the columnar path
    reports lease *demand* per profile and never exhausts anything."""
    mixes = windows_refresh_mixes(fleet_size=50_000)
    points = run_fleet_adoption_sweep(mixes)
    assert points[0].total == 50_000
    # Stage 0: every Windows 10 box plus the Macs want IPv4.
    assert points[0].ipv4_leases > 49_000
    # Final stage: only the legacy IoT box still leases plain IPv4.
    assert points[-1].rfc8925_grants > 49_000


def test_fleet_info_accounting():
    mixes = windows_refresh_mixes(fleet_size=100)
    _points, info = run_fleet_adoption_sweep_stats(mixes)
    assert info.devices == 5 * 100
    assert info.stages == 5
    assert info.distinct_profiles == 4


def test_calibration_reuse_and_mismatch():
    mixes = windows_refresh_mixes(fleet_size=8)
    config = TestbedConfig()
    profiles = [WINDOWS_10, WINDOWS_11_RFC8925, MACOS]
    calibration = calibrate_profiles(profiles, config)
    with pytest.raises(ValueError, match="calibration covers 3"):
        run_fleet_adoption_sweep_stats(mixes, config, calibration=calibration)

    full = calibrate_profiles(distinct_profiles(mixes), config)
    reused, _info = run_fleet_adoption_sweep_stats(mixes, config, calibration=full)
    assert as_tuples(reused) == as_tuples(run_fleet_adoption_sweep(mixes, config))
    # Right length, wrong order: profile codes would read the wrong
    # outcome (97/73/49/24/0 intervened at 100 devices instead of 1).
    with pytest.raises(ValueError, match="position 0 measured 'Legacy IoT'"):
        run_fleet_adoption_sweep_stats(mixes, config, calibration=tuple(reversed(full)))


def test_calibration_outcomes_cover_observables():
    config = TestbedConfig()
    outcomes = calibrate_profiles(
        [WINDOWS_10, WINDOWS_11_RFC8925, MACOS, LEGACY_IOT], config
    )
    w10, w11, mac, iot = outcomes
    assert w10.has_v4_lease and not w10.granted_v6only
    assert w11.granted_v6only and not w11.has_v4_lease
    assert mac.granted_v6only
    # Only the IPv4-only device hits the paper's intervention; the
    # dual-stack Windows 10 box browses over v6 and is left alone.
    assert iot.intervened and not w10.intervened and not w11.intervened
    tables = outcome_tables(outcomes)
    assert set(tables) == set(OUTCOME_COLUMNS)
    assert all(len(t) == 256 for t in tables.values())


def test_outcome_tables_reject_oversized_fleets():
    config = TestbedConfig()
    outcome = calibrate_profiles([WINDOWS_10], config)[0]
    with pytest.raises(ValueError, match="256"):
        outcome_tables([outcome] * 257)


def test_fleet_memory_at_least_5x_smaller_per_device():
    """The acceptance floor: the columnar path must allocate at least 5x
    less memory per device than the object path (it is ~1000x in
    practice).  tracemalloc gives a deterministic per-path allocation
    measure, immune to allocator/RSS noise."""
    config = TestbedConfig()
    object_devices = 20

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    testbed = Testbed(config)
    for index, profile in enumerate(
        [ALL_PROFILES[i % len(ALL_PROFILES)] for i in range(object_devices)]
    ):
        testbed.add_client(profile, f"dev-{index}")
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    object_per_device = (after - before) / object_devices

    fleet_devices = 100_000
    calibration = calibrate_profiles(list(ALL_PROFILES), config)
    tables = outcome_tables(calibration)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    state = FleetState(fleet_devices)
    state.fill_runs([(i % len(ALL_PROFILES), 1) for i in range(fleet_devices)])
    state.apply_outcomes(tables)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    fleet_per_device = (after - before) / fleet_devices

    assert fleet_per_device < 64  # a handful of column bytes, not objects
    assert object_per_device >= 5 * fleet_per_device, (
        f"object path {object_per_device:.0f} B/device is not ≥5x the "
        f"columnar {fleet_per_device:.1f} B/device"
    )
