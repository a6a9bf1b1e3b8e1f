"""Fleet-scale adoption sweeps in closed form over profile runs.

The object path (:func:`repro.analysis.adoption.run_adoption_sweep`)
simulates every device as a live packet-level client — the right tool
up to a few hundred devices.  This module answers the same §VII
trajectory for any fleet size:

1. **calibrate once** — each *distinct* OS profile in the sweep is
   measured with one live client on a real testbed
   (:func:`repro.clients.fleet.calibrate_profiles`) and turned into
   256-byte per-column outcome tables
   (:func:`repro.clients.fleet.outcome_tables`);
2. **fold over runs** — a :class:`FleetMix` is a list of
   ``(profile, count)`` runs, and every device of one profile has the
   same outcome, so each stage's :class:`~repro.core.metrics.
   AdoptionFold` / :class:`~repro.core.metrics.CensusFold` is a sum of
   ``count`` over the runs, binned by ``tables[column][profile_code]``.

The fold costs O(distinct profiles × stages) whatever the device
count; no per-device state is ever built.  :class:`repro.sim.fleet.
FleetState` remains the materialised per-device reference —
:func:`_fold_state` counts its columns — and the tests pin the closed
form to it and to the object path.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.analysis.adoption import AdoptionPoint, FleetMix
from repro.clients.fleet import (
    calibrate_profiles,
    CLASS_FOR_CODE,
    outcome_tables,
    ProfileOutcome,
)
from repro.clients.profiles import OsProfile
from repro.core.metrics import AdoptionFold, CensusFold
from repro.core.testbed import TestbedConfig
from repro.sim import fleet as fl

__all__ = [
    "FleetSweepInfo",
    "calibrate_fleet",
    "distinct_profiles",
    "fold_fleet",
    "fold_runs",
    "run_fleet_adoption_sweep",
    "run_fleet_adoption_sweep_stats",
]

#: Addressing codes that hold a global IPv6 address — what the SC23-style
#: naive census counts as "IPv6-only".
_HAS_V6_ADDRESS = (fl.ADDR_DUAL, fl.ADDR_V6_ONLY)


@slotted_dataclass()
class FleetSweepInfo:
    """Shape of one fleet sweep (for the CLI summary and BENCH rows)."""

    devices: int
    stages: int
    distinct_profiles: int

    @classmethod
    def for_mixes(cls, mixes: Sequence[FleetMix]) -> "FleetSweepInfo":
        return cls(
            devices=sum(mix.total for mix in mixes),
            stages=len(mixes),
            distinct_profiles=len(distinct_profiles(mixes)),
        )


def distinct_profiles(mixes: Sequence[FleetMix]) -> List[OsProfile]:
    """Distinct profiles in first-appearance order across all stages.

    Position ``i`` in this list is profile code ``i`` in the outcome
    tables, for calibration and folding alike.
    """
    profiles: List[OsProfile] = []
    seen: Dict[str, int] = {}
    for mix in mixes:
        for profile, _count in mix.devices:
            if profile.name not in seen:
                seen[profile.name] = len(profiles)
                profiles.append(profile)
    return profiles


def _runs_for_mix(mix: FleetMix, profile_index: Dict[str, int]) -> List[Tuple[int, int]]:
    """``(profile_code, count)`` runs in the mix's declared device order."""
    return [(profile_index[profile.name], count) for profile, count in mix.devices]


def calibrate_fleet(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
    target_site: str = "sc24.supercomputing.org",
    calibration: Optional[Sequence[ProfileOutcome]] = None,
) -> Dict[str, bytes]:
    """Measure (or validate a reused) calibration; build translate tables.

    ``calibration`` lets a caller reuse a previously measured profile
    table across repeated sweeps of the same config.  It must list the
    sweep's distinct profiles in :func:`distinct_profiles` order: each
    outcome's position is the profile code the fold looks it up by.
    """
    profiles = distinct_profiles(mixes)
    if calibration is None:
        return outcome_tables(
            calibrate_profiles(profiles, config or TestbedConfig(), target_site=target_site)
        )
    if len(calibration) != len(profiles):
        raise ValueError(
            f"calibration covers {len(calibration)} profiles, sweep needs {len(profiles)}"
        )
    for code, (outcome, profile) in enumerate(zip(calibration, profiles)):
        if outcome.name != profile.name:
            raise ValueError(
                f"calibration position {code} measured {outcome.name!r}, "
                f"sweep needs {profile.name!r} there"
            )
    return outcome_tables(calibration)


def fold_runs(
    runs: Sequence[Tuple[int, int]], tables: Mapping[str, bytes]
) -> Tuple[AdoptionFold, CensusFold]:
    """Closed-form fold of one stage: each run adds its ``count`` once.

    Per-class counts bin by the census table, lease/grant counts by the
    dhcp4 table, interventions by the dns table and the naive census by
    the addressing table — the same columns :func:`_fold_state` counts
    on a materialised population, so the two folds are equal.
    """
    fold = AdoptionFold()
    census = CensusFold()
    for code, count in runs:
        if count == 0:
            continue  # a materialised population has no row for it
        cls = CLASS_FOR_CODE[tables["census"][code]]
        dhcp4 = tables["dhcp4"][code]
        census.add_class(
            cls, has_v6_address=tables["addressing"][code] in _HAS_V6_ADDRESS, count=count
        )
        fold.add_bulk(
            count,
            has_v4_lease=dhcp4 == fl.DHCP4_LEASED,
            granted_v6only=dhcp4 == fl.DHCP4_V6ONLY_GRANT,
            intervened=tables["dns"][code] == fl.DNS_POISON_REDIRECT,
            counts_v6only=cls.counts_as_ipv6_only,
        )
    return fold, census


def _fold_state(state: fl.FleetState) -> Tuple[AdoptionFold, CensusFold]:
    """Fold a materialised columnar population by counting its columns.

    The per-device reference :func:`fold_runs` is checked against.
    ``naive_v6only`` is an addressing fact (device holds a global v6
    address), not a class fact, so it folds from the addressing column
    while the per-class counts fold from the census column.
    """
    census = CensusFold()
    for code, count in state.code_counts("census").items():
        census.add_class(CLASS_FOR_CODE[code], has_v6_address=False, count=count)
    census.naive_v6only = sum(state.count("addressing", code) for code in _HAS_V6_ADDRESS)

    fold = AdoptionFold(
        total=state.size,
        ipv4_leases=state.count("dhcp4", fl.DHCP4_LEASED),
        rfc8925_grants=state.count("dhcp4", fl.DHCP4_V6ONLY_GRANT),
        intervened=state.count("dns", fl.DNS_POISON_REDIRECT),
        accurate_v6only=census.accurate_v6only,
    )
    return fold, census


def fold_fleet(mixes: Sequence[FleetMix], tables: Mapping[str, bytes]) -> List[AdoptionPoint]:
    """One :class:`AdoptionPoint` per mix, in mix order, in closed form."""
    index_of = {profile.name: i for i, profile in enumerate(distinct_profiles(mixes))}
    points = []
    for mix in mixes:
        fold, _census = fold_runs(_runs_for_mix(mix, index_of), tables)
        points.append(
            AdoptionPoint(
                label=mix.label,
                total=fold.total,
                ipv4_leases=fold.ipv4_leases,
                rfc8925_grants=fold.rfc8925_grants,
                intervened=fold.intervened,
                accurate_v6only=fold.accurate_v6only,
            )
        )
    return points


def run_fleet_adoption_sweep_stats(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
    target_site: str = "sc24.supercomputing.org",
    calibration: Optional[Sequence[ProfileOutcome]] = None,
) -> Tuple[List[AdoptionPoint], FleetSweepInfo]:
    """Calibrate, then fold every stage: the points plus the sweep's shape."""
    tables = calibrate_fleet(mixes, config, target_site, calibration)
    return fold_fleet(mixes, tables), FleetSweepInfo.for_mixes(mixes)


def run_fleet_adoption_sweep(
    mixes: Sequence[FleetMix], config: Optional[TestbedConfig] = None
) -> List[AdoptionPoint]:
    """Fleet-scale adoption trajectory (closed form over profile runs)."""
    points, _info = run_fleet_adoption_sweep_stats(mixes, config)
    return points
