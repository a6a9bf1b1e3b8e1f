"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``matrix``      — run the §V device-outcome matrix (intervention on/off)
- ``sweep``       — the §VII Windows-refresh adoption trajectory
- ``fleet``       — the same trajectory at fleet scale (closed-form fold)
- ``scores``      — mirror scores per device class, stock vs fixed
- ``demo``        — the quickstart walk-through
- ``experiments`` — one-line status for every paper experiment (E1-E16)
- ``lint``        — determinism & wire-contract static analysis (repro.lint)
- ``sanitize``    — runtime determinism sanitizer (hash-salt + sharding diff)
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.adoption import run_adoption_sweep, sweep_table, windows_refresh_mixes
from repro.analysis.matrix import matrix_table, run_device_matrix
from repro.core.testbed import build_testbed, TestbedConfig

__all__ = ["main"]


def cmd_matrix(args) -> int:
    config = TestbedConfig(poisoned_dns=not args.no_intervention, use_rpz=args.rpz)
    outcomes = run_device_matrix(config, jobs=args.jobs)
    print(matrix_table(outcomes))
    return 0


def cmd_sweep(args) -> int:
    mixes = windows_refresh_mixes(fleet_size=args.fleet)
    print(sweep_table(run_adoption_sweep(mixes, jobs=args.jobs)))
    return 0


def cmd_fleet(args) -> int:
    """The §VII trajectory at fleet scale, in closed form over profile runs.

    Calibrates the distinct profiles once on one testbed, then folds
    each stage's ``(profile, count)`` runs; nothing is per-device, so
    the command runs in-process at any ``--devices``.  The table goes
    to stdout and the execution summary (with timings) to stderr, so
    stdout can be diffed byte-for-byte against a golden table.
    """
    import time

    from repro.analysis.fleet import calibrate_fleet, FleetSweepInfo, fold_fleet
    from repro.core.rss import peak_rss_bytes

    mixes = windows_refresh_mixes(fleet_size=args.devices)
    start = time.perf_counter()
    tables = calibrate_fleet(mixes)
    calibrated = time.perf_counter()
    points = fold_fleet(mixes, tables)
    folded = time.perf_counter()
    print(sweep_table(points))
    info = FleetSweepInfo.for_mixes(mixes)
    summary = (
        f"fleet: {info.devices} devices / {info.stages} stages / "
        f"{info.distinct_profiles} profiles, calibration {calibrated - start:.3f}s, "
        f"fold {(folded - calibrated) * 1000:.3f}ms"
    )
    rss = peak_rss_bytes()
    if rss is not None:
        summary += f", peak RSS {rss / (1024 * 1024):.1f} MiB"
    print(summary, file=sys.stderr)
    return 0


def cmd_scores(args) -> int:
    from repro.clients.profiles import ALL_PROFILES
    from repro.core.scoring import score_rfc8925_aware, score_stock
    from repro.services.testipv6 import run_test_ipv6

    testbed = build_testbed(TestbedConfig(poison_target=args.poison_target))
    context = testbed.scoring_context()
    print(f"{'device':30s} {'stock':>7s} {'fixed':>7s}  classification")
    for index, profile in enumerate(ALL_PROFILES):
        client = testbed.add_client(profile, f"dev-{index}")
        report = run_test_ipv6(client, testbed.mirror)
        stock = score_stock(report)
        fixed = score_rfc8925_aware(report, context)
        print(
            f"{profile.name:30s} {stock.score:>4d}/10 {fixed.score:>4d}/10  "
            f"{fixed.classified_as}"
        )
    return 0


def cmd_demo(args) -> int:
    del args
    from examples import quickstart  # type: ignore[import-not-found]

    quickstart.main()
    return 0


def cmd_experiments(args) -> int:
    """Run a fast pass of every paper experiment's key assertion."""
    del args
    from repro.clients.profiles import (
        MACOS,
        NINTENDO_SWITCH,
        WINDOWS_10,
        WINDOWS_10_V6_DISABLED,
        WINDOWS_11,
        WINDOWS_XP,
    )
    from repro.core.scoring import score_stock
    from repro.services.testipv6 import run_test_ipv6

    results = []

    tb = build_testbed(TestbedConfig())
    nsw = tb.add_client(NINTENDO_SWITCH, "nsw")
    results.append(("E6  fig6  switch intervened", nsw.fetch("sc24.supercomputing.org").landed_on == "ip6.me"))
    xp = tb.add_client(WINDOWS_XP, "xp")
    results.append(("E7  fig7  XP via NAT64", xp.fetch("sc24.supercomputing.org").ok))
    w10 = tb.add_client(WINDOWS_10, "w10")
    poison_before = tb.poisoner.poison_answers
    w10.fetch("sc24.supercomputing.org")
    results.append(("E10 fig10 W10 shielded", tb.poisoner.poison_answers == poison_before))
    w11 = tb.add_client(WINDOWS_11, "w11")
    ns = w11.nslookup("vpn.anl.gov")
    results.append(("E9  fig9  suffix poisoning", str(ns.queried_name) == "vpn.anl.gov.rfc8925.com"))
    mac = tb.add_client(MACOS, "mac")
    results.append(("E4  fig4  RFC8925 v6-only", mac.host.v6only_wait is not None))

    tb5 = build_testbed(TestbedConfig(poison_target="test-ipv6.com"))
    nov6 = tb5.add_client(WINDOWS_10_V6_DISABLED, "nov6")
    score = score_stock(run_test_ipv6(nov6, tb5.mirror))
    results.append(("E5  fig5  erroneous 10/10", score.score == 10))

    ok = True
    for label, passed in results:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    print("full suite: pytest tests/  ·  full figures: pytest benchmarks/ --benchmark-only -s")
    return 0 if ok else 1


def cmd_sanitize(args) -> int:
    from repro.lint.sanitize import main as sanitize_main

    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    if args.accel:
        forwarded.append("--accel")
    forwarded += ["--jobs", str(args.jobs), "--timeout", str(args.timeout)]
    return sanitize_main(forwarded)


def version_line() -> str:
    """``repro <version> (accel=<mode>, compiled kernel <state>)``."""
    from repro import __version__, _accel

    info = _accel.build_info()
    if info["active"] == "compiled":
        detail = "accel=compiled"
    elif info["compiled_available"] == "yes":
        detail = f"accel={info['active']}, compiled kernel available"
    else:
        detail = f"accel={info['active']}, compiled kernel unavailable"
    return f"repro {__version__} ({detail})"


def main(argv=None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # ``lint`` forwards everything verbatim to the repro.lint CLI.  Done
    # before argparse: REMAINDER mis-parses a leading option (bpo-17050).
    if arguments and arguments[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    # Same treatment for ``--version``: the subcommand is required, so
    # argparse would reject a bare ``--version`` unless short-circuited.
    if arguments and arguments[0] in ("--version", "-V"):
        print(version_line())
        return 0

    parser = argparse.ArgumentParser(
        prog="repro",
        description="v6shift: RFC 8925 + IPv4 DNS interventions, simulated (SC 2024 reproduction)",
    )
    parser.add_argument(
        "--version", "-V", action="store_true",
        help="print version and accelerator mode (e.g. 'repro 1.0.0 (accel=py, ...)')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs_help = "worker processes for the sweep (default: $REPRO_JOBS or 1; 0 = all cores)"

    p_matrix = sub.add_parser("matrix", help="device outcome matrix (§V)")
    p_matrix.add_argument("--no-intervention", action="store_true")
    p_matrix.add_argument("--rpz", action="store_true", help="use the RPZ-style poisoner")
    p_matrix.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p_matrix.set_defaults(fn=cmd_matrix)

    p_sweep = sub.add_parser("sweep", help="Windows-refresh adoption sweep (§VII)")
    p_sweep.add_argument("--fleet", type=int, default=15)
    p_sweep.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_fleet = sub.add_parser(
        "fleet", help="adoption sweep at fleet scale (closed form over profile runs)"
    )
    p_fleet.add_argument(
        "--devices", type=int, default=1_000_000,
        help="fleet size per refresh stage (default: 1,000,000)",
    )
    p_fleet.add_argument(
        "--jobs", type=int, default=None,
        help="accepted for compatibility and ignored: the fleet command "
             "folds profile runs in-process and has nothing to shard",
    )
    p_fleet.set_defaults(fn=cmd_fleet)

    p_scores = sub.add_parser("scores", help="mirror scores, stock vs fixed (§VI)")
    p_scores.add_argument("--poison-target", default="ip6.me",
                          choices=["ip6.me", "test-ipv6.com"])
    p_scores.set_defaults(fn=cmd_scores)

    p_demo = sub.add_parser("demo", help="the quickstart walk-through")
    p_demo.set_defaults(fn=cmd_demo)

    p_exp = sub.add_parser("experiments", help="fast pass over the paper experiments")
    p_exp.set_defaults(fn=cmd_experiments)

    # ``lint`` is handled above (verbatim forwarding); registered here
    # only so it shows in --help.
    sub.add_parser("lint", help="determinism & wire-contract static analysis (repro.lint)")

    p_sanitize = sub.add_parser(
        "sanitize", help="runtime determinism sanitizer (PYTHONHASHSEED + --jobs diff)"
    )
    p_sanitize.add_argument("--quick", action="store_true", help="CI smoke variant")
    p_sanitize.add_argument(
        "--accel", action="store_true",
        help="also byte-diff REPRO_ACCEL=py vs compiled (requires a compiled kernel)",
    )
    p_sanitize.add_argument("--jobs", type=int, default=4, help="workers for sharded probes")
    p_sanitize.add_argument("--timeout", type=float, default=600.0)
    p_sanitize.set_defaults(fn=cmd_sanitize)

    args = parser.parse_args(arguments)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
