"""Command line front end: one scenario JSON file drives every subcommand.

Exit codes: 0 on success, 2 on validation errors, 3 on numerical
rejections (leakage, divergence, non-convergence, empty strategy sets).
Diagnostics go to stderr; artifacts are CSV files with JSON sidecars
carrying the config hash and tool version.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .artifacts import read_density, write_csv, write_density, write_json, write_ulam
from .config import load_scenario
from .errors import ConfigurationError, NumericalError
from .game import OperatorCache, entropy_decay_trace, find_equilibrium, verify_equilibrium
from .perturb import PATH_SCHEME, _check_kl_floor, ensemble_sweep, resilience_report
from .system import flow_map
from .transfer import build_ulam, stationary_density

__all__ = ["main"]


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON file")
    common.add_argument("--out", default=None, help="artifact directory (overrides config)")
    common.add_argument("--seed", type=int, default=None, help="override the perturb seed")
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; builds run in one thread")
    common.add_argument(
        "--kl-floor",
        nargs="?",
        type=float,
        const=1e-12,
        default=None,
        help="add this floor to reference densities inside divergences (default 1e-12)",
    )
    common.add_argument(
        "--with-deviations",
        action="store_true",
        help="sweep unilateral candidate deviations in resilience reports",
    )

    parser = argparse.ArgumentParser(
        prog="entrogame",
        description="Grid transfer operators, entropy equilibria and noise resilience "
        "for multi-channel linear feedback systems.",
    )
    parser.add_argument("--version", action="version", version=f"entrogame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("ulam", "build and export the grid transfer matrix"),
        ("stationary", "solve for the stationary density"),
        ("entropy-trace", "entropy decay of push-forwards toward the stationary density"),
        ("equilibrium", "round-robin best-response search plus verification"),
        ("perturb", "perturbed ensemble endpoint statistics"),
        ("resilience", "perturbed-versus-deterministic resilience report"),
    ]:
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _provenance(scenario, args):
    return {
        "config_sha256": scenario.config_sha256,
        "tool_version": __version__,
        "command": args.command,
        "seed": args.seed,
    }


def _out_dir(scenario, args):
    out = Path(args.out) if args.out else Path(scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _deterministic_operator(scenario):
    fm = flow_map(
        scenario.system, scenario.profile, 0.0, scenario.t_step,
        scenario.integration_steps,
    )
    return build_ulam(
        scenario.partition,
        fm,
        scenario.samples_per_cell,
        leak_tol=scenario.leak_tol,
    )


def _trace_densities(scenario, cfg):
    thetas = [cfg.theta_ref]
    for path in (scenario.game or {}).get("trace_densities", ()):
        theta = read_density(Path(path))
        if not theta.partition.matches(scenario.partition):
            raise ConfigurationError(
                f"game.trace_densities: {path} partition does not match the domain block"
            )
        thetas.append(theta)
    return thetas


def _cmd_ulam(scenario, args, out, prov):
    P = _deterministic_operator(scenario)
    write_ulam(P, out / "ulam.csv", provenance=prov)
    print(f"wrote {out / 'ulam.csv'}")
    return 0


def _cmd_stationary(scenario, args, out, prov):
    P = _deterministic_operator(scenario)
    result = stationary_density(
        P,
        scenario.reference_density(),
        tol=scenario.stationary_tol,
        max_iter=scenario.stationary_max_iter,
        cesaro=scenario.stationary_cesaro,
    )
    write_density(result.density, out / "stationary_density.csv", provenance=prov)
    write_json(
        out / "stationary.json",
        {
            "provenance": prov,
            "iterations": result.iterations,
            "residual": result.residual,
            "mass": result.density.mass,
            "t_step": scenario.t_step,
        },
    )
    print(f"stationary solve: {result.iterations} iterations, residual {result.residual:.3e}")
    return 0


def _cmd_entropy_trace(scenario, args, out, prov):
    game = scenario.require_game()
    cfg = scenario.game_config()
    thetas = _trace_densities(scenario, cfg)
    trace = entropy_decay_trace(
        scenario.system, scenario.profile, thetas, game["time_grid"], cfg
    )
    write_csv(
        out / "entropy_trace.csv",
        ["density_id", "t", "entropy", "relative_entropy_to_stationary"],
        [
            (r.density_index, r.t, r.entropy, r.rel_entropy_to_stationary)
            for r in trace.rows
        ],
    )
    write_json(
        out / "entropy_trace.json",
        {
            "provenance": prov,
            "stationary_entropy": trace.stationary_entropy,
            "skipped": [
                {"density_id": idx, "mass_outside_support": mass}
                for idx, mass in trace.skipped
            ],
        },
    )
    print(f"wrote {out / 'entropy_trace.csv'} ({len(trace.rows)} rows)")
    return 0


def _cmd_equilibrium(scenario, args, out, prov):
    cfg = scenario.game_config()
    space = scenario.strategy_space()
    cache = OperatorCache(scenario.system, cfg)
    result = find_equilibrium(scenario.system, space, cfg, scenario.profile, cache=cache)
    verification = None
    if result.converged:
        verification = verify_equilibrium(
            scenario.system, result.profile, space, cfg, cache=cache
        )

    # The score is per profile, so every channel's rows repeat one vector.
    write_csv(
        out / "equilibrium_criteria.csv",
        ["channel", "t", "criterion"],
        [
            (j, t, value)
            for j in range(1, space.n_channels + 1)
            for t, value in zip(cfg.time_grid, result.criterion)
        ],
    )
    payload = {
        "provenance": prov,
        "converged": result.converged,
        "rounds": result.rounds,
        "profile": [g.L for g in result.profile.gains],
        "stationary_entropy": result.stationary_entropy,
        "l1_to_stationary": result.l1_to_stationary,
        "fixed_point_residuals": result.fixed_point_residuals,
        "entropy_condition_ok": result.entropy_condition_ok,
        "history": [list(h) for h in result.history],
    }
    if verification is not None:
        payload["verification"] = {
            "condition1_ok": verification.condition1_ok,
            "condition1_margin": verification.condition1_margin,
            "condition2_ok": verification.condition2_ok,
            "condition2_margin": verification.condition2_margin,
            "condition3_ok": verification.condition3_ok,
            "condition3_margin": verification.condition3_margin,
            "rejected": [
                {"channel": j, "candidate": k, "reason": reason}
                for j, k, reason in verification.rejected
            ],
        }
    write_json(out / "equilibrium.json", payload)
    write_density(result.stationary, out / "equilibrium_stationary.csv", provenance=prov)
    if not result.converged:
        print(
            f"equilibrium search did not converge in {result.rounds} rounds; "
            f"profile history: {[list(h) for h in result.history]}",
            file=sys.stderr,
        )
        return 3
    print(f"equilibrium found in {result.rounds} rounds")
    return 0


def _cmd_perturb(scenario, args, out, prov):
    p = scenario.require_perturb()
    noise = scenario.noise_spec()
    path_cfg = scenario.path_config(seed_override=args.seed)
    x0 = p["x0"]
    if x0 is None:
        x0 = (scenario.partition.lower + scenario.partition.upper) / 2.0
    rows = []
    sweep = ensemble_sweep(
        scenario.system, scenario.profile, noise, noise.epsilon_list, x0, path_cfg
    )
    for eps, ends in zip(noise.epsilon_list, sweep):
        mean = ends.mean(axis=0)
        var = ends.var(axis=0)
        for c in range(ends.shape[1]):
            rows.append((eps, c, mean[c], var[c]))
    write_csv(out / "perturb_stats.csv", ["epsilon", "component", "mean", "variance"], rows)
    write_json(
        out / "perturb_stats.json",
        {
            "provenance": prov,
            "path_scheme": PATH_SCHEME,
            "n_paths": path_cfg.n_paths,
            "n_steps": path_cfg.n_steps,
            "h": path_cfg.h,
            "t_final": path_cfg.h * path_cfg.n_steps,
            "x0": x0,
            "seed": path_cfg.seed,
        },
    )
    print(f"wrote {out / 'perturb_stats.csv'}")
    return 0


def _cmd_resilience(scenario, args, out, prov):
    scenario.require_game()
    scenario.require_perturb()
    noise = scenario.noise_spec()
    cfg = scenario.game_config()
    path_cfg = scenario.path_config(seed_override=args.seed)
    thetas = _trace_densities(scenario, cfg)
    space = None
    if args.with_deviations:
        space = scenario.strategy_space()
    report = resilience_report(
        scenario.system,
        scenario.profile,
        noise,
        cfg,
        path_cfg,
        thetas,
        kl_floor=args.kl_floor,
        with_deviations=args.with_deviations,
        space=space,
    )
    header = [
        "epsilon", "t", "density_id", "l1_distance", "rel_entropy",
        "support_violation_mass",
    ]
    write_csv(
        out / "resilience.csv",
        header,
        [
            (e.epsilon, e.t, e.density_id, e.l1_distance, e.rel_entropy,
             e.support_violation_mass)
            for e in report.entries
        ],
    )
    if report.deviation_entries:
        write_csv(
            out / "resilience_deviations.csv",
            ["profile_id"] + header,
            [
                (e.profile_id, e.epsilon, e.t, e.density_id, e.l1_distance,
                 e.rel_entropy, e.support_violation_mass)
                for e in report.deviation_entries
            ],
        )
    write_json(
        out / "resilience.json",
        {
            "provenance": prov,
            "path_scheme": PATH_SCHEME,
            "theta_eps": [{"epsilon": e, "value": v} for e, v in report.theta_eps],
            "monotone_flag": report.monotone_flag,
            "kl_floor": report.kl_floor,
            "seed": path_cfg.seed,
        },
    )
    print(f"wrote {out / 'resilience.csv'} ({len(report.entries)} rows)")
    return 0


_COMMANDS = {
    "ulam": _cmd_ulam,
    "stationary": _cmd_stationary,
    "entropy-trace": _cmd_entropy_trace,
    "equilibrium": _cmd_equilibrium,
    "perturb": _cmd_perturb,
    "resilience": _cmd_resilience,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.threads is None or args.threads < 1:
            raise ConfigurationError(f"--threads: must be >= 1, got {args.threads!r}")
        _check_kl_floor(args.kl_floor, "--kl-floor")
        out = _out_dir(scenario, args)
        prov = _provenance(scenario, args)
        return _COMMANDS[args.command](scenario, args, out, prov)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical rejection: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
