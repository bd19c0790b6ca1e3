"""Command-line interface.

Subcommands: mean, divergence, barycenter, power-mean, ncmeasure, properties,
verify-paper.  Exit codes are stable: 0 ok, 2 input error, 3 non-convergence,
4 property violation, 5 reference-value mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import properties as prop
from .barycenter import (
    SolverOptions,
    SolverReport,
    WeightedEnsemble,
    solve_barycenter,
    solve_power_mean,
    noncommutativity_measure,
)
from .divergences import kubo_ando_mean, phi
from .errors import NonConvergenceError, QHMeansError
from .generators import (
    ArithmeticGenerator,
    DivergenceSpec,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
    arcsine_generator,
)
from .hermitian import PositiveDefiniteMatrix, frobenius_dist, pd
from .serialize import (
    ensemble_from_json,
    generator_from_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_PROPERTY = 4
EXIT_VERIFY = 5

# Built-in 2x2 reference problem: equal weights, square-root generator.
REFERENCE_A1 = np.diag([4.0, 1.0])
REFERENCE_A2 = 0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])
REFERENCE_BARYCENTER = np.array([[2.99035, 0.634419], [0.634419, 1.72151]])
REFERENCE_ONE_STEP = np.array([[3.02915, 0.673215], [0.673215, 1.68272]])


class InputError(QHMeansError):
    """CLI-level input problem (bad file, bad JSON, bad flag combination)."""


# The shorthands that take one numeric parameter, and the family each builds.
_SHORTHANDS = {"arithmetic": ArithmeticGenerator, "harmonic": HarmonicGenerator}
_SHORTHANDS.update(dict.fromkeys(("geometric", "power", "beta"), GeometricGenerator))


def parse_generator(text: str) -> MeasureGenerator:
    """Parse a generator from JSON or shorthand like 'geometric:0.5'."""
    text = text.strip()
    if text.startswith("{"):
        return generator_from_json(json.loads(text))
    name, sep, arg = text.partition(":")
    name = name.lower()
    if name == "arcsine":
        if sep:
            raise InputError("generator 'arcsine' takes no parameter")
        return arcsine_generator()
    family = _SHORTHANDS.get(name)
    if family is None:
        raise InputError(f"unknown generator shorthand {text!r}")
    if not arg:
        raise InputError(f"generator {name!r} needs a parameter, e.g. '{name}:0.5'")
    try:
        value = float(arg)
    except ValueError:
        raise InputError(f"generator {name!r} needs a numeric parameter, got {arg!r}") from None
    return family(value)


def _load_json_payloads(args, expected: int) -> list:
    payloads = []
    for path in args.input or []:
        try:
            with open(path) as fh:
                payloads.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    for blob in args.inline or []:
        try:
            payloads.append(json.loads(blob))
        except json.JSONDecodeError as exc:
            raise InputError(f"bad inline JSON: {exc}") from exc
    if len(payloads) != expected:
        raise InputError(
            f"expected {expected} input object(s) via --input/--inline, got {len(payloads)}"
        )
    return payloads


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        max_iterations=args.max_iter,
        residual_tol=args.tol,
    )


def _format_matrix(mat: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(matrix_to_json(mat))
    rows = []
    for row in np.asarray(mat):
        cells = []
        for z in row:
            z = complex(z)
            if abs(z.imag) > 1e-12:
                cells.append(f"{z.real:.6g}{z.imag:+.6g}i")
            else:
                cells.append(f"{z.real:.6g}")
        rows.append("  ".join(f"{c:>12}" for c in cells))
    return "\n".join(rows)


def _print_report(report: SolverReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report_to_json(report)))
    else:
        print(_format_matrix(report.solution.mat, "table"))
        print(f"iterations: {report.iterations}")
        print(f"residual:   {report.final_residual:.6g}")
        print(f"converged:  {report.converged}")


def cmd_mean(args) -> int:
    a, b = (pd(matrix_from_json(o)) for o in _load_json_payloads(args, 2))
    gen = parse_generator(args.generator)
    mean = kubo_ando_mean(a, b, gen)
    print(_format_matrix(mean.mat, args.format))
    return EXIT_OK


def cmd_divergence(args) -> int:
    a, b = (pd(matrix_from_json(o)) for o in _load_json_payloads(args, 2))
    spec = DivergenceSpec(parse_generator(args.generator))
    value = phi(a, b, spec)
    print(json.dumps({"divergence": value}) if args.format == "json" else f"{value:.6g}")
    return EXIT_OK


def cmd_barycenter(args) -> int:
    ens = ensemble_from_json(_load_json_payloads(args, 1)[0])
    spec = DivergenceSpec(parse_generator(args.generator))
    report = solve_barycenter(ens, spec, _solver_options(args))
    _print_report(report, args.format)
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def cmd_power_mean(args) -> int:
    ens = ensemble_from_json(_load_json_payloads(args, 1)[0])
    report = solve_power_mean(ens, args.t, _solver_options(args))
    _print_report(report, args.format)
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def cmd_ncmeasure(args) -> int:
    ens = ensemble_from_json(_load_json_payloads(args, 1)[0])
    spec = DivergenceSpec(parse_generator(args.generator))
    value = noncommutativity_measure(ens, spec, args.metric, _solver_options(args))
    print(
        json.dumps({"noncommutativity": value, "metric": args.metric})
        if args.format == "json"
        else f"{value:.6g}"
    )
    return EXIT_OK


def cmd_properties(args) -> int:
    spec = DivergenceSpec(parse_generator(args.generator))
    report = prop.run_campaigns(
        spec,
        seed=args.seed,
        trials=args.trials,
        dim=args.dim,
        corrupt_channel=args.corrupt_channel,
    )
    for line in prop.format_report(report):
        print(line)
    return EXIT_OK if report.all_passed else EXIT_PROPERTY


def cmd_verify_paper(args) -> int:
    ens = WeightedEnsemble(
        (pd(REFERENCE_A1), pd(REFERENCE_A2)), np.array([0.5, 0.5])
    )
    spec = DivergenceSpec(arcsine_generator())
    report = solve_barycenter(ens, spec, _solver_options(args))
    if not report.converged:
        print("barycenter solver did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    X = report.solution.mat

    imag_max = float(np.max(np.abs(X.imag)))
    bary_delta = np.abs(X.real - REFERENCE_BARYCENTER)
    one_step = 0.5 * (
        kubo_ando_mean(pd(REFERENCE_A1), report.solution, GeometricGenerator(0.5)).mat
        + kubo_ando_mean(pd(REFERENCE_A2), report.solution, GeometricGenerator(0.5)).mat
    )
    step_delta = np.abs(one_step.real - REFERENCE_ONE_STEP)
    gap = frobenius_dist(PositiveDefiniteMatrix(one_step), report.solution)

    print("computed barycenter:")
    print(_format_matrix(X, "table"))
    print("reference:")
    print(_format_matrix(REFERENCE_BARYCENTER, "table"))
    print(f"max entrywise delta: {bary_delta.max():.3e}")
    print(f"max imaginary part:  {imag_max:.3e}")
    print(f"stationarity residual: {report.final_residual:.3e}")
    print()
    print("one-step power-mean map at the barycenter:")
    print(_format_matrix(one_step, "table"))
    print("reference:")
    print(_format_matrix(REFERENCE_ONE_STEP, "table"))
    print(f"max entrywise delta: {step_delta.max():.3e}")
    print()
    print(f"frobenius gap between barycenter and its power-mean image: {gap:.6g}")

    ok = (
        bary_delta.max() <= 1e-3
        and step_delta.max() <= 1e-3
        and gap >= 0.03
        and imag_max <= 1e-8
    )
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhmeans",
        description="Matrix means, quantum Hellinger divergences, and barycenters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, generator=True, payload=True, solver=True):
        if generator:
            p.add_argument(
                "--generator",
                default="arcsine",
                help="generator JSON or shorthand (arcsine, geometric:0.5, "
                "harmonic:0.3, arithmetic:0.3, beta:0.25, power:0.5)",
            )
        if payload:
            p.add_argument("--input", action="append", help="path to a JSON input (repeatable)")
            p.add_argument("--inline", action="append", help="inline JSON input (repeatable)")
            p.add_argument("--format", choices=("json", "table"), default="json")
        if solver:
            p.add_argument("--tol", type=float, default=SolverOptions.residual_tol)
            p.add_argument("--max-iter", type=int, default=SolverOptions.max_iterations, dest="max_iter")

    p = sub.add_parser("mean", help="Kubo-Ando mean of two matrices")
    add_shared(p, solver=False)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("divergence", help="divergence phi(A, B)")
    add_shared(p, solver=False)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("barycenter", help="divergence barycenter of an ensemble")
    add_shared(p)
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("power-mean", help="weighted power mean of order 1-t")
    add_shared(p, generator=False)
    p.add_argument("--t", type=float, default=0.5, help="divergence order t in (0,1)")
    p.set_defaults(func=cmd_power_mean)

    p = sub.add_parser("ncmeasure", help="noncommutativity measure of an ensemble")
    add_shared(p)
    p.add_argument("--metric", choices=("frobenius", "thompson"), default="frobenius")
    p.set_defaults(func=cmd_ncmeasure)

    p = sub.add_parser("properties", help="run seeded property campaigns")
    add_shared(p, payload=False, solver=False)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument(
        "--corrupt-channel",
        action="store_true",
        dest="corrupt_channel",
        help="negative control: inject a non-trace-preserving channel",
    )
    p.set_defaults(func=cmd_properties)

    p = sub.add_parser(
        "verify-paper", help="reproduce the built-in 2x2 reference computation"
    )
    add_shared(p, generator=False, payload=False)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (QHMeansError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
