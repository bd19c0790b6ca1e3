"""JSON encodings for matrices, measures, generators, ensembles, channels.

Matrix encoding: {"dim": d, "re": [[...]], "im": [[...]]} with row-major real
and imaginary parts; an omitted "im" means an all-zero imaginary part.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .barycenter import SolverReport, WeightedEnsemble
from .channels import QuantumChannel
from .errors import DomainError
from .generators import (
    ArithmeticGenerator,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
)
from .hermitian import MatrixLike, _mat, _require_count
from .measures import (
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    Measure,
)


def matrix_to_json(M: MatrixLike) -> dict:
    mat = _mat(M)
    obj = {"dim": mat.shape[0], "re": mat.real.tolist()}
    if np.any(mat.imag != 0.0):
        obj["im"] = mat.imag.tolist()
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = _require_count("matrix dim", obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DomainError(
            f"matrix parts must be {dim}x{dim}, got re{re.shape} im{im.shape}"
        )
    return re + 1j * im


def measure_to_json(mu: Measure) -> dict:
    if isinstance(mu, BetaTypeMeasure):
        return {"kind": "beta", "t": mu.t}
    if isinstance(mu, DiscreteMeasure):
        return {"kind": "discrete", "atoms": [[l, m] for l, m in mu.atoms]}
    raise DomainError(f"unknown measure variant {type(mu).__name__}")


def measure_from_json(obj: dict) -> Measure:
    """A measure from its JSON object.  The "arcsine" kind loads as the
    Beta-type t = 1/2, and the "tabulated" kind, nodes in (0,1) with their
    weights, as the DiscreteMeasure of those atoms."""
    try:
        kind = obj.get("kind")
        if kind == "arcsine":
            return ArcsineMeasure()
        if kind == "beta":
            return BetaTypeMeasure(float(obj["t"]))
        if kind == "discrete":
            return DiscreteMeasure(tuple((float(l), float(m)) for l, m in obj["atoms"]))
        if kind == "tabulated":
            atoms = tuple(zip(obj["nodes"], obj["weights"], strict=True))
            if not all(0.0 < float(x) < 1.0 for x, _ in atoms):
                raise DomainError("tabulated nodes must lie in the open interval (0,1)")
            return DiscreteMeasure(atoms)
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed measure object: {exc!r}") from exc
    raise DomainError(f"unknown measure kind {kind!r}")


def generator_to_json(gen: MeasureGenerator) -> dict:
    if isinstance(gen, MeasureGenerator):
        return {"kind": "measure", "mu": measure_to_json(gen.mu)}
    raise DomainError(f"unknown generator variant {type(gen).__name__}")


def generator_from_json(obj: dict) -> MeasureGenerator:
    """A generator from its JSON object.  The named kinds (arithmetic,
    geometric, harmonic, power) load as the MeasureGenerator of their measure,
    which generator_to_json writes as the "measure" kind."""
    try:
        kind = obj.get("kind")
        if kind == "arithmetic":
            return ArithmeticGenerator(float(obj["lambda"]))
        if kind == "geometric":
            return GeometricGenerator(float(obj["lambda"]))
        if kind == "harmonic":
            return HarmonicGenerator(float(obj["lambda"]))
        if kind == "measure":
            return MeasureGenerator(measure_from_json(obj["mu"]))
        if kind == "power":
            return GeometricGenerator(float(obj["t"]))
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed generator object: {exc!r}") from exc
    raise DomainError(f"unknown generator kind {kind!r}")


def ensemble_to_json(ens: WeightedEnsemble) -> dict:
    return {
        "matrices": [matrix_to_json(A) for A in ens.matrices],
        "weights": ens.weights.tolist(),
    }


def ensemble_from_json(obj: dict) -> WeightedEnsemble:
    try:
        mats = [matrix_from_json(m) for m in obj["matrices"]]
        weights = np.asarray(obj["weights"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed ensemble object: {exc}") from exc
    return WeightedEnsemble(tuple(mats), weights)


def channel_to_json(T: QuantumChannel) -> dict:
    return {"kraus": [matrix_to_json(K) for K in T.kraus]}


def channel_from_json(obj: dict) -> QuantumChannel:
    try:
        kraus = [matrix_from_json(K) for K in obj["kraus"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed channel object: {exc}") from exc
    return QuantumChannel(kraus)


def report_to_json(report: SolverReport) -> dict:
    """The report's fields in their order, the solution as a matrix object."""
    obj = {f.name: getattr(report, f.name) for f in fields(report)}
    obj["solution"] = matrix_to_json(report.solution)
    obj["objective_trace"] = list(report.objective_trace)
    return obj
