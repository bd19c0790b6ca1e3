import json
import re

import mpmath as mp
import numpy as np
import pytest

from qhmeans import (
    ArithmeticGenerator,
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    DomainError,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
    ensemble,
    solve_barycenter,
    DivergenceSpec,
    arcsine_generator,
    phi,
)
from qhmeans.serialize import (
    ensemble_from_json,
    generator_from_json,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    report_to_json,
)

from conftest import mp_phi, random_pd_np


class TestMatrixJson:
    def test_round_trip_complex(self, rng):
        M = random_pd_np(rng, 3)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
        assert np.max(np.abs(back - M)) <= 1e-12

    def test_real_matrix_omits_im(self):
        obj = matrix_to_json(np.diag([4.0, 1.0]))
        assert "im" not in obj
        assert obj["dim"] == 2
        back = matrix_from_json(obj)
        assert np.array_equal(back, np.diag([4.0, 1.0]).astype(complex))

    def test_missing_im_means_zero(self):
        back = matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]})
        assert np.array_equal(back, np.eye(2, dtype=complex))

    def test_malformed_raises(self):
        with pytest.raises(DomainError):
            matrix_from_json({"dim": 2, "re": [[1.0]]})
        with pytest.raises(DomainError):
            matrix_from_json({"re": [[1.0]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"dim": 2.7, "re": [[2.0, 0.0], [0.0, 1.0]]},
            {"dim": 2.0, "re": [[2.0, 0.0], [0.0, 1.0]]},
            {"dim": True, "re": [[1.0]]},
            {"dim": "1", "re": [[1.0]]},
            {"dim": 0, "re": []},
            {"dim": -1, "re": []},
        ],
        ids=["fractional", "float", "bool", "string", "zero", "negative"],
    )
    def test_dim_must_be_a_positive_integer(self, obj):
        # refused before any array is built: not truncated, and no numpy error
        with pytest.raises(DomainError, match="matrix dim must be an integer >= 1"):
            matrix_from_json(obj)


class TestMeasureAndGeneratorJson:
    @pytest.mark.parametrize(
        "obj,mu",
        [
            ('{"kind": "beta", "t": 0.5}', ArcsineMeasure()),
            ('{"kind": "beta", "t": 0.25}', BetaTypeMeasure(0.25)),
            ('{"kind": "discrete", "atoms": [[0.5, 1.0]]}', DiscreteMeasure(((0.5, 1.0),))),
        ],
        ids=["beta-half", "beta", "discrete"],
    )
    def test_measure_reads(self, obj, mu):
        assert measure_from_json(json.loads(obj)) == mu

    def test_legacy_arcsine_kind_reads(self):
        assert measure_from_json({"kind": "arcsine"}) == BetaTypeMeasure(0.5)
        gen = generator_from_json({"kind": "measure", "mu": {"kind": "arcsine"}})
        assert gen == GeometricGenerator(0.5)

    def test_documented_forms(self):
        assert measure_from_json({"kind": "arcsine"}) == ArcsineMeasure()
        assert measure_from_json({"kind": "beta", "t": 0.5}) == BetaTypeMeasure(0.5)
        assert measure_from_json(
            {"kind": "discrete", "atoms": [[0.5, 1.0]]}
        ) == DiscreteMeasure(((0.5, 1.0),))

    def test_measure_kind_reads_the_square_root(self):
        gen = generator_from_json(json.loads('{"kind": "measure", "mu": {"kind": "beta", "t": 0.5}}'))
        assert gen == GeometricGenerator(0.5) == MeasureGenerator(ArcsineMeasure())

    def test_generator_documented_forms(self):
        assert generator_from_json(
            {"kind": "geometric", "lambda": 0.5}
        ) == GeometricGenerator(0.5)
        with pytest.raises(DomainError, match="unknown generator kind 'log'"):
            generator_from_json({"kind": "log"})
        assert generator_from_json({"kind": "power", "t": 0.25}) == GeometricGenerator(0.25)

    @pytest.mark.parametrize(
        "mu,gen",
        [
            ('{"kind": "discrete", "atoms": [[0.0, 0.7], [1.0, 0.3]]}', ArithmeticGenerator(0.3)),
            ('{"kind": "beta", "t": 0.5}', GeometricGenerator(0.5)),
            ('{"kind": "discrete", "atoms": [[0.3, 1.0]]}', HarmonicGenerator(0.3)),
        ],
        ids=["arithmetic", "geometric", "harmonic"],
    )
    def test_named_generators_read_as_measures(self, mu, gen):
        assert generator_from_json(json.loads(f'{{"kind": "measure", "mu": {mu}}}')) == gen

    @pytest.mark.parametrize(
        "obj,gen",
        [
            ({"kind": "arithmetic", "lambda": 0.3}, ArithmeticGenerator(0.3)),
            ({"kind": "geometric", "lambda": 0.5}, GeometricGenerator(0.5)),
            ({"kind": "harmonic", "lambda": 0.3}, HarmonicGenerator(0.3)),
            ({"kind": "power", "t": 0.25}, GeometricGenerator(0.25)),
            ({"kind": "measure", "mu": {"kind": "arcsine"}}, arcsine_generator()),
        ],
    )
    def test_every_documented_kind_reads(self, obj, gen):
        assert generator_from_json(obj) == gen

    def test_log_generator_has_no_kind(self):
        # log generates no mean, so it is not read
        with pytest.raises(DomainError, match="unknown generator kind 'log'"):
            generator_from_json({"kind": "log"})

    @pytest.mark.parametrize("kind", ["exotic", ["geometric"], 3, None], ids=repr)
    def test_unknown_kind(self, kind):
        # a kind that is not a family name, a string or even hashable is unknown
        with pytest.raises(DomainError, match=re.escape(f"unknown generator kind {kind!r}")):
            generator_from_json({"kind": kind, "lambda": 0.5})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "beta"},
            {"kind": "beta", "t": "half"},
            {"kind": "discrete", "atoms": 5},
            {"kind": "discrete", "atoms": [[0.5]]},
            {"kind": "tabulated", "nodes": [0.2, 0.5], "weights": [1.0]},
            {"kind": "tabulated", "nodes": [0.5]},
            [["kind", "beta"]],
        ],
        ids=["beta-no-t", "beta-t-text", "atoms-not-a-list", "atom-without-mass",
             "tabulated-lengths", "tabulated-no-weights", "not-an-object"],
    )
    def test_malformed_measure(self, obj):
        # a missing or mistyped field is a DomainError naming the object,
        # not the KeyError or TypeError behind it
        with pytest.raises(DomainError, match="malformed measure object"):
            measure_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "arithmetic"},
            {"kind": "geometric", "lambda": "half"},
            {"kind": "harmonic", "lambda": None},
            {"kind": "power"},
            {"kind": "measure"},
            [["kind", "power"]],
        ],
        ids=["arithmetic-no-lambda", "geometric-lambda-text", "harmonic-lambda-null",
             "power-no-t", "measure-no-mu", "not-an-object"],
    )
    def test_malformed_generator(self, obj):
        with pytest.raises(DomainError, match="malformed generator object"):
            generator_from_json(obj)

    def test_unknown_measure_kind(self):
        with pytest.raises(DomainError, match="unknown measure kind 'exotic'"):
            measure_from_json({"kind": "exotic"})

    def test_tabulated_loads_as_discrete(self):
        obj = {"kind": "tabulated", "nodes": [0.2, 0.5], "weights": [0.5, 0.5]}
        mu = measure_from_json(obj)
        assert mu == DiscreteMeasure(((0.2, 0.5), (0.5, 0.5)))
        for edge in (0.0, 1.0):
            with pytest.raises(DomainError):
                measure_from_json({**obj, "nodes": [edge, 0.5]})
        spec = DivergenceSpec(MeasureGenerator(mu))
        B = np.array([[2.5, 1.5], [1.5, 2.5]])
        value = phi(np.diag([4.0, 1.0]), B, spec)
        assert value == 0.9301364200082691
        # The 50-digit value is 0.93013642000826789...; the pinned bits sit
        # 1.3e-15 from it in relative terms.
        reference = mp_phi(
            np.diag([4.0, 1.0]),
            B,
            lambda x: sum(m * x / ((1 - mp.mpf(l)) * x + l) for l, m in mu.atoms),
            spec.c,
            dps=50,
        )
        assert abs(value - reference) <= 2e-15 * reference


class TestEnsembleAndReportJson:
    def test_ensemble_reads(self):
        obj = json.loads(
            '{"matrices": [{"dim": 2, "re": [[4.0, 0.0], [0.0, 1.0]]},'
            ' {"dim": 2, "re": [[2.5, 1.5], [1.5, 2.5]], "im": [[0.0, 0.5], [-0.5, 0.0]]}],'
            ' "weights": [0.25, 0.75]}'
        )
        ens = ensemble_from_json(obj)
        assert np.array_equal(ens.weights, [0.25, 0.75])
        assert np.array_equal(ens.stack[0], np.diag([4.0, 1.0]).astype(complex))
        assert np.array_equal(ens.stack[1], [[2.5, 1.5 + 0.5j], [1.5 - 0.5j, 2.5]])

    @pytest.mark.parametrize(
        "obj", [{"weights": [1.0]}, {"matrices": 5, "weights": [1.0]}], ids=["no-matrices", "not-a-list"]
    )
    def test_malformed_ensemble(self, obj):
        with pytest.raises(DomainError, match="malformed ensemble object"):
            ensemble_from_json(obj)

    def test_report_json_mirrors_fields(self, rng):
        ens = ensemble([random_pd_np(rng, 2)], [1.0])
        report = solve_barycenter(ens, DivergenceSpec(arcsine_generator()))
        obj = report_to_json(report)
        assert set(obj) == {
            "solution",
            "iterations",
            "final_residual",
            "objective_trace",
            "converged",
        }
        assert obj["converged"] is True
        json.dumps(obj)  # fully JSON-serializable
