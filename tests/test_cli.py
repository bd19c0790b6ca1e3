import json
from pathlib import Path

import numpy as np
import pytest

import qhmeans.cli as cli
from qhmeans.cli import InputError, main, parse_generator
from qhmeans import (
    BetaTypeMeasure,
    DivergenceSpec,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
    ensemble,
    noncommutativity_measure,
)
from qhmeans.serialize import matrix_from_json, matrix_to_json

from conftest import (
    BOUNDARY_MATS,
    BOUNDARY_WEIGHTS,
    REF_A1,
    REF_A2,
    REF_A3,
    REF_BARYCENTER,
    REF_PHI_A1_A2,
    REF_THREE_WEIGHTS,
    inv2,
    pinned_spectrum_ensemble_np,
)
from report_text import mismatches

A1, A2 = (json.dumps(matrix_to_json(M)) for M in (REF_A1, REF_A2))
PAIR = json.dumps({"matrices": [matrix_to_json(REF_A1), matrix_to_json(REF_A2)], "weights": [0.5, 0.5]})
THREE = json.dumps({
    "matrices": [matrix_to_json(M) for M in (REF_A1, REF_A2, REF_A3)],
    "weights": REF_THREE_WEIGHTS,
})


def harmonic_phi(A, B, lam):
    """phi(A, B) of the weighted harmonic mean ((1-lam) A^-1 + lam B^-1)^-1,
    c = lam, from 2x2 adjugate inverses."""
    mean = inv2((1 - lam) * inv2(A) + lam * inv2(B))
    return float(np.trace((1 - lam) * A + lam * B - mean))


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(mat)))
    return str(path)


def write_ensemble(path, mats, weights):
    obj = {"matrices": [matrix_to_json(m) for m in mats], "weights": list(weights)}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ref_files(tmp_path):
    a = write_matrix(tmp_path / "a.json", REF_A1)
    b = write_matrix(tmp_path / "b.json", REF_A2)
    ens = write_ensemble(tmp_path / "ens.json", [REF_A1, REF_A2], [0.5, 0.5])
    return a, b, ens


class TestParseGenerator:
    def test_shorthands(self):
        assert parse_generator("geometric:0.5") == GeometricGenerator(0.5)
        # log generates no mean, so it is no shorthand
        with pytest.raises(InputError, match="unknown generator shorthand 'log'"):
            parse_generator("log")
        assert isinstance(parse_generator("arcsine"), MeasureGenerator)
        # the commutative family's x^t is the geometric generator
        assert parse_generator("power:0.25") == GeometricGenerator(0.25)

    def test_power_shorthands_build_one_generator(self):
        gens = {parse_generator(f"{name}:0.25") for name in ("beta", "geometric", "power")}
        assert gens == {MeasureGenerator(BetaTypeMeasure(0.25))}

    def test_json_form(self):
        assert parse_generator('{"kind":"geometric","lambda":0.5}') == GeometricGenerator(0.5)

    def test_missing_parameter(self):
        with pytest.raises(Exception):
            parse_generator("geometric")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("foo", "unknown generator shorthand 'foo'"),
            ("foo:abc", "unknown generator shorthand 'foo:abc'"),
            ("log", "unknown generator shorthand 'log'"),
            ("log:2", "unknown generator shorthand 'log:2'"),
            ("LOG:", "unknown generator shorthand 'LOG:'"),
            ("geometric:abc", "generator 'geometric' needs a numeric parameter, got 'abc'"),
        ],
    )
    def test_unknown_name_and_non_numeric_parameter_are_input_errors(self, text, message, capsys):
        with pytest.raises(InputError, match=message):
            parse_generator(text)
        a = '{"dim": 1, "re": [[2.0]]}'
        assert main(["divergence", "--inline", a, "--inline", a, "--generator", text]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["arcsine:0.3", "arcsine:"])
    def test_shorthands_without_a_parameter_refuse_one(self, text):
        name = text.partition(":")[0].lower()
        with pytest.raises(InputError, match=f"generator '{name}' takes no parameter"):
            parse_generator(text)

    def test_divergence_refuses_a_parameterized_arcsine(self, capsys):
        a = '{"dim": 2, "re": [[2, 0], [0, 1]]}'
        b = '{"dim": 2, "re": [[1, 0], [0, 1]]}'
        code = main(["divergence", "--generator", "arcsine:0.3", "--inline", a, "--inline", b])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "generator 'arcsine' takes no parameter" in err


class TestMean:
    def test_identity_case(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "i1.json", np.eye(2))
        b = write_matrix(tmp_path / "i2.json", np.eye(2))
        code = main(["mean", "--input", a, "--input", b, "--generator", "geometric:0.5"])
        assert code == 0
        out = matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(out, np.eye(2))

    def test_riccati_property_on_reference(self, ref_files, capsys):
        a, b, _ = ref_files
        code = main(["mean", "--input", a, "--input", b, "--generator", "geometric:0.5"])
        assert code == 0
        G = matrix_from_json(json.loads(capsys.readouterr().out)).real
        assert np.linalg.norm(G @ inv2(REF_A1) @ G - REF_A2) <= 1e-8

    def test_diagonal_entrywise(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.diag([4.0, 1.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([1.0, 4.0]))
        code = main(["mean", "--input", a, "--input", b, "--generator", "harmonic:0.5"])
        assert code == 0
        out = matrix_from_json(json.loads(capsys.readouterr().out)).real
        # entrywise harmonic mean: 2/(1/4 + 1/1) = 1.6
        assert np.allclose(np.diag(out), [1.6, 1.6])

    def test_inline_json(self, capsys):
        blob = json.dumps(matrix_to_json(np.eye(2)))
        code = main(["mean", "--inline", blob, "--inline", blob])
        assert code == 0

    def test_arithmetic_generator(self, capsys):
        assert main(["mean", "--inline", A1, "--inline", A2, "--generator", "arithmetic:0.3"]) == 0
        out = matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.max(np.abs(out - (0.7 * REF_A1 + 0.3 * REF_A2))) <= 1e-14

    def test_unit_atom_at_zero_gives_the_first_argument(self, capsys):
        # every measure gives a mean: f = 1 for a unit atom at 0, so A s B = A
        gen = '{"kind": "measure", "mu": {"kind": "discrete", "atoms": [[0.0, 1.0]]}}'
        assert main(["mean", "--inline", A1, "--inline", A2, "--generator", gen]) == 0
        out = matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.max(np.abs(out - REF_A1)) <= 1e-14

    def test_complex_entries_in_the_table_format(self, capsys):
        a = matrix_to_json(np.array([[2.0, 0.5j], [-0.5j, 1.0]]))
        code = main(["mean", "--inline", json.dumps(a), "--inline", A2, "--format", "table"])
        assert code == 0
        cells = capsys.readouterr().out.split()
        assert len(cells) == 4 and cells[1].endswith("i") and cells[2].endswith("i")

    def test_round_trip_of_printed_matrix(self, ref_files, capsys):
        a, b, _ = ref_files
        main(["mean", "--input", a, "--input", b])
        printed = capsys.readouterr().out
        again = matrix_from_json(json.loads(printed))
        assert np.max(np.abs(again - matrix_from_json(json.loads(printed)))) <= 1e-12


class TestDivergence:
    def test_zero_on_equal(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        code = main(["divergence", "--input", a, "--input", a])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["divergence"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scalar_closed_form(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.array([[4.0]]))
        b = write_matrix(tmp_path / "b.json", np.array([[1.0]]))
        code = main(["divergence", "--input", a, "--input", b, "--generator", "arcsine"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["divergence"] == pytest.approx(
            0.5, abs=1e-12
        )

    def test_reference_pair_agrees_with_all_library_paths(self, ref_files, capsys):
        from qhmeans import DivergenceSpec, arcsine_generator, pd, phi, phi_via_bregman, phi_via_g

        a, b, _ = ref_files
        code = main(["divergence", "--input", a, "--input", b, "--generator", "arcsine"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)["divergence"]
        spec = DivergenceSpec(arcsine_generator())
        A, B = pd(REF_A1), pd(REF_A2)
        for path_value in (phi(A, B, spec), phi_via_g(A, B, spec), phi_via_bregman(A, B, spec)):
            assert printed == pytest.approx(path_value, abs=1e-9)


    @pytest.mark.parametrize(
        "generator, expected, rel",
        [
            ("harmonic:0.3", harmonic_phi(REF_A1, REF_A2, 0.3), 1e-14),
            (
                '{"kind": "measure", "mu": {"kind": "tabulated", "nodes": [0.2, 0.5], "weights": [0.5, 0.5]}}',
                0.5 * harmonic_phi(REF_A1, REF_A2, 0.2) + 0.5 * harmonic_phi(REF_A1, REF_A2, 0.5),
                1e-14,
            ),
            # the atoms at 0 and 1 add nothing, and the 1e-8 inside makes f
            # strictly concave, far above the rounding floor; phi of 1e-8 is
            # an O(1) trace minus an O(1) mean, so it keeps fewer digits
            (
                '{"kind": "measure", "mu": {"kind": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.49999999], [0.5, 1e-8]]}}',
                1e-8 * harmonic_phi(REF_A1, REF_A2, 0.5),
                1e-6,
            ),
            # the legacy arcsine kind reads as the Beta-type t = 1/2
            ('{"kind": "measure", "mu": {"kind": "arcsine"}}', REF_PHI_A1_A2, 1e-14),
        ],
        ids=["harmonic:0.3", "tabulated", "discrete-inner-mass-1e-8", "legacy-arcsine"],
    )
    def test_named_and_measure_generators(self, generator, expected, rel, capsys):
        assert main(["divergence", "--inline", A1, "--inline", A2, "--generator", generator]) == 0
        value = json.loads(capsys.readouterr().out)["divergence"]
        assert value == pytest.approx(expected, rel=rel)


class TestBarycenter:
    def test_single_matrix(self, tmp_path, capsys):
        ens = write_ensemble(tmp_path / "e.json", [REF_A1], [1.0])
        code = main(["barycenter", "--input", ens])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"]
        sol = matrix_from_json(report["solution"])
        assert np.max(np.abs(sol - REF_A1)) <= 1e-7

    def test_reference_ensemble(self, ref_files, capsys):
        _, _, ens = ref_files
        code = main(["barycenter", "--input", ens, "--generator", "arcsine"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        sol = matrix_from_json(report["solution"]).real
        assert np.max(np.abs(sol - REF_BARYCENTER)) <= 1e-3

    def test_nonconvergence_exit_code(self, ref_files, capsys):
        _, _, ens = ref_files
        code = main(["barycenter", "--input", ens, "--max-iter", "2"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)  # report still printed
        assert report["converged"] is False

    def test_solve_at_the_cone_boundary_exits_3(self, tmp_path, capsys):
        # a solver failure on valid input is a report, not an input error
        ens = write_ensemble(tmp_path / "e.json", BOUNDARY_MATS, BOUNDARY_WEIGHTS)
        code = main(["barycenter", "--input", ens, "--generator", "harmonic:0.3"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_start_without_a_pass_exits_3(self, tmp_path, capsys):
        # members of condition 5.8e14: the arithmetic mean fails the Newton
        # pass's cone test, so the start is reported, unconverged
        mats, weights = pinned_spectrum_ensemble_np(np.random.default_rng(1), 8, 3, 17.0)
        ens = write_ensemble(tmp_path / "e.json", mats, weights)
        code = main(["barycenter", "--input", ens])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False and report["iterations"] == 0
        assert report["final_residual"] == float("inf")

    @pytest.mark.parametrize("generator", ["harmonic:0.3", "geometric:0.5", "beta:0.25"])
    def test_both_newton_starts(self, generator, capsys):
        # harmonic:0.3 starts Newton at the arithmetic mean, geometric:0.5
        # and beta:0.25 (f = x^t) at its multiple on the ray through it
        assert main(["barycenter", "--generator", generator, "--inline", PAIR]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_is_an_input_error(self, capsys, tol):
        # an infinite tolerance once reported converged at iteration 0, and a
        # NaN one ran out the iteration cap
        a = '{"dim": 2, "re": [[4.0, 0.0], [0.0, 1.0]]}'
        b = '{"dim": 2, "re": [[2.5, 1.5], [1.5, 2.5]]}'
        blob = f'{{"matrices": [{a}, {b}], "weights": [0.5, 0.5]}}'
        code = main(["barycenter", "--inline", blob, "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "residual_tol" in captured.err

    def test_table_format(self, ref_files, capsys):
        _, _, ens = ref_files
        code = main(["barycenter", "--input", ens, "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged:  True" in out

    def test_commuting_power_family_matches_scalar_oracle(self, tmp_path, capsys):
        t = 0.25
        diag = np.array([[2.0, 0.5, 1.0], [0.8, 1.5, 3.0]])
        w = np.array([0.6, 0.4])
        ens = write_ensemble(tmp_path / "e.json", [np.diag(r) for r in diag], w)
        code = main(["barycenter", "--input", ens, "--generator", f"geometric:{t}"])
        assert code == 0
        sol = matrix_from_json(json.loads(capsys.readouterr().out)["solution"]).real
        oracle = np.sum(w[:, None] * diag ** (1 - t), axis=0) ** (1 / (1 - t))
        assert np.max(np.abs(np.diag(sol) - oracle)) <= 1e-6


class TestPowerMean:
    def test_single_matrix(self, tmp_path, capsys):
        ens = write_ensemble(tmp_path / "e.json", [REF_A2], [1.0])
        code = main(["power-mean", "--input", ens, "--t", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        sol = matrix_from_json(report["solution"]).real
        assert np.max(np.abs(sol - REF_A2)) <= 1e-7


    def test_newton_steps_on_three_members(self, capsys):
        # two members would converge after the exact first step, and no
        # Newton step would run; the fixed point is X = sum_j w_j X #_{3/4} A_j
        assert main(["power-mean", "--t", "0.25", "--inline", THREE]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True and report["iterations"] >= 3
        X = matrix_from_json(report["solution"])
        lam, U = np.linalg.eigh(X)
        root, inv_root = (U * np.sqrt(lam)) @ U.conj().T, (U / np.sqrt(lam)) @ U.conj().T
        image = np.zeros_like(X)
        for w, A in zip(REF_THREE_WEIGHTS, (REF_A1, REF_A2, REF_A3)):
            e, V = np.linalg.eigh(inv_root @ A @ inv_root)
            image += w * root @ ((V * e**0.75) @ V.conj().T) @ root
        assert np.linalg.norm(image - X) <= 1e-7 * np.linalg.norm(X)


class TestNcMeasure:
    def test_three_members_under_harmonic_generator(self, capsys):
        assert main(["ncmeasure", "--generator", "harmonic:0.3", "--inline", THREE]) == 0
        value = json.loads(capsys.readouterr().out)["noncommutativity"]
        ens = ensemble([REF_A1, REF_A2, REF_A3], REF_THREE_WEIGHTS)
        assert value == noncommutativity_measure(ens, DivergenceSpec(HarmonicGenerator(0.3)))
        assert value > 0.01

    def test_commuting_ensemble(self, tmp_path, capsys):
        ens = write_ensemble(
            tmp_path / "e.json", [np.diag([2.0, 1.0]), np.diag([1.0, 3.0])], [0.5, 0.5]
        )
        code = main(["ncmeasure", "--input", ens])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["noncommutativity"] <= 1e-6

    def test_reference_ensemble(self, ref_files, capsys):
        _, _, ens = ref_files
        code = main(["ncmeasure", "--input", ens, "--metric", "frobenius"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["noncommutativity"] >= 0.03

    def test_single_member_is_zero(self, tmp_path, capsys):
        ens = write_ensemble(tmp_path / "e.json", [REF_A1], [1.0])
        code = main(["ncmeasure", "--input", ens])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["noncommutativity"] <= 1e-7

    def test_solver_failure_exit(self, ref_files, capsys):
        _, _, ens = ref_files
        code = main(["ncmeasure", "--input", ens, "--max-iter", "2"])
        assert code == 3

    def test_table_format(self, ref_files, capsys):
        _, _, ens = ref_files
        assert main(["ncmeasure", "--input", ens]) == 0
        value = json.loads(capsys.readouterr().out)["noncommutativity"]
        assert main(["ncmeasure", "--input", ens, "--format", "table"]) == 0
        assert capsys.readouterr().out == f"{value:.6g}\n"


class TestProperties:
    def test_zero_trials_vacuous_pass(self, capsys):
        assert main(["properties", "--trials", "0", "--seed", "1"]) == 0

    def test_negative_trials_rejected(self, capsys):
        assert main(["properties", "--trials", "-3"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_zero_dim_rejected(self, capsys):
        assert main(["properties", "--trials", "2", "--dim", "0"]) == 2
        assert "dim must be an integer >= 1" in capsys.readouterr().err

    def test_small_campaign_passes(self, capsys):
        code = main(["properties", "--trials", "10", "--dim", "2", "--seed", "42"])
        assert code == 0
        assert "ALL PASSED" in capsys.readouterr().out

    def test_corrupt_channel_detected(self, capsys):
        code = main(
            ["properties", "--trials", "5", "--dim", "2", "--seed", "42",
             "--corrupt-channel"]
        )
        assert code == 4
        out = capsys.readouterr().out
        assert "trace preserving" in out and "rng key" in out

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_beta_type_campaigns_discard_nothing(self, dim, capsys):
        # at the golden files' dimension 2 and the benchmark's 3 and 4
        argv = ["properties", "--generator", "beta:0.25", "--seed", "7", "--trials", "5"]
        assert main([*argv, "--dim", str(dim)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "trials=5" in line]
        assert len(rows) == 4
        assert all(" PASS " in row and "discarded=0" in row for row in rows)

    def test_deterministic_output(self, capsys):
        argv = ["properties", "--trials", "5", "--dim", "2", "--seed", "7"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


REPORTS = Path(__file__).parent / "data" / "properties_report"


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupt"])
@pytest.mark.parametrize("generator", ["arcsine", "geometric:0.5", "harmonic:0.3"])
def test_properties_report_matches_the_pinned_text(generator, corrupt, capsys):
    # The files hold the console script's stdout for these arguments, written
    # before the convex-order campaign moved to atom arrays.  This test is the
    # one comparison with them; CI runs it under the default, Haswell and Zen
    # OpenBLAS kernels.  Only the digits of the inputs a violating trial
    # prints may differ, by BLAS kernel.
    argv = ["properties", "--generator", generator, "--seed", "7", "--trials", "20", "--dim", "3"]
    code = main(argv + ["--corrupt-channel"] * corrupt)
    assert code == (4 if corrupt else 0)
    name = f"{generator.replace(':', '-')}-{'corrupt' if corrupt else 'honest'}.txt"
    assert mismatches((REPORTS / name).read_text(), capsys.readouterr().out) == []


def test_report_comparison_tolerates_only_input_digits():
    pinned = (REPORTS / "arcsine-corrupt.txt").read_text()
    line = next(k for k, text in enumerate(pinned.splitlines()) if "inputs:" in text)
    # the last digits of an input, as another QR kernel prints them
    kernel = pinned.replace("-0.01675452670571757", "-0.016754526705717573", 1)
    assert kernel != pinned
    assert mismatches(pinned, kernel) == []
    edits = [
        pinned.replace("-0.01675452670571757", "-0.01675452670581757", 1),  # an input, 6e-12 off
        pinned.replace("'re'", "'im'", 1),  # input text
        pinned.replace("worst_slack=-1.775e-01", "worst_slack=-1.776e-01", 1),
        pinned.replace("FAIL", "PASS", 1),
        pinned.rstrip("\n"),
        pinned + "\n",
    ]
    for edited in edits:
        assert edited != pinned
        assert mismatches(pinned, edited)
    assert [k for k, _, _ in mismatches(pinned, edits[0])] == [line + 1]


class TestVerifyPaper:
    def test_passes(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out

    def test_nonconvergence_exits_3(self, capsys):
        assert main(["verify-paper", "--max-iter", "1"]) == 3
        assert "barycenter solver did not converge" in capsys.readouterr().err

    def test_reference_mismatch_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "REFERENCE_BARYCENTER", REF_BARYCENTER + 0.01)
        assert main(["verify-paper"]) == 5
        assert "verification FAILED" in capsys.readouterr().err


# Each subcommand accepts only the flags it reads.
UNREAD_FLAGS = [
    (command, flag)
    for command in ("mean", "divergence", "properties")
    for flag in (["--tol", "1e-6"], ["--max-iter", "10"])
] + [
    (command, flag)
    for command in ("properties", "verify-paper")
    for flag in (["--input", "a.json"], ["--inline", "{}"], ["--format", "json"])
]


class TestErrorHandling:
    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["mean", "--input", "/nonexistent.json", "--input", "/n2.json"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["mean", "--input", str(p), "--input", str(p)]) == 2

    def test_bad_inline_json(self, capsys):
        assert main(["mean", "--inline", "{not json", "--inline", A2]) == 2
        assert "bad inline JSON" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        b = write_matrix(tmp_path / "b.json", np.eye(3))
        assert main(["mean", "--input", a, "--input", b]) == 2

    def test_fractional_matrix_dim(self, capsys):
        # a dim of 2.7 is refused, not truncated to 2
        a = '{"dim": 2.7, "re": [[2, 0], [0, 1]]}'
        b = '{"dim": 2, "re": [[1, 0], [0, 1]]}'
        assert main(["divergence", "--inline", a, "--inline", b]) == 2
        assert "matrix dim must be an integer >= 1" in capsys.readouterr().err

    def test_wrong_input_count(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        assert main(["mean", "--input", a]) == 2

    def test_non_pd_input(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.diag([1.0, -1.0]))
        assert main(["mean", "--input", a, "--input", a]) == 2

    @pytest.mark.parametrize(
        "weights,entry",
        [([float("nan"), 0.5], 1.0), ([0.5, 0.5], float("inf")), ([0.5, 0.5], float("nan"))],
    )
    def test_non_finite_ensemble(self, tmp_path, capsys, weights, entry):
        ens = write_ensemble(tmp_path / "ens.json", [np.diag([entry, 1.0]), np.eye(2)], weights)
        assert main(["barycenter", "--input", ens]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", [float("inf"), float("nan")])
    def test_non_finite_matrix(self, tmp_path, capsys, entry):
        a = write_matrix(tmp_path / "a.json", np.diag([entry, 1.0]))
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["mean", "--input", a, "--input", b]) == 2

    @pytest.mark.parametrize(
        "generator",
        [
            '{"kind":"geometric"}',
            '{"kind":"measure"}',
            '{"kind":"measure","mu":5}',
            '{"kind":"measure","mu":{"kind":"beta"}}',
            '{"kind":"measure","mu":{"kind":"discrete","atoms":5}}',
        ],
    )
    def test_malformed_generator_json(self, ref_files, capsys, generator):
        a, b, _ = ref_files
        assert main(["divergence", "--input", a, "--input", b, "--generator", generator]) == 2
        assert capsys.readouterr().err.startswith("error: malformed")
