"""Command line interface: exit codes, JSON report shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chernforms import CurvatureTensor, Form, cli, curvature, models, random_tensor
from chernforms.cli import build_parser, run
from chernforms.forms import VerdictReport
from chernforms.schur import SchurCheck, SchurReport


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


@pytest.fixture
def tensor_file(tmp_path):
    t = random_tensor(2, 2, 2, seed=17)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(t.to_json()))
    return str(path), t


class TestFormsEval:
    def test_frozen_pairing(self, capsys, tmp_path):
        # psi ^ conj(psi) with psi = dz1 ^ dz2 on X1=(1,2i), X2=(3,4): 52
        psi = Form.dz(2, 1).wedge(Form.dz(2, 2))
        phi = psi.wedge(psi.conjugate())
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(phi.to_literal()))
        vec_path = tmp_path / "vectors.json"
        vec_path.write_text(json.dumps([
            [{"re": 1}, {"im": 2}],
            [{"re": 3}, {"re": 4}],
        ]))
        payload = invoke_json(capsys, "forms", "eval",
                              "--form", str(form_path), "--vectors", str(vec_path))
        assert payload["kind"] == "forms-eval"
        assert payload["value"]["re"] == pytest.approx(52.0)
        assert payload["value"]["im"] == pytest.approx(0.0)

    def test_exact_mode_reports_exact_parts(self, capsys, tmp_path):
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(
            {"n": 1, "terms": [{"dz": [1], "dzbar": [1], "re": 0, "im": 0.5}]}))
        vec_path = tmp_path / "vectors.json"
        vec_path.write_text(json.dumps([[{"re": 2}]]))
        payload = invoke_json(capsys, "forms", "eval", "--mode", "exact",
                              "--form", str(form_path), "--vectors", str(vec_path))
        # (-i)(i/2)|2|^2 = 2
        assert payload["value"]["re_exact"] == "2"
        assert payload["value"]["re"] == pytest.approx(2.0)

    def test_malformed_vectors(self, capsys, tmp_path):
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(Form.dz(1, 1).wedge(Form.dzbar(1, 1)).to_literal()))
        vec_path = tmp_path / "vectors.json"
        vec_path.write_text(json.dumps([[{"re": "x"}]]))
        code, _, err = invoke(capsys, "forms", "eval",
                              "--form", str(form_path), "--vectors", str(vec_path))
        assert code == 2
        assert "vectors[0]" in err


class TestNonFiniteInput:
    """json reads NaN and Infinity as floats; every {re, im} parser must
    reject them as malformed input (exit 2) and name the field."""

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("literal,part", [("NaN", "re"), ("Infinity", "im"),
                                              ("-Infinity", "re")])
    @pytest.mark.parametrize("entry", ["form", "omega", "vector", "tensor"])
    def test_rejected_with_field_name(self, capsys, tmp_path, entry, literal, part, mode):
        good = '{"dz": [1], "dzbar": [1], "re": 1}'
        bad = '{"dz": [1], "dzbar": [1], "%s": %s}' % (part, literal)
        form_path = tmp_path / "form.json"
        vec_path = tmp_path / "vectors.json"
        inst_path = tmp_path / "instance.json"
        form_path.write_text('{"n": 1, "terms": [%s]}' % (bad if entry == "form" else good))
        vec_path.write_text('[[{"%s": %s}]]' % (part, literal) if entry == "vector"
                            else '[[{"re": 2}]]')
        if entry == "omega":
            inst_path.write_text('{"omega": [[{"n": 1, "terms": [%s]}]]}' % bad)
            argv = ["curvature", "build", "--instance", str(inst_path)]
            field = f"terms[0].{part}"
        elif entry == "tensor":
            inst_path.write_text('{"n": 1, "r": 1, "m": 1, "T": [[[{"%s": %s}]]]}'
                                 % (part, literal))
            # tensor instances are float-only: schur verify takes no --mode
            argv = ["schur", "verify", "--instance", str(inst_path), "--trials", "1"]
            field = f"T[0][0][0].{part}"
        else:
            argv = ["forms", "eval", "--form", str(form_path), "--vectors", str(vec_path)]
            field = f"terms[0].{part}" if entry == "form" else f"vectors[0][0].{part}"
        if entry != "tensor":
            argv += ["--mode", mode]
        code, out, err = invoke(capsys, *argv)
        assert code == 2, out
        assert field in err and "finite" in err


class TestOverflowingInstance:
    # ``curvature build`` checks the entries of the built curvature, and
    # ``schur verify`` and ``bounds chain`` the same sums, taken from T
    COMMANDS = [["curvature", "build"], ["schur", "verify", "--trials", "1"],
                ["bounds", "chain", "--trials", "1"]]

    # a finite tensor entry whose curvature overflows: A ^ conj(A) is
    # 1e400 dz ^ dzbar, which is inf in float arithmetic
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_exits_two_naming_the_entry(self, capsys, tmp_path, argv):
        path = tmp_path / "instance.json"
        path.write_text('{"n": 1, "r": 1, "m": 1, "T": [[[{"re": 1e200, "im": 0}]]]}')
        code, out, err = invoke(capsys, *argv, "--instance", str(path))
        assert code == 2 and out == ""
        assert err == "error: curvature entry (1,1) is not finite\n"

    # each product T[0, i, k] conj(T[0, j, k]) is 1e308, finite, and only
    # their sum over the m = 2 columns overflows; entry (1,1) stays finite
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_only_the_column_sum_overflows(self, capsys, tmp_path, argv):
        t = [[[{"re": 1e-3}, {"re": 0}], [{"re": 1e154}, {"re": 1e154}]]]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 1, "r": 2, "m": 2, "T": t}))
        code, out, err = invoke(capsys, *argv, "--instance", str(path))
        assert code == 2 and out == ""
        assert err == "error: curvature entry (2,2) is not finite\n"


class TestOverflowingChernForms:
    # finite curvature entries whose Chern forms, or products of them,
    # overflow: each command exits 2 instead of a FAIL or a NaN report
    COMMANDS = TestOverflowingInstance.COMMANDS
    CHERN = "error: Chern form c_2 is not finite: its coefficients overflow\n"

    # Omega = diag(1e200 dz1 ^ dzbar1, 1e200 dz2 ^ dzbar2) is finite, and
    # c_2 is about 1e400
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_tensor_chern_form(self, capsys, tmp_path, argv):
        zero, big = {"re": 0, "im": 0}, {"re": 1e100, "im": 0}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "m": 1,
                                    "T": [[[big], [zero]], [[zero], [big]]]}))
        assert invoke(capsys, *argv, "--instance", str(path)) == (2, "", self.CHERN)

    @pytest.mark.filterwarnings("error")
    def test_omega_literal_chern_form(self, capsys, tmp_path):
        def entry(i):
            return {"n": 2, "terms": [{"dz": [i], "dzbar": [i], "re": 1e200}]}
        empty = {"n": 2, "terms": []}
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"omega": [[entry(1), empty], [empty, entry(2)]]}))
        assert invoke(capsys, "curvature", "build", "--instance", str(path)) == \
            (2, "", self.CHERN)

    # r = 1 and m = 2: c_1 = (sqrt(-1)/2 pi) 1e200 (dz1 ^ dzbar1 + dz2 ^ dzbar2)
    # is finite, and c_1 ^ c_1, the form S_(1,1) and the top of c_(1,1), is not
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_product_of_chern_forms(self, capsys, tmp_path, argv):
        zero, big = {"re": 0, "im": 0}, {"re": 1e100, "im": 0}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 2, "r": 1, "m": 2,
                                    "T": [[[big, zero]], [[zero, big]]]}))
        message = ("top coefficient is not finite: the form overflows" if argv[0] == "curvature"
                   else "form is not finite: largest coefficient magnitude inf")
        assert invoke(capsys, *argv, "--instance", str(path)) == (2, "", f"error: {message}\n")


class TestInstanceLengths:
    # an r no array could hold is refused by the length check of T[0], not
    # by numpy failing to allocate (n, r, m)
    @pytest.mark.parametrize("argv", TestOverflowingInstance.COMMANDS)
    def test_checked_before_allocating(self, capsys, tmp_path, argv):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "r": 100000000000000000000, "m": 1, "T": [[]]}')
        assert invoke(capsys, *argv, "--instance", str(path)) == \
            (2, "", "error: instance field T[0]: expected a list of length "
                    "r=100000000000000000000\n")


class TestNoFormLevelFactor:
    # tensor instances go to the Gram blocks from T: no op of these two
    # commands builds A ^ conj(A^t)
    @pytest.mark.parametrize("command", [["schur", "verify"], ["bounds", "chain"]])
    def test_factor_product_is_never_built(self, capsys, monkeypatch, command):
        def refuse(tensor):
            raise AssertionError("bott_chern_curvature was called")

        # the CLI binds the name on import, so refuse it there as well
        for module in (curvature, cli):
            monkeypatch.setattr(module, "bott_chern_curvature", refuse)
        for n, r in ((4, 5), (5, 3), (2, 2)):
            code, out, err = invoke(capsys, *command, "--random", "--n", str(n),
                                    "--r", str(r), "--seed", "1", "--trials", "5")
            assert code == 0 and err == ""


class TestBooleanIntegers:
    # JSON true is a Python int; integer fields must still refuse it
    @pytest.mark.parametrize("field", ["n", "r", "m"])
    def test_instance_field(self, capsys, tmp_path, field):
        obj = {"n": 1, "r": 1, "m": 1, "T": [[[{"re": 1.0}]]]}
        obj[field] = True
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, "schur", "verify", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: instance field '{field}': expected a positive integer\n"

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_form_literal_n(self, capsys, tmp_path, mode):
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps(
            {"n": True, "terms": [{"dz": [True], "dzbar": [1], "re": 2}]}))
        vec_path = tmp_path / "vectors.json"
        vec_path.write_text('[[{"re": 1}]]')
        code, out, err = invoke(capsys, "forms", "eval", "--form", str(form_path),
                                "--vectors", str(vec_path), "--mode", mode)
        assert (code, out) == (2, "")
        assert err == "error: form literal field 'n': expected an integer\n"

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("name", ["dz", "dzbar"])
    @pytest.mark.parametrize("command", ["forms eval", "curvature build"])
    def test_index(self, capsys, tmp_path, mode, name, command):
        term = {"dz": [1], "dzbar": [1], "re": 2}
        term[name] = [True]
        literal = {"n": 1, "terms": [term]}
        path = tmp_path / "input.json"
        if command == "forms eval":
            path.write_text(json.dumps(literal))
            vec_path = tmp_path / "vectors.json"
            vec_path.write_text('[[{"re": 1}]]')
            argv = ["forms", "eval", "--form", str(path), "--vectors", str(vec_path)]
        else:
            path.write_text(json.dumps({"omega": [[literal]]}))
            argv = ["curvature", "build", "--instance", str(path)]
        code, out, err = invoke(capsys, *argv, "--mode", mode)
        assert (code, out) == (2, "")
        assert err == f"error: form literal terms[0].{name}: expected integer indices\n"


class TestExactOverflow:
    # exact values whose float view overflows; the report cannot show them
    MESSAGE = "error: an exact value lies beyond the float range of the report\n"

    def test_forms_eval(self, capsys, tmp_path):
        form_path = tmp_path / "form.json"
        form_path.write_text('{"n": 1, "terms": [{"dz": [1], "dzbar": [1], "re": 1e300}]}')
        vec_path = tmp_path / "vectors.json"
        vec_path.write_text('[[{"re": 1e300}]]')
        code, out, err = invoke(capsys, "forms", "eval", "--mode", "exact",
                                "--form", str(form_path), "--vectors", str(vec_path))
        assert (code, out, err) == (2, "", self.MESSAGE)

    def test_curvature_build(self, capsys, tmp_path):
        def entry(i):
            return {"n": 2, "terms": [{"dz": [i], "dzbar": [i], "re": 1e200}]}
        empty = {"n": 2, "terms": []}
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"omega": [[entry(1), empty], [empty, entry(2)]]}))
        code, out, err = invoke(capsys, "curvature", "build", "--mode", "exact",
                                "--instance", str(path))
        assert (code, out, err) == (2, "", self.MESSAGE)


class TestCurvatureBuild:
    def test_tensor_instance(self, capsys, tensor_file):
        path, t = tensor_file
        payload = invoke_json(capsys, "curvature", "build", "--instance", path)
        assert payload["kind"] == "curvature"
        assert payload["witnessed"] is True
        assert payload["n"] == 2 and payload["r"] == 2
        assert len(payload["chern"]) == 3
        assert payload["chern"][0]["residual_prefactor_power"] == 0
        assert {tuple(row["partition"]) for row in payload["top"]} == {(2, 0), (1, 1)}
        assert payload["instance"] == t.to_json()
        # the chain holds on the frozen top coefficients
        tops = {tuple(row["partition"]): row["top"] for row in payload["top"]}
        assert 0 <= tops[(2, 0)] <= tops[(1, 1)] + 1e-12

    def test_explicit_omega_is_unwitnessed(self, capsys, tmp_path):
        omega_entry = Form.monomial(1, [1], [1], -3.0).to_literal()
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"omega": [[omega_entry]]}))
        payload = invoke_json(capsys, "curvature", "build", "--instance", str(path))
        assert payload["witnessed"] is False
        assert "instance" not in payload

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_omega_on_a_point(self, capsys, tmp_path, mode):
        # n = 0: only c_0 = 1, and the empty partition's top value is 1
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"omega": [[{"n": 0, "terms": []}]]}))
        payload = invoke_json(capsys, "curvature", "build", "--mode", mode,
                              "--instance", str(path))
        assert [c["i"] for c in payload["chern"]] == [0]
        assert [(row["partition"], row["top"]) for row in payload["top"]] == [([], 1)]

    def test_exact_mode_rejects_tensor(self, capsys, tensor_file):
        path, _ = tensor_file
        code, _, err = invoke(capsys, "curvature", "build", "--instance", path,
                              "--mode", "exact")
        assert code == 2 and "exact" in err

    def test_non_square_omega(self, capsys, tmp_path):
        entry = Form.monomial(1, [1], [1], 1.0).to_literal()
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"omega": [[entry, entry]]}))
        code, _, err = invoke(capsys, "curvature", "build", "--instance", str(path))
        assert code == 2


class TestSchurCommands:
    def test_table(self, capsys):
        payload = invoke_json(capsys, "schur", "table", "--i", "2", "--r", "2")
        assert payload["entries"] == [
            {"partition": [2, 0], "schur": "c2"},
            {"partition": [1, 1], "schur": "c1^2 - c2"},
        ]

    def test_table_text_output(self, capsys):
        code, out, _ = invoke(capsys, "schur", "table", "--i", "2", "--r", "2",
                              "--output", "text")
        assert code == 0
        assert "S_(1,1) = c1^2 - c2" in out

    def test_verify_random(self, capsys):
        payload = invoke_json(capsys, "schur", "verify", "--random",
                              "--n", "2", "--r", "2", "--m", "2",
                              "--seed", "5", "--trials", "20")
        assert payload["verdict"] == "PASS"
        assert payload["source"]["kind"] == "random"
        assert payload["source"]["distribution"] == "standard-complex-normal"
        assert payload["instance_hash"]

    def test_verify_from_file(self, capsys, tensor_file):
        path, t = tensor_file
        payload = invoke_json(capsys, "schur", "verify", "--instance", path,
                              "--trials", "15")
        assert payload["verdict"] == "PASS"
        assert payload["instance"] == t.to_json()
        assert payload["source"] == {"kind": "file", "path": path}

    def test_byte_determinism(self, capsys):
        args = ("schur", "verify", "--random", "--n", "3", "--r", "2",
                "--seed", "9", "--trials", "25")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_failing_report_exits_one(self, capsys, monkeypatch, tensor_file):
        path, t = tensor_file
        bad = VerdictReport(passed=False, min_value=-1.0, trials=1, seed=0,
                            tol=1e-9, scale=1.0, degree=1, witness=[[{"re": 1.0, "im": 0.0}]],
                            max_imag=0.0)
        failing = SchurReport(
            instance=t.to_json(), instance_hash="0" * 64, seed=0, trials=1,
            tol=1e-9, checks=(SchurCheck(degree=1, partition=(1,), report=bad),),
            passed=False)
        import chernforms.cli as cli_mod

        monkeypatch.setattr(cli_mod, "verify_schur_nonnegativity",
                            lambda *a, **k: failing)
        code, out, _ = invoke(capsys, "schur", "verify", "--instance", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "FAIL"
        # a failing report still carries the witness sample
        assert payload["checks"][0]["report"]["witness"] is not None

    def test_random_needs_dimensions(self, capsys):
        code, _, err = invoke(capsys, "schur", "verify", "--random")
        assert code == 2 and "--n" in err

    def test_no_instance_given(self, capsys):
        code, _, err = invoke(capsys, "schur", "verify")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "schur", "verify", "--instance", "/nope.json")
        assert code == 2 and "cannot read" in err

    def test_undecodable_file(self, capsys, tmp_path):
        # a UTF-16 byte order mark is not UTF-8: malformed input, not a crash
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = invoke(capsys, "curvature", "build", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not UTF-8 text:")

    @pytest.mark.parametrize("command", [["schur", "verify"], ["bounds", "chain"]])
    def test_base_dimension_over_the_cap(self, capsys, tmp_path, command):
        # exit 2 before any Chern block is built, from --random and --instance
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 15, "r": 1, "m": 1,
                                    "T": [[[{"re": 1.0, "im": 0.0}]]] * 15}))
        message = ("error: curvature tensor has n = 15 directions; "
                   "the base dimension is at most 14\n")
        for source in (["--random", "--n", "15", "--r", "2"], ["--instance", str(path)]):
            assert invoke(capsys, *command, *source) == (2, "", message)

    def test_invalid_trials_and_tol(self, capsys, tensor_file):
        path, _ = tensor_file
        code, _, err = invoke(capsys, "schur", "verify", "--instance", path,
                              "--trials", "0")
        assert code == 2 and err == "error: --trials must be >= 1\n"
        code, _, err = invoke(capsys, "schur", "verify", "--instance", path,
                              "--tol=-1e-9")
        assert code == 2 and err == "error: --tol must be positive\n"

    @pytest.mark.parametrize("command", [["schur", "verify"], ["bounds", "chain"]])
    @pytest.mark.parametrize("flag,message", [
        ("--trials=0", "error: --trials must be >= 1\n"),
        ("--tol=-1e-9", "error: --tol must be positive\n"),
        ("--tol=0", "error: --tol must be positive\n"),
    ])
    def test_sampling_flags_are_checked_before_the_instance(self, capsys, command, flag,
                                                            message):
        # no instance is given, and the flag is still the error reported
        code, out, err = invoke(capsys, *command, flag)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("command", [["schur", "verify"], ["bounds", "chain"]])
    @pytest.mark.parametrize("tol,message", [
        ("nan", "error: --tol must be finite\n"),
        ("inf", "error: --tol must be finite\n"),
        ("-inf", "error: --tol must be positive\n"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_tol_is_rejected(self, capsys, command, tol, message):
        # with --tol nan every check would FAIL, with --tol inf every one PASS
        code, out, err = invoke(capsys, *command, "--random", "--n", "2", "--r", "2",
                                "--seed", "1", "--trials", "5", f"--tol={tol}")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("command", [["schur", "verify"], ["bounds", "chain"]])
    @pytest.mark.parametrize("tol", ["0", "-0.0"])
    def test_zero_tol_is_rejected(self, capsys, command, tol):
        # with tol 0, roundoff in the imaginary part of a real form was
        # reported as "form is not real", and margin min_value / (tol * scale)
        # has no value
        code, out, err = invoke(capsys, *command, "--random", "--n", "2", "--r", "2",
                                "--seed", "1", "--trials", "5", f"--tol={tol}")
        assert (code, out, err) == (2, "", "error: --tol must be positive\n")


class TestBoundsChain:
    def test_random_instance(self, capsys):
        payload = invoke_json(capsys, "bounds", "chain", "--random",
                              "--n", "2", "--r", "2", "--seed", "3", "--trials", "15")
        assert payload["kind"] == "bounds-chains"
        assert payload["verdict"] == "PASS"
        assert payload["degree"] == 2
        partitions_seen = [tuple(c["partition"]) for c in payload["chains"]]
        assert partitions_seen == [(2, 0), (1, 1)]
        for chain in payload["chains"]:
            assert chain["top"] is not None

    def test_chain_seeds_do_not_overlap_across_run_seeds(self, capsys):
        # each chain's stream is derived from (seed, chain index), so the
        # chains of neighbouring run seeds never share a stream
        seeds = []
        for seed in ("3", "4"):
            payload = invoke_json(capsys, "bounds", "chain", "--random", "--n", "2",
                                  "--r", "2", "--seed", seed, "--trials", "2")
            seeds.append([c["seed"] for c in payload["chains"]])
        assert len(seeds[0]) == len(seeds[1]) == 2
        assert len(set(seeds[0]) | set(seeds[1])) == 4

    def test_explicit_degree_below_top(self, capsys, tensor_file):
        path, _ = tensor_file
        payload = invoke_json(capsys, "bounds", "chain", "--instance", path,
                              "--degree", "1", "--trials", "10")
        assert payload["degree"] == 1
        assert payload["chains"][0]["top"] is None

    def test_degree_out_of_range(self, capsys, tensor_file):
        path, _ = tensor_file
        code, _, err = invoke(capsys, "bounds", "chain", "--instance", path,
                              "--degree", "9")
        assert code == 2 and "--degree" in err

    def test_degree_is_checked_before_building(self, capsys, monkeypatch):
        def no_build(*_):
            raise AssertionError("Chern forms built before the --degree check")
        monkeypatch.setattr("chernforms.cli.chern_forms", no_build)
        code, out, err = invoke(capsys, "bounds", "chain", "--random", "--n", "5",
                                "--r", "5", "--seed", "0", "--degree", "9")
        assert (code, out, err) == (2, "", "error: --degree must lie in 1..n=5\n")


class TestModelCommands:
    def test_chern_numbers_cp3(self, capsys):
        payload = invoke_json(capsys, "model", "chern-numbers", "--model", "CP3")
        values = {tuple(e["partition"]): e["value"] for e in payload["numbers"]}
        assert values == {(3, 0, 0): 4, (2, 1, 0): 24, (1, 1, 1): 64}
        assert payload["globally_generated_tangent"] is True
        assert payload["globally_generated_cotangent"] is False

    def test_bounds_pass_and_all_zero(self, capsys):
        payload = invoke_json(capsys, "model", "bounds", "--model", "T1xCP1")
        assert payload["verdict"] == "PASS"
        assert payload["all_zero"] is True

    def test_signed_bounds_need_torus(self, capsys):
        code, _, err = invoke(capsys, "model", "bounds", "--model", "CP2", "--signed")
        assert code == 2 and "cotangent" in err
        payload = invoke_json(capsys, "model", "bounds", "--model", "T2", "--signed")
        assert payload["verdict"] == "PASS" and payload["signed"] is True

    def test_rr_frozen_case(self, capsys):
        payload = invoke_json(capsys, "model", "rr", "--model", "CP1",
                              "--line", "K", "--m", "3")
        assert payload["chi"] == [{"m": 3, "chi": -5}]
        assert payload["kodaira_leading"] == "-2"
        assert payload["polynomial"] == ["1", "-2"]

    def test_rr_range(self, capsys):
        # a range starting with a minus needs the --m=... spelling
        payload = invoke_json(capsys, "model", "rr", "--model", "CP2",
                              "--line", "O(1)", "--m=-2..2")
        chis = {row["m"]: row["chi"] for row in payload["chi"]}
        assert chis == {-2: 0, -1: 0, 0: 1, 1: 3, 2: 6}

    def test_rr_bad_range(self, capsys):
        code, _, err = invoke(capsys, "model", "rr", "--model", "CP1",
                              "--line", "K", "--m", "5..1")
        assert code == 2
        code, _, err = invoke(capsys, "model", "rr", "--model", "CP1",
                              "--line", "K", "--m", "x..y")
        assert code == 2

    def test_bad_model_and_line(self, capsys):
        code, _, err = invoke(capsys, "model", "chern-numbers", "--model", "Q5")
        assert code == 2
        code, _, err = invoke(capsys, "model", "rr", "--model", "CP1",
                              "--line", "L(1)", "--m", "0")
        assert code == 2

    @pytest.mark.parametrize("line", ["O(1,,2)", "O(-)", "O(1-2)"])
    def test_malformed_line_degrees(self, capsys, line):
        code, out, err = invoke(capsys, "model", "rr", "--model", "CP1xCP1",
                                "--line", line, "--m", "1")
        assert (code, out) == (2, "")
        assert err == f"error: bad line bundle {line!r}: expected K, O, or O(d1,...)\n"

    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "model", "rr", "--model", "CP1",
                              "--line", "K", "--m", "3", "--output", "text")
        assert code == 0
        assert "m=3: chi=-5" in out

    @pytest.mark.parametrize("model", models.CATALOG, ids=lambda m: m.label)
    def test_rr_table_matches_euler_characteristic(self, capsys, model):
        ones = "O(" + ",".join("1" for _ in model.proj_dims) + ")"
        for line in ("K", ones):
            payload = invoke_json(capsys, "model", "rr", "--model", model.label,
                                  "--line", line, "--m=-5..5")
            ell = models.line_class(model, line)
            assert payload["chi"] == [
                {"m": m, "chi": models.euler_characteristic(model, ell, m)}
                for m in range(-5, 6)], (model.label, line)

    def test_rr_builds_one_polynomial_per_op(self, capsys, monkeypatch):
        # wrap every name the handler and the models layer look up
        calls = {"rr_polynomial": 0, "todd_class": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        rr = counted("rr_polynomial", models.rr_polynomial)
        monkeypatch.setattr(cli, "rr_polynomial", rr)
        monkeypatch.setattr(models, "rr_polynomial", rr)
        monkeypatch.setattr(models, "todd_class", counted("todd_class", models.todd_class))
        payload = invoke_json(capsys, "model", "rr", "--model", "CP1xCP1xCP1",
                              "--line", "K", "--m=-5..5")
        assert len(payload["chi"]) == 11
        assert calls == {"rr_polynomial": 1, "todd_class": 1}


class TestFlagTable:
    """Each subcommand defines only the flags its handler reads; any other
    flag is malformed input."""

    RANDOM = ("--random", "--n", "2", "--r", "2")

    @pytest.mark.parametrize("argv", [
        ("schur", "verify") + RANDOM + ("--mode", "exact"),
        ("bounds", "chain") + RANDOM + ("--mode", "exact"),
        ("curvature", "build", "--instance", "x.json", "--seed", "1"),
        ("forms", "eval", "--form", "f.json", "--vectors", "v.json", "--seed", "1"),
        ("schur", "table", "--i", "2", "--r", "2", "--seed", "1"),
        ("schur", "table", "--i", "2", "--r", "2", "--mode", "float"),
        ("model", "chern-numbers", "--model", "CP3", "--seed", "1"),
        # --mode is a prefix of --model; abbreviations are off
        ("model", "chern-numbers", "--mode", "float", "--model", "CP3"),
        ("model", "bounds", "--model", "CP3", "--mode", "float"),
        ("model", "rr", "--model", "CP1", "--line", "K", "--m", "1", "--mode", "float"),
    ])
    def test_unread_flag_exits_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ("model", "rr", "--model", "CP1xCP2", "--line", "K", "--m=-2..2"),
        ("model", "bounds", "--model", "CP1xCP2"),
    ])
    def test_model_seed_is_accepted_and_ignored(self, capsys, argv):
        assert invoke(capsys, *argv, "--seed", "5") == invoke(capsys, *argv)


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "nonsense")[0] == 2

    def test_console_main_raises_systemexit(self, capsys):
        from chernforms.cli import console_main
        import sys

        old = sys.argv
        sys.argv = ["chernforms", "schur", "table", "--i", "1", "--r", "1"]
        try:
            with pytest.raises(SystemExit) as exc:
                console_main()
            assert exc.value.code == 0
        finally:
            sys.argv = old

    def test_parser_is_reused_across_invocations(self, capsys):
        # one process runs a bad flag, a valid command and another
        # subcommand on the one cached parser; each must print what a fresh
        # interpreter prints
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        runs = [
            (("schur", "table", "--i", "2", "--r", "2", "--bogus"), 2),
            (("schur", "table", "--i", "3", "--r", "2", "--output", "text"), 0),
            (("model", "rr", "--model", "CP1", "--line", "K", "--m=-1..1"), 0),
        ]
        assert build_parser() is build_parser()
        for argv, code in runs:
            got = invoke(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "chernforms.cli", *argv],
                                   cwd=root, env=env, capture_output=True, text=True,
                                   timeout=60)
            assert got == (code, fresh.stdout, fresh.stderr) and fresh.returncode == code, argv

    def test_json_is_sorted_and_indented(self, capsys):
        _, out, _ = invoke(capsys, "schur", "table", "--i", "1", "--r", "1")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
