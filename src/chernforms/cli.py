"""Command line interface.

Subcommands (grouped):

    forms eval          evaluate a Form literal on tangent vectors
    curvature build     curvature + Chern forms of an instance (tensor or
                        explicit Form-literal matrix)
    schur table         Gamma(i, r) and the expanded Schur polynomials
    schur verify        sampled S_lambda nonnegativity sweep on an instance
    bounds chain        sampled inequality chain 0 <= c_i <= c_lambda <= c_1^i
    model chern-numbers exact Chern numbers of a closed-form model
    model bounds        exact integer bound chain on a model (--signed for
                        the cotangent version)
    model rr            chi(M, L^m) by Riemann-Roch over a range of m

Exit codes: 0 = success / all checks passed; 1 = a mathematical check FAILED
(the report carries the witness); 2 = malformed input (bad flags, schema
violations, missing files).

Reports are emitted as JSON with sorted keys, so identical configuration and
inputs produce byte-identical output.  ``--output text`` prints a short
human-readable summary instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional, Sequence

from .chern import chern_forms, chern_product, top_coefficient
from .curvature import CurvatureMatrix, CurvatureTensor, bott_chern_curvature, \
    factor_from_tensor, random_tensor
from .errors import ConsistencyError, InputError
from .forms import DEFAULT_TOL, Form, evaluate
from .models import chern_number, euler_characteristic, kodaira_leading, \
    line_class, parse_model, rr_polynomial, verify_number_bounds
from .rng import derive_seed
from .scalars import EXACT, FLOAT, GaussianRational, parse_scalar, scalar_json
from .schur import Partition, bounds_chain_check, instance_digest, partitions, \
    schur_polynomial, verify_schur_nonnegativity


# ----------------------------------------------------------------------
# small input helpers


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse_vector(obj, n: int, mode: str, where: str):
    if not isinstance(obj, list) or len(obj) != n:
        raise InputError(f"{where}: expected a list of {n} components")
    return [parse_scalar(cell, mode, f"{where}[{pos}]") for pos, cell in enumerate(obj)]


def _parse_m_range(text: str) -> list[int]:
    """Either a single integer or an inclusive range "a..b"."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise InputError(f"bad m range {text!r}: expected integers around '..'") from exc
        if lo > hi:
            raise InputError(f"bad m range {text!r}: lower bound above upper bound")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise InputError(f"bad m value {text!r}: expected an integer or a..b") from exc


def _instance_from_args(args) -> tuple[CurvatureTensor, dict]:
    if args.instance:
        tensor = CurvatureTensor.from_json(_load_json(args.instance))
        return tensor, {"kind": "file", "path": args.instance}
    if args.random:
        if args.n is None or args.r is None:
            raise InputError("--random needs --n and --r (and optionally --m)")
        tensor = random_tensor(args.n, args.r, args.m, args.seed)
        return tensor, {
            "kind": "random",
            "n": tensor.n, "r": tensor.r, "m": tensor.m,
            "seed": args.seed,
            "distribution": "standard-complex-normal",
            "generator": "philox",
        }
    raise InputError("provide an instance: --instance FILE or --random --n N --r R")


def _scalar_payload(value) -> dict:
    out = scalar_json(value)
    if isinstance(value, GaussianRational):
        out["re_exact"] = str(value.re)
        out["im_exact"] = str(value.im)
    return out


# ----------------------------------------------------------------------
# handlers: each returns (exit_code, payload, text_lines)


def _handle_forms_eval(args):
    form = Form.from_literal(_load_json(args.form), args.mode)
    raw_vectors = _load_json(args.vectors)
    if not isinstance(raw_vectors, list):
        raise InputError("vectors file must hold a list of vectors")
    vectors = [_parse_vector(v, form.n, args.mode, f"vectors[{i}]")
               for i, v in enumerate(raw_vectors)]
    value = evaluate(form, vectors)
    payload = {
        "schema": 1,
        "kind": "forms-eval",
        "n": form.n,
        "mode": args.mode,
        "value": _scalar_payload(value),
    }
    z = payload["value"]
    return 0, payload, [f"value = {z['re']:.12g} + {z['im']:.12g}i"]


def _curvature_from_input(obj, mode: str) -> tuple[CurvatureMatrix, Optional[CurvatureTensor]]:
    if isinstance(obj, dict) and "T" in obj:
        if mode == EXACT:
            raise InputError(
                "tensor instances are float-mode; exact curvatures take the "
                "explicit 'omega' Form-literal shape")
        tensor = CurvatureTensor.from_json(obj)
        return bott_chern_curvature(factor_from_tensor(tensor)), tensor
    if isinstance(obj, dict) and "omega" in obj:
        entries = obj["omega"]
        if not isinstance(entries, list) or not entries:
            raise InputError("field 'omega': expected a nonempty matrix of form literals")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list):
                raise InputError(f"field omega[{i}]: expected a list of form literals")
            rows.append(tuple(Form.from_literal(cell, mode) for cell in row))
        return CurvatureMatrix(tuple(rows)), None
    raise InputError("instance must carry either a tensor field 'T' or a matrix field 'omega'")


def _handle_curvature_build(args):
    obj = _load_json(args.instance)
    omega, tensor = _curvature_from_input(obj, args.mode)
    cs = chern_forms(omega)
    payload = {
        "schema": 1,
        "kind": "curvature",
        "n": omega.n,
        "r": omega.r,
        "mode": args.mode,
        "witnessed": omega.witnessed,
        "omega": [[f.to_literal() for f in row] for row in omega.entries],
        "chern": [
            {"i": i, "form": cs.form(i).to_literal(),
             "residual_prefactor_power": cs.residual_prefactor_power(i)}
            for i in range(cs.top_degree + 1)
        ],
    }
    if tensor is not None:
        inst = payload["instance"] = tensor.to_json()
        payload["instance_hash"] = instance_digest(inst)
    n = omega.n
    num = cs.to_numeric()
    top_table = []
    for lam in partitions(n, min(omega.r, n)):
        value = top_coefficient(chern_product(num, lam))
        top_table.append({"partition": list(lam.parts), "top": value})
    payload["top"] = top_table
    lines = [f"curvature {omega.r}x{omega.r} on n={omega.n}, witnessed={omega.witnessed}"]
    lines += [f"  top(c_{t['partition']}) = {t['top']:.6g}" for t in top_table]
    return 0, payload, lines


def _handle_schur_table(args):
    if args.i < 0 or args.r < 0:
        raise InputError("--i and --r must be nonnegative")
    rows = []
    lines = [f"Gamma({args.i},{args.r}):"]
    for lam in partitions(args.i, args.r):
        poly = schur_polynomial(lam, args.r)
        rows.append({"partition": list(lam.parts), "schur": str(poly)})
        lines.append(f"  S_{lam} = {poly}")
    payload = {"schema": 1, "kind": "schur-table", "i": args.i, "r": args.r,
               "entries": rows}
    return 0, payload, lines


def _check_sampling_flags(args):
    """The checks on the two sampling flags, before any input is read."""
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    if args.tol < 0:
        raise InputError("--tol must be nonnegative")
    if not math.isfinite(args.tol):
        raise InputError("--tol must be finite")


def _handle_schur_verify(args):
    _check_sampling_flags(args)
    tensor, source = _instance_from_args(args)
    report = verify_schur_nonnegativity(tensor, degrees=None, trials=args.trials,
                                        seed=args.seed, tol=args.tol)
    payload = report.to_dict()
    payload["source"] = source
    lines = []
    for chk in report.checks:
        rep = chk.report
        lines.append(f"S_{Partition(chk.partition)} deg {chk.degree}: "
                     f"min={rep.min_value:.3e} {'PASS' if rep.passed else 'FAIL'}")
    lines.append(f"VERDICT: {'PASS' if report.passed else 'FAIL'}")
    return (0 if report.passed else 1), payload, lines


def _handle_bounds_chain(args):
    _check_sampling_flags(args)
    tensor, source = _instance_from_args(args)
    degree = args.degree if args.degree is not None else tensor.n
    if degree < 1 or degree > tensor.n:
        raise InputError(f"--degree must lie in 1..n={tensor.n}")
    cs = chern_forms(tensor)
    reports = []
    all_pass = True
    for idx, lam in enumerate(partitions(degree, tensor.r)):
        rep = bounds_chain_check(cs, lam, trials=args.trials,
                                 seed=derive_seed(args.seed, 13, idx), tol=args.tol,
                                 m=tensor.m)
        reports.append(rep)
        all_pass = all_pass and rep.passed
    inst = tensor.to_json()
    payload = {
        "schema": 1,
        "kind": "bounds-chains",
        "instance": inst,
        "instance_hash": instance_digest(inst),
        "source": source,
        "degree": degree,
        "seed": args.seed,
        "trials": args.trials,
        "tol": args.tol,
        "chains": [r.to_dict() for r in reports],
        "verdict": "PASS" if all_pass else "FAIL",
    }
    lines = []
    for rep in reports:
        worst = min((s.report.min_value for s in rep.steps), default=0.0)
        lines.append(f"chain {Partition(rep.partition)}: {len(rep.steps)} steps, "
                     f"worst min={worst:.3e} {'PASS' if rep.passed else 'FAIL'}")
    lines.append(f"VERDICT: {'PASS' if all_pass else 'FAIL'}")
    return (0 if all_pass else 1), payload, lines


def _handle_model_numbers(args):
    model = parse_model(args.model)
    n = model.dim
    numbers = []
    lines = [f"{model.label}: dim {n}"]
    for lam in partitions(n, n):
        value = chern_number(model, lam)
        numbers.append({"partition": list(lam.parts), "value": value})
        lines.append(f"  c_{lam}[{model.label}] = {value}")
    payload = {
        "schema": 1,
        "kind": "model-chern-numbers",
        "model": model.label,
        "dim": n,
        "globally_generated_tangent": model.globally_generated_tangent,
        "globally_generated_cotangent": model.globally_generated_cotangent,
        "numbers": numbers,
    }
    return 0, payload, lines


def _handle_model_bounds(args):
    model = parse_model(args.model)
    report = verify_number_bounds(model, signed=args.signed)
    payload = report.to_dict()
    lines = [f"{model.label} ({'signed' if args.signed else 'unsigned'}): "
             f"{'all zero, ' if report.all_zero else ''}"
             f"{'PASS' if report.passed else 'FAIL'}"]
    for entry in payload["numbers"]:
        lines.append(f"  {Partition(tuple(entry['partition']))}: {entry['value']}")
    return (0 if report.passed else 1), payload, lines


def _handle_model_rr(args):
    model = parse_model(args.model)
    ell = line_class(model, args.line)
    coeffs = rr_polynomial(model, ell)
    table = []
    lines = [f"chi({model.label}, ({args.line})^m)"]
    for m in _parse_m_range(args.m):
        chi = euler_characteristic(model, ell, m)
        table.append({"m": m, "chi": chi})
        lines.append(f"  m={m}: chi={chi}")
    payload = {
        "schema": 1,
        "kind": "model-rr",
        "model": model.label,
        "line": args.line,
        "polynomial": [str(a) for a in coeffs],
        "kodaira_leading": str(kodaira_leading(model)),
        "chi": table,
    }
    return 0, payload, lines


# ----------------------------------------------------------------------
# parser


def _command(sub, name: str, help: str, handler) -> argparse.ArgumentParser:
    """A subcommand parser with the one flag every subcommand reads,
    ``--output``.  Abbreviations are off, so a flag the subcommand does not
    define exits 2 even where it prefixes one it does (``--mode`` of
    ``--model``)."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--output", choices=["json", "text"], default="json",
                   help="report format (default json)")
    p.set_defaults(handler=handler)
    return p


def _add_mode(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", choices=[EXACT, FLOAT], default=FLOAT,
                        help="scalar mode for parsed forms (default float)")


def _add_seed(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="random stream seed")


def _add_sampled_instance_args(parser: argparse.ArgumentParser):
    parser.add_argument("--instance", help="instance JSON file")
    parser.add_argument("--random", action="store_true",
                        help="draw a random instance instead of reading a file")
    parser.add_argument("--n", type=int, help="base dimension for --random")
    parser.add_argument("--r", type=int, help="rank for --random")
    parser.add_argument("--m", type=int, help="factor columns for --random (default: drawn)")
    _add_seed(parser)
    parser.add_argument("--trials", type=int, default=50,
                        help="sample tuples per check (default 50)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help=f"relative tolerance (default {DEFAULT_TOL:g})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and building it costs about twenty parses."""
    parser = argparse.ArgumentParser(
        prog="chernforms",
        description="Chern forms, Schur-form nonnegativity, Chern-number bounds "
                    "and Riemann-Roch from explicit curvature data.")
    groups = parser.add_subparsers(dest="group", required=True)

    forms_group = groups.add_parser("forms", help="pointwise form operations")
    forms_sub = forms_group.add_subparsers(dest="command", required=True)
    p = _command(forms_sub, "eval", "evaluate a Form literal on tangent vectors",
                 _handle_forms_eval)
    p.add_argument("--form", required=True, help="Form literal JSON file")
    p.add_argument("--vectors", required=True, help="JSON file with a list of vectors")
    _add_mode(p)

    curv_group = groups.add_parser("curvature", help="curvature matrices")
    curv_sub = curv_group.add_subparsers(dest="command", required=True)
    p = _command(curv_sub, "build", "curvature and Chern forms of an instance",
                 _handle_curvature_build)
    p.add_argument("--instance", required=True,
                   help="instance JSON: tensor field 'T' or explicit matrix field 'omega'")
    _add_mode(p)

    schur_group = groups.add_parser("schur", help="Schur polynomials and nonnegativity")
    schur_sub = schur_group.add_subparsers(dest="command", required=True)
    p = _command(schur_sub, "table", "Gamma(i, r) with expanded Schur polynomials",
                 _handle_schur_table)
    p.add_argument("--i", type=int, required=True, help="weight")
    p.add_argument("--r", type=int, required=True, help="rank bound")
    p = _command(schur_sub, "verify", "sampled Schur-form nonnegativity sweep",
                 _handle_schur_verify)
    _add_sampled_instance_args(p)

    bounds_group = groups.add_parser("bounds", help="inequality chains")
    bounds_sub = bounds_group.add_subparsers(dest="command", required=True)
    p = _command(bounds_sub, "chain", "sampled chain 0 <= c_i <= c_lambda <= c_1^i",
                 _handle_bounds_chain)
    _add_sampled_instance_args(p)
    p.add_argument("--degree", type=int, help="chain weight (default n)")

    model_group = groups.add_parser("model", help="closed-form cohomology models")
    model_sub = model_group.add_subparsers(dest="command", required=True)
    p = _command(model_sub, "chern-numbers", "exact Chern numbers of a model",
                 _handle_model_numbers)
    p.add_argument("--model", required=True, help="model expression, e.g. CP3 or CP1xCP2")
    p = _command(model_sub, "bounds", "exact integer Chern-number chain",
                 _handle_model_bounds)
    p.add_argument("--model", required=True)
    p.add_argument("--signed", action="store_true",
                   help="use the cotangent classes (torus-type models)")
    # Models are exact and draw nothing, so --seed is accepted and ignored
    # here and in ``model rr``: the benchmark's model-rr pool
    # (bench/workloads.py::model_rr) passes it.
    _add_seed(p)
    p = _command(model_sub, "rr", "chi(M, L^m) by Riemann-Roch", _handle_model_rr)
    p.add_argument("--model", required=True)
    p.add_argument("--line", required=True, help="line bundle: K, O, or O(d1,...)")
    p.add_argument("--m", required=True, help="power or inclusive range a..b")
    _add_seed(p)

    return parser


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, CPython's ``json`` runs its generator-based Python
    encoder; this writer appends the same pieces to one list instead.
    Scalars are spelled as ``json`` spells them: ASCII-escaped strings,
    ``int.__repr__`` and ``float.__repr__`` (so subclasses print as their
    base), and NaN, Infinity and -Infinity.  Any other value raises the same
    ``TypeError``.  Two departures no report meets: a key that is not a str
    raises ``TypeError`` (``json`` converts int, float, bool and None keys),
    and a container that holds itself recurses until ``RecursionError``
    (``json`` raises ``ValueError``).
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write_json(obj, out: list, newline: str) -> None:
    """Append the encoding of ``obj`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(report_json(payload))
    else:
        for line in lines:
            print(line)
    return code


def console_main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    console_main()
