"""Command line interface.

Subcommands (grouped):

    forms eval          evaluate a Form literal on tangent vectors
    curvature build     curvature + Chern forms of an instance (tensor or
                        explicit Form-literal matrix)
    schur table         Gamma(i, r) and the expanded Schur polynomials
    schur verify        S_lambda nonnegativity sweep on an instance
    bounds chain        pointwise inequality chain 0 <= c_i <= c_lambda <= c_1^i
    model chern-numbers exact Chern numbers of a closed-form model
    model bounds        exact integer bound chain on a model (--signed for
                        the cotangent version)
    model rr            chi(M, L^m) by Riemann-Roch over a range of m

Exit codes: 0 = success / all checks passed; 1 = a mathematical check FAILED
(the report carries the witness); 2 = malformed input (bad flags, schema
violations, missing files) or an infeasible request (one that needs more
memory than the process can allocate, such as a huge ``--trials``); 141 =
the reader closed stdout before the report was written (128 + SIGPIPE, as a
shell shows a writer the pipe killed).

Reports are emitted as JSON with sorted keys, so identical configuration and
inputs produce byte-identical output.  ``--output text`` prints a short
human-readable summary instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional, Sequence

from .chern import chern_forms, chern_product, top_coefficient
from .curvature import CurvatureMatrix, CurvatureTensor, InstanceText, bott_chern_curvature, \
    random_tensor
from .errors import ConsistencyError, InputError
from .forms import DEFAULT_TOL, Form, PPForm, evaluate, read_literal
from .models import chern_number, evaluate_rr_polynomial, kodaira_leading, \
    line_class, parse_model, rr_polynomial, verify_number_bounds
from .rng import derive_seed
from .scalars import EXACT, FLOAT, GaussianRational, parse_scalar, scalar_json
from .schur import Partition, bounds_chain_check, partitions, schur_polynomial, \
    verify_schur_nonnegativity


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
        # the file fixes the tensor, so a flag that draws one conflicts
        given = {"--random": args.random, "--n": args.n is not None,
                 "--r": args.r is not None, "--m": args.m is not None}
        drawn = [flag for flag, on in given.items() if on]
        if drawn:
            raise InputError(f"--instance conflicts with {', '.join(drawn)}: "
                             "the instance file fixes the tensor")
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
# handlers: each returns (exit_code, payload, text), where ``text()``
# builds the lines of ``--output text``; JSON runs never call it


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
    return 0, payload, lambda: [f"value = {z['re']:.12g} + {z['im']:.12g}i"]


def _curvature_from_input(obj, mode: str) -> tuple[CurvatureMatrix, Optional[CurvatureTensor]]:
    if isinstance(obj, dict) and "T" in obj:
        if mode == EXACT:
            raise InputError(
                "tensor instances are float-mode; exact curvatures take the "
                "explicit 'omega' Form-literal shape")
        tensor = CurvatureTensor.from_json(obj)
        return bott_chern_curvature(tensor), tensor
    if isinstance(obj, dict) and "omega" in obj:
        entries = obj["omega"]
        if not isinstance(entries, list) or not entries:
            raise InputError("field 'omega': expected a nonempty matrix of form literals")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list):
                raise InputError(f"field omega[{i}]: expected a list of form literals")
            # every cell is read, straight into its block, before the matrix is checked
            rows.append([read_literal(cell, mode, 1) for cell in row])
        return CurvatureMatrix(rows), None
    raise InputError("instance must carry either a tensor field 'T' or a matrix field 'omega'")


def _handle_curvature_build(args):
    obj = _load_json(args.instance)
    omega, tensor = _curvature_from_input(obj, args.mode)
    cs = chern_forms(omega if tensor is None else tensor)
    payload = {
        "schema": 1,
        "kind": "curvature",
        "n": omega.n,
        "r": omega.r,
        "mode": args.mode,
        "witnessed": tensor is not None,
        "omega": [[BlockLiteral(b) for b in row] for row in omega.blocks],
        "chern": [
            {"i": i, "form": BlockLiteral(cs.form(i)),
             "residual_prefactor_power": cs.residual_prefactor_power(i)}
            for i in range(cs.top_degree + 1)
        ],
    }
    if tensor is not None:
        inst = payload["instance"] = InstanceText(tensor)
        payload["instance_hash"] = inst.sha256
    n = omega.n
    num = cs.to_numeric()
    top_table = []
    for lam in partitions(n, min(omega.r, n)):
        value = top_coefficient(chern_product(num, lam))
        top_table.append({"partition": list(lam.parts), "top": value})
    payload["top"] = top_table

    def text():
        return [f"curvature {omega.r}x{omega.r} on n={omega.n}, witnessed={tensor is not None}",
                *(f"  top(c_{t['partition']}) = {t['top']:.6g}" for t in top_table)]
    return 0, payload, text


def _handle_schur_table(args):
    if args.i < 0 or args.r < 0:
        raise InputError("--i and --r must be nonnegative")
    lams = partitions(args.i, args.r)
    rows = [{"partition": list(lam.parts), "schur": str(schur_polynomial(lam, args.r))}
            for lam in lams]
    payload = {"schema": 1, "kind": "schur-table", "i": args.i, "r": args.r,
               "entries": rows}

    def text():
        return [f"Gamma({args.i},{args.r}):",
                *(f"  S_{lam} = {row['schur']}" for lam, row in zip(lams, rows))]
    return 0, payload, text


def _check_sampling_flags(args):
    """The checks on the two sampling flags, before any input is read."""
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    if args.tol <= 0:
        raise InputError("--tol must be positive")
    if not math.isfinite(args.tol):
        raise InputError("--tol must be finite")


def _handle_schur_verify(args):
    _check_sampling_flags(args)
    tensor, source = _instance_from_args(args)
    report = verify_schur_nonnegativity(tensor, degrees=None, trials=args.trials,
                                        seed=args.seed, tol=args.tol)
    payload = report.payload()
    payload["source"] = source

    def text():
        lines = []
        for chk in report.checks:
            rep = chk.report
            lines.append(f"S_{Partition(chk.partition)} deg {chk.degree}: {rep.method} "
                         f"margin={rep.margin:.3e} {'PASS' if rep.passed else 'FAIL'}")
        lines.append(f"VERDICT: {'PASS' if report.passed else 'FAIL'}")
        return lines
    return (0 if report.passed else 1), payload, text


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
                                 seed=derive_seed(args.seed, 13, idx), tol=args.tol)
        reports.append(rep)
        all_pass = all_pass and rep.passed
    inst = InstanceText(tensor)
    payload = {
        "schema": 2,
        "kind": "bounds-chains",
        "instance": inst,
        "instance_hash": inst.sha256,
        "source": source,
        "degree": degree,
        "seed": args.seed,
        "trials": args.trials,
        "tol": args.tol,
        "chains": [r.to_dict() for r in reports],
        "verdict": "PASS" if all_pass else "FAIL",
    }

    def text():
        lines = []
        for rep in reports:
            # an exact-zero step decides nothing, and its margin 0 would
            # hide the least margin of the others
            decided = [s.report.margin for s in rep.steps if s.report.method != "exact-zero"]
            worst = f"{min(decided):.3e}" if decided else "n/a"
            lines.append(f"chain {Partition(rep.partition)}: {len(rep.steps)} steps, "
                         f"worst margin={worst} {'PASS' if rep.passed else 'FAIL'}")
        lines.append(f"VERDICT: {'PASS' if all_pass else 'FAIL'}")
        return lines
    return (0 if all_pass else 1), payload, text


def _handle_model_numbers(args):
    model = parse_model(args.model)
    n = model.dim
    lams = partitions(n, n)
    numbers = [{"partition": list(lam.parts), "value": chern_number(model, lam)}
               for lam in lams]
    payload = {
        "schema": 1,
        "kind": "model-chern-numbers",
        "model": model.label,
        "dim": n,
        "globally_generated_tangent": model.globally_generated_tangent,
        "globally_generated_cotangent": model.globally_generated_cotangent,
        "numbers": numbers,
    }

    def text():
        return [f"{model.label}: dim {n}",
                *(f"  c_{lam}[{model.label}] = {row['value']}" for lam, row in zip(lams, numbers))]
    return 0, payload, text


def _handle_model_bounds(args):
    model = parse_model(args.model)
    report = verify_number_bounds(model, signed=args.signed)
    payload = report.to_dict()

    def text():
        lines = [f"{model.label} ({'signed' if args.signed else 'unsigned'}): "
                 f"{'all zero, ' if report.all_zero else ''}"
                 f"{'PASS' if report.passed else 'FAIL'}"]
        for entry in payload["numbers"]:
            lines.append(f"  {Partition(tuple(entry['partition']))}: {entry['value']}")
        return lines
    return (0 if report.passed else 1), payload, text


def _handle_model_rr(args):
    model = parse_model(args.model)
    ell = line_class(model, args.line)
    coeffs = rr_polynomial(model, ell)
    table = [{"m": m, "chi": evaluate_rr_polynomial(model, coeffs, m)}
             for m in _parse_m_range(args.m)]
    payload = {
        "schema": 1,
        "kind": "model-rr",
        "model": model.label,
        "line": args.line,
        "polynomial": [str(a) for a in coeffs],
        "kodaira_leading": str(kodaira_leading(model)),
        "chi": table,
    }

    def text():
        return [f"chi({model.label}, ({args.line})^m)",
                *(f"  m={row['m']}: chi={row['chi']}" for row in table)]
    return 0, payload, text


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
                        help="sample tuples per sampled check, degrees 2..n-2 "
                             "(default 50)")
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
    p = _command(schur_sub, "verify", "Schur-form nonnegativity sweep",
                 _handle_schur_verify)
    _add_sampled_instance_args(p)

    bounds_group = groups.add_parser("bounds", help="inequality chains")
    bounds_sub = bounds_group.add_subparsers(dest="command", required=True)
    p = _command(bounds_sub, "chain", "pointwise chain 0 <= c_i <= c_lambda <= c_1^i",
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


class BlockLiteral:
    """The form literal of a coefficient block, for a report: the terms of
    ``PPForm.literal_terms``, read when the view is made, so that an exact
    value beyond the float range raises its ``InputError`` there.
    ``report_json`` writes ``text``, which spells ``form.to_literal()``."""

    __slots__ = ("form", "labels", "terms")

    def __init__(self, form: PPForm):
        self.form = form
        self.labels, self.terms = form.literal_terms()

    def text(self, newline: str) -> str:
        """``json.dumps(self.form.to_literal(), sort_keys=True, indent=2)`` for a
        literal whose ``{`` stands on a line indented as ``newline``.  Each
        index tuple is joined once; each term is one concatenation of its
        row's head, its column's tail and its two parts."""
        field = newline + "  "
        head = f'{{{field}"n": {self.form.n},{field}"terms": '
        if not self.terms:
            return f"{head}[]{newline}}}"
        term = field + "  "
        key = term + "  "
        item = key + "  "
        comma = "," + item
        lists = [f"[{item}{comma.join(map(str, idx))}{key}]" if idx else "[]"
                 for idx in self.labels]
        rows = [f'{{{key}"dz": {text},{key}"dzbar": ' for text in lists]
        cols = [f'{text},{key}"im": ' for text in lists]
        mid, close = f',{key}"re": ', term + "}"
        body = ("," + term).join([f"{rows[b]}{cols[c]}{im!r}{mid}{re!r}{close}"
                                  for b, c, re, im in self.terms])
        if "n" in body:
            # no key, index or finite float repr holds an n: this is an inf
            # or a nan, which json spells Infinity and NaN
            body = body.replace("inf", "Infinity").replace("nan", "NaN")
        return f"{head}[{term}{body}{field}]{newline}}}"


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, CPython's ``json`` runs its generator-based Python
    encoder; this writer appends the same pieces to one list instead, in
    one recursive pass that reads ``type(value)`` once per value.  Exact
    ``int``, finite ``float``, ``list`` and ``dict`` values take direct
    branches; everything else (strings, ``bool``, ``None``, NaN and
    ±Infinity, tuples and subclasses) falls through to ``json``'s
    ``isinstance`` chain, which writes a tuple or a subclass container as
    the plain list or dict of its items.  Each dict is written from a
    layout built once per call for its key tuple and indent: the keys in
    sorted order, each with its ready ``{`` or ``,``, line break, indent
    and ``"key": ``.  Reports repeat a few dict shapes many times, so most
    dicts reuse a layout; none is kept across calls.  A ``BlockLiteral``
    or a ``curvature.InstanceText`` is written as its ``text`` at its
    indent: the bytes of its form's ``to_literal()`` or its tensor's
    ``to_json()``, with no dict built per term or entry, and an instance's
    float parts spelled by the ``repr`` its hash was taken from.

    Scalars are spelled as ``json`` spells them: ASCII-escaped strings,
    ``int.__repr__`` and ``float.__repr__`` (so subclasses print as their
    base), and NaN, Infinity and -Infinity.  Any other value raises the same
    ``TypeError``.  Two departures no report meets: a key that is not a str
    raises ``TypeError`` (``json`` converts int, float, bool and None keys),
    and a container that holds itself recurses until ``RecursionError``
    (``json`` raises ``ValueError``).
    """
    out: list[str] = []
    emit = out.append
    layouts: dict = {}
    inf, int_repr, float_repr = math.inf, int.__repr__, float.__repr__

    def write(value, newline: str) -> None:
        # ``newline`` is a line break plus the indent of the line ``value``
        # starts on; the branches run in the order of how often reports
        # meet each type
        t = type(value)
        if t is int:
            emit(int_repr(value))
        elif t is float and -inf < value < inf:
            emit(float_repr(value))
        elif t is list:
            if not value:
                emit("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                emit(sep)
                write(item, inner)
                sep = "," + inner
            emit(newline + "]")
        elif t is dict:
            if not value:
                emit("{}")
                return
            # the keys in insertion order, then the indent
            shape = (*value, newline)
            layout = layouts.get(shape)
            if layout is None:
                layout = layouts[shape] = _dict_layout(shape[:-1], newline)
            heads, inner, close = layout
            for key, head in heads:
                emit(head)
                write(value[key], inner)
            emit(close)
        # the rest, strings first, in the order of ``json``'s ``isinstance``
        # chain
        elif isinstance(value, str):
            emit(_json_str(value))
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif isinstance(value, int):
            emit(int_repr(value))
        elif isinstance(value, float):
            if value != value:
                emit("NaN")
            elif value == inf:
                emit("Infinity")
            elif value == -inf:
                emit("-Infinity")
            else:
                emit(float_repr(value))
        elif isinstance(value, (list, tuple)):
            write(list(value), newline)
        elif isinstance(value, dict):
            write(dict(value.items()), newline)
        elif t is BlockLiteral or t is InstanceText:
            # a dozen per report at most, so they are tested last
            emit(value.text(newline))
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")

    write(obj, "\n")
    # ``write`` refers to itself through its closure; unbinding it frees
    # the pieces now, not at the next garbage collection
    del write
    return "".join(out)


def _dict_layout(keys: tuple, newline: str) -> tuple:
    """(heads, inner, close) of a dict with ``keys`` whose ``{`` stands on
    a line indented as ``newline``: each key in sorted order with the text
    written before its value, the ``newline`` of the values, and the text
    after the last one."""
    inner = newline + "  "
    heads = []
    sep = "{" + inner
    for key in sorted(keys):
        heads.append((key, sep + _json_str(key) + ": "))
        sep = "," + inner
    return heads, inner, newline + "}"


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the request does not fit'}",
              file=sys.stderr)
        return 2
    if args.output == "json":
        print(report_json(payload))
    else:
        for line in text():
            print(line)
    return code


def console_main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as a writer that SIGPIPE killed,
        # with stdout on devnull so that the flush at shutdown does not
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
