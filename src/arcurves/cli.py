"""Command line front end: verification suites, exploration, reports.

Rings come from flat key=value config files, every report embeds the
config hash and the degree windows it used, and identical inputs give
byte-identical JSON.  Exit codes: 0 pass, 1 verification failure,
2 input error, 3 certification failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

# CPython's built-in SHA-256: hashlib would load OpenSSL, about 3 MB of
# each job's peak memory, to fingerprint a config of a few hundred bytes.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .arengine import (double_push_report, e_avg, explore_component,
                       gamma_for, push, verify_main_theorem,
                       verify_syz_gamma)
from .branches import factor_hypersurface, gamma_prime, singular_branch
from .errors import (CertificationError, InputError, NotSquarefreeError,
                     VerificationError)
from .fields import field_from_string
from .homs import drop_hom_graded, hom_graded
from .matfact import mf_from_ideal
from .modmat import decompose, invertible_on_top, stably_zero_bruteforce
from .quiver import to_dot, to_json
from .ring import HypersurfaceRing, poly_from_string
from .traceoracle import (end_generators, is_integral, min_t_valuation,
                          stably_zero_trace, trace_images)

# ----------------------------------------------------------------------
# config parsing


def parse_config(text: str):
    """Flat key=value lines; '#' comments; returns (dict, key->line map)."""
    data: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise InputError("line %d: empty key or value" % lineno)
        if key in data:
            raise InputError("line %d: duplicate key %r" % (lineno, key))
        data[key] = val
        lines[key] = lineno
    return data, lines


def _intval(data, lines, key, optional=False):
    if key not in data:
        if optional:
            return None
        raise InputError("config missing key %r" % key)
    try:
        return int(data[key])
    except ValueError:
        raise InputError("line %d: %s must be an integer"
                         % (lines[key], key)) from None


def ring_from_config(text: str) -> HypersurfaceRing:
    """Build and validate a ring from config text."""
    data, lines = parse_config(text)
    known = {"field", "p", "q", "b", "f", "m", "n"}
    for key in data:
        if key not in known:
            raise InputError("line %d: unknown key %r" % (lines[key], key))
    field_name = data.get("field", "Q")
    try:
        K = field_from_string(field_name)
    except ValueError as e:
        raise InputError("line %d: %s" % (lines["field"], e)) from None
    p = _intval(data, lines, "p")
    q = _intval(data, lines, "q")
    for key in ("b", "f"):
        if key not in data:
            raise InputError("config missing key %r" % key)
    try:
        b = K(data["b"])
    except (TypeError, ValueError) as e:
        raise InputError("line %d: %s" % (lines["b"], e)) from None
    except ZeroDivisionError:
        raise InputError("line %d: b has a zero denominator"
                         % lines["b"]) from None
    f = poly_from_string(K, q, p, data["f"])
    m = _intval(data, lines, "m", optional=True)
    n = _intval(data, lines, "n", optional=True)
    return HypersurfaceRing(K, p=p, q=q, b=b, f=f, m=m, n=n)


def _config_payload(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(
            f"config {path} is not UTF-8 text: {e.reason}") from None
    return text, _sha256(text.encode("utf-8")).hexdigest()


def _ideal_module(ring):
    if ring.m is None or ring.n is None:
        raise InputError("config missing key 'm' or 'n' for the ideal module")
    return mf_from_ideal(ring).cok(label="I")


# ----------------------------------------------------------------------
# commands


def cmd_ring_info(ring, args) -> dict:
    report = {"ring": ring.describe(), "branches": [], "windows": {}}
    if ring.is_reduced:
        branch_list = factor_hypersurface(ring)
    else:
        branch_list = [singular_branch(ring)]
    for b in branch_list:
        entry = b.describe()
        entry["gamma_prime"] = gamma_prime(b).to_string()
        report["branches"].append(entry)
    gd = gamma_for(ring)
    report["gamma_datum"] = gd.describe()
    # a degree bound on z: deg z = deg(g/h) < deg g (gamma_for)
    report["windows"]["z_search"] = (gd.branch.conductor * gd.branch.scale
                                     + ring.deg_g)
    return report


def _require_trace_oracle(ring, suite):
    """The trace oracle reads traces in the total quotient ring Q(R),
    which is a product of fields only when g is squarefree; g is not
    squarefree exactly when b = 0 (HypersurfaceRing)."""
    if not ring.is_reduced:
        raise NotSquarefreeError(
            f"verify {suite} runs the trace oracle, which needs a "
            f"squarefree g: with b = 0, g = y^{ring.q} f is not squarefree")


def cmd_verify_main_theorem(ring, args) -> dict:
    _require_trace_oracle(ring, "main-theorem")
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    rep = verify_main_theorem(I, gd)
    rep["windows"] = {"socle_products": "nonunit End generators"}
    return rep


def cmd_verify_syz_gamma(ring, args) -> dict:
    _require_trace_oracle(ring, "syz-gamma")
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    reports = [verify_syz_gamma(I, gd)]
    seq = push(I, gd)
    reports.append(verify_syz_gamma(seq.middle, gd))
    return {"modules": reports,
            "windows": {},
            "pass": all(r["pass"] for r in reports)}


def _endo_corpus(ring):
    """The sweep corpus: I, its syzygy, one push, and double-push parts."""
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    seq = push(I, gd)
    seq2 = push(seq.middle, gd)
    parts, _ = decompose(seq2.middle)
    corpus = [I, I.syz(), seq.middle]
    corpus.extend(parts)
    return corpus, gd


def _is_unit_endo(h) -> bool:
    """Degree-zero endomorphisms are units exactly when invertible mod m."""
    return h.degree == 0 and invertible_on_top(h)


def _sweep_degree(M, d, report) -> None:
    """Test every basis endomorphism of M in degree d by both oracles and
    add what they find to the report.  The homs die on return."""
    for h in hom_graded(M, M, d).basis:
        report["endomorphisms"] += 1
        by_trace = stably_zero_trace(h)
        by_lift = stably_zero_bruteforce(h)
        where = {"module": M.label or str(M.gens), "degree": d}
        if by_trace != by_lift:
            report["disagreements"].append(
                dict(where, trace=by_trace, lifting=by_lift))
        images = trace_images(h)
        if not is_integral(images):
            report["nonintegral_traces"].append(where)
        val = min_t_valuation(images)
        if not _is_unit_endo(h) and val is not None and val < 1:
            report["nonradical_valuations"].append(dict(where, valuation=val))


def cmd_verify_trace_oracle(ring, args) -> dict:
    window = args.window if args.window is not None else ring.deg_g
    if window < 0:
        raise InputError("--window must be nonnegative, got %d" % window)
    _require_trace_oracle(ring, "trace-oracle")
    corpus, _ = _endo_corpus(ring)
    report = {"modules": len(corpus), "endomorphisms": 0,
              "disagreements": [], "nonintegral_traces": [],
              "nonradical_valuations": []}
    # Only the End generators, built first, read a hom space again after
    # its degree is tested, and each keeps its own alive; so each degree's
    # space and stably zero span are dropped once tested.  Each module is
    # popped, and its hom layer cleared, when its sweep ends, so one
    # module's tables are held at a time.
    while corpus:
        M = corpus.pop(0)
        end_generators(M)
        for d in range(-window, window + 1):
            _sweep_degree(M, d, report)
            drop_hom_graded(M, M, d)
        M.clear_hom_layer()
    report["windows"] = {"endomorphism_degree": [-window, window]}
    report["pass"] = not (report["disagreements"]
                          or report["nonintegral_traces"]
                          or report["nonradical_valuations"])
    return report


def cmd_verify_section7(ring, args) -> dict:
    return double_push_report(ring)


VERIFY_SUITES = {"main-theorem": cmd_verify_main_theorem,
                 "syz-gamma": cmd_verify_syz_gamma,
                 "trace-oracle": cmd_verify_trace_oracle,
                 "section7": cmd_verify_section7}


def cmd_verify(ring, args) -> dict:
    if args.window is not None and args.which != "trace-oracle":
        raise InputError("--window applies only to verify trace-oracle")
    return VERIFY_SUITES[args.which](ring, args)


def cmd_explore(ring, args) -> dict:
    if args.depth < 0:
        raise InputError("--depth must be nonnegative, got %d" % args.depth)
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    rep = explore_component(I, gd, depth=args.depth)
    doc = {
        "depth": args.depth,
        "modules": rep["modules"],
        "middle_parts": rep["middle_parts"],
        "sequences": rep["sequences"],
        "classification": rep["classification"],
        "subadditive": rep["subadditive"],
        "quiver": json.loads(to_json(rep["quiver"])),
        "orbit_quiver": json.loads(to_json(rep["orbit_quiver"])),
        "windows": {"depth": args.depth},
    }
    if args.format == "dot":
        doc["dot"] = to_dot(rep["quiver"])
    return doc


def cmd_push(ring, args) -> dict:
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    seq = push(I, gd)
    parts, frees = decompose(seq.middle)
    return {
        "sequence": seq.describe(),
        "ranks": seq.ranks,
        "e_avg": {"left": str(e_avg(seq.left)),
                  "middle": str(e_avg(seq.middle))},
        "middle_summands": [list(p.gens) for p in parts],
        "middle_free_summands": frees,
        "windows": {"hilbert_additivity": seq.additivity_degree},
    }


def cmd_decompose(ring, args) -> dict:
    I = _ideal_module(ring)
    gd = gamma_for(ring)
    seq = push(I, gd)
    parts, frees = decompose(seq.middle)
    return {
        "module": seq.middle.describe(),
        "parts": [p.describe() for p in parts],
        "free_summands": frees,
        "windows": {},
    }


# ----------------------------------------------------------------------
# plumbing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arcurves",
        description="Exact sequence toolkit for graded hypersurface curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a key=value ring config")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed in the report as \"seed\"; no result "
                       "depends on it (default: 0)")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")

    common(sub.add_parser("ring-info", help="branches, semigroups, gamma"))
    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("which", choices=VERIFY_SUITES)
    common(pv)
    pv.add_argument("--window", type=int, default=None,
                    help="endomorphism degree window of trace-oracle")
    pe = sub.add_parser("explore", help="walk a component from the ideal")
    common(pe)
    pe.add_argument("--depth", type=int, default=2)
    pe.add_argument("--format", choices=("json", "dot"), default="json")
    common(sub.add_parser("push", help="one almost split sequence"))
    common(sub.add_parser("decompose", help="split the middle term"))
    return ap


COMMANDS = {"ring-info": cmd_ring_info, "verify": cmd_verify,
            "explore": cmd_explore, "push": cmd_push,
            "decompose": cmd_decompose}

# How main reports an error of each class: its "error" kind and exit
# code.  Any other exception is internal, exit code 4.
ERRORS = {OSError: ("input", 2), InputError: ("input", 2),
          VerificationError: ("verification", 1),
          CertificationError: ("certification", 3)}


def _dispatch(ring, args):
    return COMMANDS[args.command](ring, args)


def _render(doc) -> str:
    if "dot" in doc:
        return doc["dot"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str) + "\n"


def _write(out, text) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, sha = _config_payload(args.config)
        ring = ring_from_config(text)
        doc = _dispatch(ring, args)
        doc["config_sha256"] = sha
        doc["seed"] = args.seed
        _write(args.out, _render(doc))
    except Exception as e:
        kind, code = next((ERRORS[c] for c in type(e).__mro__
                           if c in ERRORS), ("internal", 4))
        message = f"{type(e).__name__}: {e}" if code == 4 else str(e)
        sys.stderr.write(json.dumps({"error": kind, "message": message},
                                    sort_keys=True) + "\n")
        return code
    return 0 if doc.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
