"""Batch command-line front-end emitting machine-readable certificates.

Usage:
  ckpolylog ideal  [options] [--abstract-only]
  ckpolylog locus  [options] [--symmetrize]
  ckpolylog verify {appendix,counterexample,hopf,identities,all} [options]
  ckpolylog verify --suite SUITE [options]

Subcommands:
  ideal   -- Chabauty-Kim ideal generators for Z = Spec Z[1/S], weight <= n
  locus   -- zero loci on X(Z_p), optionally S_3-symmetrized
  verify  -- named verification suites (appendix, counterexample, hopf,
             identities), printing residual valuations

Options, spelled in full, as --opt VALUE or --opt=VALUE:
  --S PRIMES       comma-separated primes inverted on the base (default 3)
  --p PRIME        working prime (default 5)
  --n N            half-weight bound (default 4)
  --prec M         precision digits M (default 12)
  --guard G        guard digits g (default 3)
  --out FILE       write the JSON here instead of stdout
  --abstract-only  ideal: skip the period specialization of the coefficients
  --symmetrize     locus: intersect with the six Moebius translates
  -h, --help       print this text and exit 0

Output is deterministic JSON (sorted keys, canonical term order).  The
exit status is 0 iff every certificate in the run is certified/passes;
1 when a certificate is computed but not certified (an ideal above
--n 4 or over more than one prime, an uncertified zero, a failed check);
and 2, with a one-line message on stderr, for rejected or unsupported
input such as a malformed command line, a non-prime or repeated --S
entry, a non-prime --p, --n below the first Chabauty-Kim weight, a locus
over more than one prime, --S or --n given to a verify suite that does
not read them (only counterexample and all do), --p, --prec or --guard
given to ideal (it computes exactly over Z[1/S]), a verify suite below the
--prec it needs, a --p, --prec or verify counterexample --n too large for
the numerics to build (--p 1000003, --prec 100000, or --n 10000), an
--out path that cannot be written, or an ideal computation that outgrows
the elimination guard.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import archimedean, elimination, galois, loci, symbols
from . import words as wd
from .padic import PrecisionPolicy, is_prime, log_floor
from .polylog import get_engine, padic_L3_check, unsupported_prime, unsupported_size


class UsageError(ValueError):
    """A command line outside the grammar; the message is one line."""


def _policy(args):
    return PrecisionPolicy(args.prec, args.guard)


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise UsageError("invalid int value: %r" % text) from None


def _parse_prime(text):
    p = _parse_int(text)
    if not is_prime(p):
        raise UsageError("%d is not prime" % p)
    return p


def _parse_S(text):
    S = tuple(sorted(_parse_prime(x) for x in str(text).split(",")))
    if len(set(S)) < len(S):
        raise UsageError("%s repeats a prime" % text)
    return S


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_ideal(args):
    S = args.S
    try:
        prob, gens = elimination.ck_ideal_generators(args.n, set(S))
    except elimination.EliminationGuard as exc:
        print("ideal --S %s --n %d is unsupported: %s"
              % (",".join(map(str, S)), args.n, exc), file=sys.stderr)
        return 2
    failures = [g for g in gens if not elimination.verify_vanishing(prob, g)]
    payload = {
        "command": "ideal",
        "S": list(S),
        "n": args.n,
        "certified": args.n <= 4 and len(S) == 1 and not failures,
        "generators": [prob.to_json(g) for g in gens],
    }
    if gens and S in galois.TABLED_S and not args.abstract_only:
        assignment = galois.specialization_assignment(S)
        rows = []
        for g in gens:
            spec = elimination.specialize_coefficients(prob, g, assignment)
            rows.append({
                "weight": prob.weight(g),
                "coefficients": {
                    "*".join("%s^%d" % nk if nk[1] > 1 else nk[0] for nk in mono) or "1":
                        repr(expr)
                    for mono, expr in sorted(spec.items())},
            })
        payload["specialized"] = rows
    _emit(payload, args.out)
    return 0 if payload["certified"] else 1


def cmd_locus(args):
    S = args.S
    policy = _policy(args)
    locus = loci.locus_for(args.p, S, args.n, policy, symmetrize=args.symmetrize)
    payload = {"command": "locus", "S": list(S), "n": args.n,
               "symmetrized": bool(args.symmetrize)}
    payload.update(locus.to_json())
    if args.n > loci.FUNCTION_WEIGHTS[-1]:
        used = loci.used_weights(args.n)
        payload["usedWeights"] = used
        print("locus --n %d: no Chabauty-Kim function above weight %d is built; "
              "the locus uses the weight %s functions only"
              % (args.n, used[-1], " and ".join(map(str, used))), file=sys.stderr)
    _emit(payload, args.out)
    return 0 if locus.all_certified() else 1


def _suite_appendix(args, policy):
    rows = []
    res = padic_L3_check(args.p, policy)
    for name, val in sorted(res.items()):
        rows.append({"check": "padic:%s" % name, "residualValuation": val,
                     "passed": val >= policy.equality_threshold})
    z3 = archimedean.zeta3()
    complex_checks = [
        ("complex:KummerSpence(-1,1/3)", archimedean.kummer_spence_check()),
        ("complex:P3(-1/3)-2P3(1/3)+13/6 zeta(3)",
         abs(archimedean.complex_P3(-1.0 / 3) - 2 * archimedean.complex_P3(1.0 / 3)
             + 13.0 / 6 * z3)),
        ("complex:P3(-1)+(3/4)zeta(3)", abs(archimedean.complex_P3(-1.0) + 0.75 * z3)),
    ]
    for name, resid in complex_checks:
        rows.append({"check": name, "residual": resid, "passed": resid < 1e-10})
    return rows


def _suite_counterexample(args, policy):
    (ell,) = args.S
    return [loci.counterexample_cocycle(ell, args.n, args.p, policy)]


def _suite_hopf(args, policy):
    gs = galois.standard_genset({2, 3}, 8)
    rows = []
    for n in range(1, 9):
        # one call per weight: a triple cut (x, y, z) names its word xyz, so
        # the words of weight n do not cancel each other
        basis = wd.ShuffleElement(gs, dict.fromkeys(gs.words_of_weight(n), Fraction(1)))
        for w in sorted({x + y + z for x, y, z in wd.cobar_square(basis)}):
            rows.append({"check": "cobar:%s" % ".".join(w), "passed": False})
    # the rows so far are the cobar failures
    rows.append({"check": "cobar exactness through weight 8", "passed": not rows})
    x = wd.ShuffleElement.word(gs, ("tau_2",))
    rows.append({"check": "shuffle power identity",
                 "passed": (x ** 6).coefficient(("tau_2",) * 6) == 720})
    # each tabled Li row, read off its point's cocycle, against Goncharov's coproduct
    for builder in galois.TABLED.values():
        table = getattr(galois, builder)()
        for s in sorted(s for s in table.entries if s.kind == "li"):
            gon = table.tensor_to_words(symbols.reduced_coproduct(symbols.Expression.sym(s)))
            rows.append({"check": "goncharov:%r over Z[1/%s]" % (s, ",".join(map(str, table.S))),
                         "passed": wd.reduced_coproduct(table.entries[s]) == gon})
    return rows


def _suite_identities(args, policy):
    eng = get_engine(args.p, policy)
    rows = []
    l2 = eng.log(Fraction(2))
    combos = [
        ("Li3(1/2)-log(2)^3/6-(7/8)zeta(3)",
         eng.polylog(3, Fraction(1, 2)) - l2 ** 3 / 6 - Fraction(7, 8) * eng.zeta(3)),
        ("Li2(1/2)+log(2)^2/2", eng.polylog(2, Fraction(1, 2)) + l2 * l2 / 2),
        ("Li2(-1)", eng.polylog(2, Fraction(-1))),
        ("Li4(-1)", eng.polylog(4, Fraction(-1))),
    ]
    for name, v in combos:
        rows.append({"check": name, "residualValuation": v.val_lower_bound(),
                     "passed": v.val_lower_bound() >= policy.equality_threshold})
    q = galois.recognize_zeta_ratio(
        eng, eng.polylog(3, Fraction(9)) - 12 * eng.polylog(3, Fraction(3)), 3)
    rows.append({"check": "(Li3(9)-12Li3(3))/zeta(3) = -26/3",
                 "passed": q == Fraction(-26, 3), "recognized": str(q)})
    return rows


SUITES = {
    "appendix": _suite_appendix,
    "counterexample": _suite_counterexample,
    "hopf": _suite_hopf,
    "identities": _suite_identities,
}


def cmd_verify(args):
    policy = _policy(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    payload = {"command": "verify", "suites": {}, "p": args.p,
               "policy": {"M": policy.M, "g": policy.g}}
    for name in names:
        rows = SUITES[name](args, policy)
        payload["suites"][name] = rows
        for row in rows:
            status = "pass" if row.get("passed") else "FAIL"
            label = row.get("check", name)
            resid = row.get("residualValuation", row.get("residual", ""))
            print("[%s] %s %s" % (status, label, resid), file=sys.stderr)
    _emit(payload, args.out)
    suites = payload["suites"].values()
    return 0 if all(row["passed"] for rows in suites for row in rows) else 1


SUITE_CHOICES = sorted(SUITES) + ["all"]

# option -> (attribute, parser), shared by the three subcommands
OPTIONS = {"--S": ("S", _parse_S), "--p": ("p", _parse_prime), "--n": ("n", _parse_int),
           "--prec": ("prec", _parse_int), "--guard": ("guard", _parse_int),
           "--out": ("out", str)}
# subcommand -> its flags (option -> attribute)
FLAGS = {"ideal": {"--abstract-only": "abstract_only"},
         "locus": {"--symmetrize": "symmetrize"},
         "verify": {}}


def _parse_suite(text):
    if text not in SUITE_CHOICES:
        raise UsageError("invalid choice: %r (choose from %s)"
                         % (text, ", ".join(map(repr, SUITE_CHOICES))))
    return text


def parse_args(argv):
    """The namespace of one command line; raises UsageError when it is malformed."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in FLAGS:
        raise UsageError("argument command: invalid choice: %r (choose from %s)"
                         % (command, ", ".join(map(repr, FLAGS))))
    default = PrecisionPolicy()
    args = SimpleNamespace(command=command, S=(3,), p=5, n=4, prec=default.M, guard=default.g,
                           out=None, abstract_only=False, symmetrize=False, suite=None,
                           given=set())
    options = dict(OPTIONS)
    if command == "verify":
        options["--suite"] = ("suite", _parse_suite)
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if name in FLAGS[command] and not eq:
            setattr(args, FLAGS[command][name], True)
            continue
        if name in options:
            if not eq:
                if i == len(rest) or rest[i].startswith("--"):
                    raise UsageError("argument %s: expected one argument" % name)
                value = rest[i]
                i += 1
            dest, parse = options[name]
        elif command == "verify" and args.suite is None and not token.startswith("-"):
            name, dest, parse, value = "suite", "suite", _parse_suite, token
        else:
            raise UsageError("unrecognized arguments: %s" % token)
        if dest == "suite" and args.suite is not None:
            raise UsageError("argument %s: the suite is named twice: %r and %r"
                             % (name, args.suite, value))
        try:
            setattr(args, dest, parse(value))
        except UsageError as exc:
            raise UsageError("argument %s: %s" % (name, exc)) from None
        args.given.add(name)
    return args


def _out_unwritable(path):
    """Why the certificate cannot be written to path, or None; creates nothing."""
    if not path:
        return "--out needs a file name"
    if os.path.isdir(path):
        return "--out %s is a directory" % path
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return "--out %s: directory %s does not exist" % (path, folder)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "--out %s is not writable" % path
    return None


def _verify_unsupported(args):
    """Why the chosen verify suites cannot certify at this precision, or None."""
    digits = _policy(args).equality_threshold
    if args.suite in ("identities", "appendix", "all") and digits <= 3:
        # zeta_p(3) has valuation 3 (more only at an irregular pair (p, p-3));
        # these suites divide by it, so it must not vanish to M - g digits
        return ("verify %s needs --prec >= %d at --guard %d: it divides by "
                "zeta_p(3), which has valuation 3" % (args.suite, args.guard + 4, args.guard))
    if args.suite in ("identities", "all"):
        # galois.recognize_zeta_ratio needs p^(M - g + RECOGNITION_DIGITS) > 2 num den
        num, den = galois.RECOGNITION_BOUNDS
        need = log_floor(2 * num * den, args.p) + 1 - galois.RECOGNITION_DIGITS
        if digits < need:
            return ("verify %s needs --prec >= %d at --p %d --guard %d to recognize -26/3"
                    % (args.suite, args.guard + need, args.p, args.guard))
    return None


def _given(args, *options):
    return " and ".join(opt for opt in options if opt in args.given)


def _unsupported(args):
    """One line saying why the run cannot go ahead as asked, or None."""
    if args.command == "ideal" and (ignored := _given(args, "--p", "--prec", "--guard")):
        return "ideal takes no %s: it computes exactly over Z[1/S]" % ignored
    if not args.prec > args.guard >= 0:
        return "need --prec > --guard >= 0"
    if args.out is not None and (reason := _out_unwritable(args.out)):
        return reason
    if args.command == "ideal":
        return "ideal needs --n >= 1" if args.n < 1 else None
    if args.command == "verify":
        if args.suite is None:
            return "verify needs a suite (positional or --suite)"
        ignored = _given(args, "--S", "--n")
        if ignored and args.suite not in ("counterexample", "all"):
            return ("verify %s takes no %s: only counterexample and all read --S and --n"
                    % (args.suite, ignored))
    # verify counterexample builds its engine through weight max(4, --n)
    weight = max(4, args.n) if args.suite in ("counterexample", "all") else 4
    if reason := unsupported_prime(args.p) or unsupported_size(args.p, _policy(args), weight):
        return reason
    if args.p in args.S:
        return "working prime must avoid S"
    if args.command == "locus":
        if args.n < 2:
            return "locus needs --n >= 2: no Chabauty-Kim function has weight below 2"
        if args.n >= 4 and args.S not in galois.TABLED_S:
            return ("locus --n >= 4 needs %s: the weight-4 function's periods are "
                    "tabled for those only" % " or ".join("--S %d" % ell for ell in galois.TABLED))
        if len(args.S) > 1:
            return ("locus needs a single prime in --S: its Chabauty-Kim "
                    "functions are built for Z[1/l] only")
    if args.command == "verify" and args.suite in ("counterexample", "all"):
        if len(args.S) != 1:
            return "verify counterexample needs a single prime in --S"
        if args.n < 1:
            return "verify counterexample needs --n >= 1"
    if args.command == "verify":
        return _verify_unsupported(args)
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print("ckpolylog: error: %s" % exc, file=sys.stderr)
        return 2
    reason = _unsupported(args)
    if reason:
        print(reason, file=sys.stderr)
        return 2
    # built per call, so a wrapper installed on cmd_* is the one that runs
    commands = {"ideal": cmd_ideal, "locus": cmd_locus, "verify": cmd_verify}
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
