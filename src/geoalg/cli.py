"""Verification and exploration command line front end.

Subcommands
-----------
verify    run an identity suite and stream pass/fail reports
bracket   evaluate the Poisson bracket of two expressions
braid     apply a braid word to the generic generator family
centers   compute central elements and independence counts
reduce    print reduction maps (rotation-coefficient or level-p form)
geodesic  print a geodesic function, optionally at a point
stokes    print a Stokes matrix (special points or seeded random)

Reports are line-delimited JSON by default (`--format text` for a human
view).  Exit code 0 = all pass, 1 = at least one failing case, 2 = usage
error; an option that the command would not read (say `verify --suite
frobenius --n 7`, or any `verify --p`) is a usage error, not dropped.

Every report reaches standard output through `_write`, and every JSON
report line, made in the parent or in a worker, is made by `_json_line`:
`json.dumps(report)` and a newline, byte for byte.

A `verify` run builds the cases of its suites into one list and may run
them in forked workers, one per CPU beyond the first.  Cases that share
work share a key (a `ks` pair's is its index pattern, memoized per
process); with W CPUs the keys, a case with no key being its own, are
dealt to the W processes in turn in order of first appearance.  The
reports still come in case order, each as soon as it and every earlier one
are done, and they are the ones a serial run gives apart from `ms`.  Each
`ms` is its own case's time, so the `ms` of a split run can add up to more
than its wall time, and the workers' memory is not in the parent's
`ru_maxrss`.  The parent takes a line a worker sends only if it decodes
as one JSON object with a report's six keys followed by its newline and
nothing else, and relays it as it came; after any other line, or none,
it runs that worker's remaining cases itself.  The run stays in one
process with one CPU, without `os.fork`, or with fewer than 64 cases.
Python 3.12 and later warn (DeprecationWarning) when a process that has
threads forks, and numpy's BLAS pool is such a thread; Python 3.11 does
not warn.

Braid words
-----------
`braid --word` takes space-separated tokens, each naming the generator
that exchanges points i and j, with `^-1` appended for its inverse:

  b<i><j>     one digit each, e.g. b12, b23^-1
  b<i>,<j>    any number of digits, e.g. b10,11 (needed from n = 10 on)
  bn1         the wrap generator, which carries point 1 round the hole;
              b<n>1 (n < 10) and b<n>,1 name it too

j must be i + 1 (an adjacent generator, 1 <= i < n) or the pair must be
(n, 1) (the wrap); anything else is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
import time
from fractions import Fraction

from . import braid as braid_mod
from . import centers as centers_mod
from . import dn_algebra, fatgraph, frobenius, ks_calculus, reductions
from .poly_core import (ONE, Expr, _mono_sort_key, const, dot, gen, parse,
                        parse_gen)

_BRAID_TOKEN = re.compile(
    r"b(?:(?P<n1>n1)|(?P<i>[0-9]+),(?P<j>[0-9]+)|(?P<i1>[0-9])(?P<j1>[0-9]))")

SUITES = ("goldman", "ks", "jacobi", "braid", "yangian", "centers",
          "reduction", "frobenius")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


# a failing report prints each side to this many characters at most
_FAIL_CHARS = 2000


def _cut(value, text):
    """*text*, the printed *value*, cut to _FAIL_CHARS characters ("…"
    marks a cut).  A nonzero Expr ends in its size and its first printed
    term, cut or not ("[1234 terms; lowest: G[1,3,1] · -2]"); other cut
    values end in their size ("[5000 chars]")."""
    cut = text if len(text) <= _FAIL_CHARS else text[:_FAIL_CHARS] + "…"
    if isinstance(value, Expr) and value:
        mono, c = min(value.terms(), key=_mono_sort_key)
        return (f"{cut} [{len(value)} terms; lowest: "
                f"{Expr({mono: 1})} · {c}]")
    return cut if cut is text else f"{cut} [{len(text)} chars]"


class _Stopwatch:
    """Builds the report dicts of one computation.

    A report's `ms` is the time since the previous report of the same
    stopwatch, or since the stopwatch was made: the first report of a
    command carries the computation it came from, and the sum over the
    reports is the command's time.  A failing report's sides are cut to
    _FAIL_CHARS characters each, and an Expr side names its lowest term.
    """

    def __init__(self):
        self._t = time.perf_counter()

    def report(self, suite, case, left, right="", status="pass"):
        # a passing case's right side is often its left: print it once
        same = right is left or (isinstance(right, Expr) and right == left)
        left_text = str(left)
        right_text = left_text if same else str(right)
        if status == "fail":
            left_text = _cut(left, left_text)
            right_text = _cut(right, right_text)
        now = time.perf_counter()
        ms = round((now - self._t) * 1000, 3)
        self._t = now
        return {"suite": suite, "case": case, "status": status,
                "left": left_text, "right": right_text, "ms": ms}


def _run_case(suite, case_id, fn):
    clock = _Stopwatch()
    try:
        ok, left, right = fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # surface, don't crash the stream
        status, left, right = "fail", f"exception: {exc!r}", ""
    return clock.report(suite, case_id, left, right, status)


_encode = json.encoder.encode_basestring_ascii


def _json_line(rep):
    """`json.dumps(rep) + "\\n"` for a report of _Stopwatch.report, byte for
    byte: its five string fields and its float `ms`, in that order."""
    return (f'{{"suite": {_encode(rep["suite"])}, '
            f'"case": {_encode(rep["case"])}, '
            f'"status": {_encode(rep["status"])}, '
            f'"left": {_encode(rep["left"])}, '
            f'"right": {_encode(rep["right"])}, "ms": {rep["ms"]!r}}}\n')


def _emit(reports, fmt):
    return _write(((rep, None) for rep in reports), fmt)


def _write(reports, fmt):
    """Write each (report, the JSON line a worker sent it as, or None) of
    *reports* to stdout, and return the exit code.  With `--format json` a
    sent line goes out as it came and any other report as _json_line
    makes it; `--format text` formats the report itself."""
    failed = 0
    for rep, sent in reports:
        if rep["status"] == "fail":
            failed += 1
        if fmt == "json":
            sys.stdout.write(sent or _json_line(rep))
        else:
            line = f"[{rep['status']:>7}] {rep['suite']}::{rep['case']} ({rep['ms']} ms)"
            if rep["status"] == "fail":
                line += f"\n    left : {rep['left']}\n    right: {rep['right']}"
            elif rep["left"] and not rep["right"]:
                line += f"  =  {rep['left']}"
            sys.stdout.write(line + "\n")
    return 1 if failed else 0


# below this many jobs a run stays in one process: a fork, exit and wait
# cost about 3 ms, more than a short suite gains from a second core
_MIN_SPLIT = 64


def _cpus():
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _work(jobs, fd, inherited):
    """A worker's life: close the pipe ends *inherited* from the parent,
    then write one report per job on *fd*, as the line _json_line makes,
    flushed as soon as it is written."""
    try:
        for pipe in inherited:
            os.close(pipe)
        with open(fd, "w") as out:
            for job in jobs:
                out.write(_json_line(_run_case(*job[:3])))
                out.flush()
    finally:
        os._exit(0)


def _owners(jobs, width):
    """Each job's process (0: the parent): keys, a job with no key being
    its own, dealt to the *width* processes in turn by first appearance."""
    dealt = {}
    return [dealt.setdefault(job[3:] or i, len(dealt) % width)
            for i, job in enumerate(jobs)]


_decode = json.JSONDecoder().raw_decode
_KEYS = {"suite", "case", "status", "left", "right", "ms"}


def _sent_report(line):
    """The report a worker sent as *line*, or None unless the line is one
    JSON object with a report's six keys, followed by its newline and
    nothing else (a line cut before its newline is refused)."""
    try:
        rep, end = _decode(line)
    except ValueError:
        return None
    if (end == len(line) - 1 and line[end] == "\n"
            and isinstance(rep, dict) and rep.keys() == _KEYS):
        return rep
    return None


def _in_order(jobs, owners, pipes):
    """Every job's (report, line) in job order.  A job of owner 0 or of a
    worker with no pipe runs here (line None); the others are read from
    their worker's pipe, each line checked by _sent_report.  A pipe that
    ends early or sends a line that it refuses is closed, and that
    worker's remaining jobs run here."""
    for job, k in zip(jobs, owners):
        report = line = None
        if k in pipes:
            line = pipes[k].readline()
            report = _sent_report(line)
            if report is None:
                pipes.pop(k).close()
        yield (report, line) if report else (_run_case(*job[:3]), None)


def _run_jobs(jobs, fmt):
    """Emit the reports of the (suite, case id, fn[, key]) *jobs* in order.

    With W = _cpus() CPUs and at least _MIN_SPLIT jobs, W - 1 forked
    workers take the jobs that _owners gives them and the parent the rest;
    otherwise W is 1 and the parent runs every job, as it runs the jobs of
    a worker it could not fork.  Every worker is killed if still running
    and reaped before this returns or raises.
    """
    width = _cpus() if len(jobs) >= _MIN_SPLIT else 1
    owners = _owners(jobs, width)
    pids, pipes = [], {}
    try:
        for k in range(1, width):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _work([j for j, o in zip(jobs, owners) if o == k], write_fd,
                      [read_fd] + [pipe.fileno() for pipe in pipes.values()])
            pids.append(pid)
            os.close(write_fd)
            pipes[k] = open(read_fd)
        return _write(_in_order(jobs, owners, pipes), fmt)
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _given(value, default):
    """An option's value, or *default* when the option was not given; an
    explicit 0 is kept (`_check_options` rejects sizes below 1)."""
    return default if value is None else value


def _bool_case(value):
    return bool(value), repr(value), "expected truthy"


def _folded(**halves):
    """The verdict of a case that folds several checks, each a thunk
    giving (ok, left, right), run in order up to the first that fails:
    that half's verdict with its name before its left side, or the first
    half's when all pass."""
    first = None
    for name, half in halves.items():
        ok, left, right = half()
        if not ok:
            return ok, f"{name}: {left}", right
        first = first or (ok, left, right)
    return first


def _pair_verdict(lhs, rhs):
    """An oracle's value against the structure constants': when they agree
    the report carries (and prints) one value for both sides."""
    ok = lhs == rhs
    return ok, lhs, lhs if ok else rhs


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_goldman(args):
    n = _given(args.n, 4)
    graph = fatgraph.canonical_disc_graph(n)
    geo = fatgraph.geodesic_functions(n)
    cases = [("perimeter", lambda: _folded(
        perimeter_identity=lambda: _bool_case(fatgraph.perimeter_identity(n)),
        clashed_hole_coords=lambda: _bool_case(
            fatgraph.clashed_hole_coords())))]
    table = dn_algebra._table(dn_algebra.an_algebra(n))
    forms = {name: fatgraph._shear_form(f, graph) for name, f in geo.items()}

    def value(u):  # the geodesic function of table id u; id 0 is 1
        return geo[gen(*table.triples[u])] if u else ONE

    def pair_case(a, b):
        def run():
            lhs = fatgraph._form_bracket(forms[gen(*a, 0)],
                                         forms[gen(*b, 0)])
            # the row {G_a, G_b} = sum c G_u G_v that bracket reads
            rhs = dot([(c, value(u), value(v))
                       for c, _, u, v in table.pair((*a, 0), (*b, 0))])
            return _pair_verdict(lhs, rhs)
        return run

    labeled = [((i, j), str((i, j))) for i in range(1, n + 1)
               for j in range(i + 1, n + 1)]
    cases += [(f"goldman-vs-constants {la}x{lb}", pair_case(a, b))
              for idx, (a, la) in enumerate(labeled)
              for b, lb in labeled[idx:]]
    return cases


def _suite_ks(args):
    n = _given(args.n, 3)
    level = _given(args.level, 1)
    alg = dn_algebra.dn_algebra(n)
    gens = dn_algebra.generator_tuples(n, level)
    memo = {}

    def pair_case(a, b):
        def run():
            lhs = ks_calculus.generator_bracket(a, b, memo)
            rhs = dn_algebra._pair_bracket(alg, a, b)
            return _pair_verdict(lhs, rhs)
        return run

    labeled = [(g, str(g)) for g in gens]  # labels made once, not per case
    return [(f"ks-vs-constants {la}x{lb}", pair_case(a, b),
             ks_calculus._ranked(a, b)[1:])
            for idx, (a, la) in enumerate(labeled) for b, lb in labeled[idx:]]


def _suite_jacobi(args):
    n = _given(args.n, 3)
    level = _given(args.level, 1)
    alg = dn_algebra.dn_algebra(n)
    gens = dn_algebra.generator_tuples(n, level)

    def triple_case(a, b, c):
        def run():
            res = dn_algebra.jacobi_check(alg, a, b, c)
            return res.is_zero(), res, "0"
        return run

    labeled = [(g, str(g)) for g in gens]  # labels made once, not per case
    cases = []
    for x, (a, la) in enumerate(labeled):
        for y in range(x + 1, len(labeled)):
            b, lb = labeled[y]
            cases += [(f"jacobi {la},{lb},{lc}", triple_case(a, b, c))
                      for c, lc in labeled[y + 1:]]
    return cases


def _suite_braid(args):
    n = _given(args.n, 3)
    if n < 3:
        # below 3 points the wrap and b12 are not distinct generators, so
        # the braid relations between them are not the group's
        raise ValueError(f"the braid suite needs --n at least 3, not {n}")
    cases = []
    for flavor in ("A", "D", "frakD"):
        def run(flavor=flavor):
            rep = braid_mod.verify_relations(flavor, n)
            bad = [c["relation"] for c in rep["checks"] if not c["ok"]]
            return rep["ok"], f"failing: {bad}" if bad else "all relations", \
                f"{len(rep['checks'])} relations"
        cases.append((f"relations[{flavor}] n={n}", run))
    return cases


def _suite_yangian(args):
    if args.n is not None:
        specs = [(args.n, _given(args.level, 2))]
    elif args.level is not None:
        specs = [(2, args.level), (3, args.level)]
    else:
        specs = [(2, 3), (3, 2)]

    def run(n, order):
        def inner():
            rep = dn_algebra.semiclassical_reflection_check(
                dn_algebra.dn_algebra(n), order)
            if rep["ok"]:
                return True, "0 mismatches", f"{rep['checked']} entries"
            ji, pl, (k, k2), residual = rep["first"]
            return False, (
                f"{len(rep['mismatches'])} mismatches of {rep['checked']} "
                f"entries; first {(ji, pl)} at lam^-{k} mu^-{k2}, lhs - rhs:"
            ), residual
        return inner

    return [(f"reflection-limit n={n} order={o}", run(n, o)) for n, o in specs]


def _suite_centers(args):
    seed = _given(args.seed, 0)
    cases = []

    def invariance(flags):
        return all(flags), f"invariance flags {flags}", "all True"

    def an_case(n):
        def run():
            cs = centers_mod.centers_An(n)
            rep = centers_mod.centrality_report(dn_algebra.an_algebra(n),
                                                cs.coefficients)
            return _folded(
                centrality=lambda: (rep["ok"], rep, "all brackets zero"),
                braid=lambda: invariance(centers_mod.braid_invariance(
                    "A", cs.coefficients, n)))
        return run

    for n in (2, 3):
        cases.append((f"level-0 centers n={n}", an_case(n)))

    def dnp_case(n, p):
        def run():
            cs = centers_mod.centers_Dnp(n, p, seed=seed)
            return _folded(
                rank=lambda: _rank_case(cs, (n * p) // 2),
                braid=lambda: invariance(centers_mod.braid_invariance(
                    "Dp", cs.coefficients, n, p)))
        return run

    for n, p in ((2, 2), (3, 2), (2, 3)):
        cases.append((f"level-p centers ({n},{p})", dnp_case(n, p)))

    def relation_case(n):
        def run():
            rep = centers_mod.dn_relation_check(n)
            return rep["ok"], rep, "det coefficients match"
        return run

    for n in (2, 3):
        cases.append((f"det-coefficient relations n={n}", relation_case(n)))

    def invariance_case():
        return invariance(centers_mod.braid_invariance(
            "D", centers_mod.corrected_d3_casimirs(), 3))

    cases.append(("involution casimirs n=3", invariance_case))
    return cases


def _rank_case(cs, want):
    """Verdict on *want* independent centers.  The Jacobian rank at a
    point is a deterministic lower bound on the generic rank (an unlucky
    point only lowers it), so the largest over the sample points reaching
    *want* certifies independence with no probability."""
    ok = cs.meta["rank"] == want and len(cs.coefficients) >= want
    return ok, f"ranks {cs.meta['jacobian_ranks']}", f"expected rank {want}"


def _suite_reduction(args):
    cases = [
        ("commuting square n=3", lambda: _folded(
            th_dn_check=lambda: _bool_case(reductions.th_dn_check(3)["ok"]),
            combination_transform_check=lambda: _bool_case(
                braid_mod.combination_transform_check(3)["ok"]))),
        ("generating-series sum", lambda: _bool_case(
            reductions.dn_sum()["ok"])),
        ("resolution identity", lambda: _bool_case(
            reductions.resolution_identity(3))),
    ]
    for p in (2, 3, 4):
        cases.append((f"periodicity p={p}", lambda p=p: _bool_case(
            reductions.periodicity_check(p))))
    for n, p in ((2, 2), (3, 2), (2, 3)):
        cases.append((f"representative independence ({n},{p})",
                      lambda n=n, p=p: _bool_case(
                          reductions.representative_independence(n, p))))
    return cases


def _suite_frobenius(args):
    seed = _given(args.seed, 0)
    cases = []

    def matrix_identities():
        import random
        rng = random.Random(seed)
        s = frobenius.random_stokes(4, rng)
        rep = frobenius.clash_block(s, 3)
        ok = (rep.ok and frobenius.product_identity(s)
              and frobenius.gk_mirror_check(s, 3, 2))
        return ok, "block/product/mirror identities", "all exact"

    cases.append(("monodromy identities", matrix_identities))

    def all_ones(m):
        rep = frobenius.all_ones_report(m)
        flags = rep["level_p"]
        return _folded(
            char_poly=lambda: _bool_case(rep["char_poly_ok"]),
            level_p=lambda: (all(flags.values()), flags, "all True"))

    for m in (2, 3):
        cases.append((f"all-ones tail m={m}", lambda m=m: all_ones(m)))
    cases.append(("bracket realization", lambda: _bool_case(
        frobenius.realization_suite(3, seed=seed)["ok"])))

    def special_points():
        a3 = frobenius.a3_star().mat
        a4 = frobenius.a4_star().mat
        ok3 = all(a3[i, j] == const(v) for i, row in
                  enumerate([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
                  for j, v in enumerate(row))
        ok4 = all(a4[i, j] == const(v) for i, row in
                  enumerate([[1, 4, 6, 4], [0, 1, 4, 6],
                             [0, 0, 1, 4], [0, 0, 0, 1]])
                  for j, v in enumerate(row))
        return ok3 and ok4, "integer Stokes points", "printed values"

    cases.append(("quantum-cohomology points", special_points))
    return cases


# suite -> (its case builder, the options it reads)
_SUITE_BUILDERS = {
    "goldman": (_suite_goldman, ("n",)),
    "ks": (_suite_ks, ("n", "level")),
    "jacobi": (_suite_jacobi, ("n", "level")),
    "braid": (_suite_braid, ("n",)),
    "yangian": (_suite_yangian, ("n", "level")),
    "centers": (_suite_centers, ("seed",)),
    "reduction": (_suite_reduction, ()),
    "frobenius": (_suite_frobenius, ("seed",)),
}


def _reject_unread(args, keys, why):
    """Exit 2 rather than drop an option the command would not read."""
    given = [f"--{key.replace('_', '-')}" for key in keys
             if getattr(args, key) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: not read {why}")


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    read = {key for name in names for key in _SUITE_BUILDERS[name][1]}
    _reject_unread(args, [key for key in ("n", "level", "seed", "p")
                          if key not in read], f"by --suite {args.suite}")
    jobs = []
    for name in names:
        cases = _SUITE_BUILDERS[name][0](args)
        if not cases:  # exit 0 must mean that some check passed
            raise ValueError(f"the {name} suite has no case at these sizes")
        jobs += [(name, *case) for case in cases]
    return _run_jobs(jobs, args.format)


# ---------------------------------------------------------------------------
# expression subcommands
# ---------------------------------------------------------------------------


def _algebra(args):
    n = _given(args.n, 3)
    if args.alg == "an":
        return dn_algebra.an_algebra(n)
    if args.alg == "dn":
        return dn_algebra.dn_algebra(n)
    if args.alg == "dnp":
        return dn_algebra.dnp_algebra(n, _given(args.p, 2))
    raise SystemExit(2)


def cmd_bracket(args) -> int:
    clock = _Stopwatch()
    _reject_unread(args, ["seed"] if args.alg == "dnp" else ["seed", "p"],
                   f"by bracket --alg {args.alg}")
    alg = _algebra(args)
    f, g = parse(args.exprs[0]), parse(args.exprs[1])
    result = dn_algebra.bracket(alg, f, g)
    status, right = "pass", ""
    if args.oracle:
        a = _single_generator(f)
        b = _single_generator(g)
        if a is None or b is None:
            status, right = "skipped", "oracle needs single-generator operands"
        elif args.oracle == "ks":
            right = alg.storage_form(ks_calculus.generator_bracket(a, b, {}))
            status = "pass" if right == result else "fail"
        elif args.oracle == "goldman":
            ops = alg.canonical(*a), alg.canonical(*b)
            if any(parse_gen(s)[2] for e in ops for s in e.symbols()):
                raise ValueError("the Goldman oracle realizes level-0 "
                                 "generators only")
            geo = fatgraph.geodesic_functions(alg.n)
            graph = fatgraph.canonical_disc_graph(alg.n)
            lhs = fatgraph.goldman_bracket(ops[0].subst(geo),
                                           ops[1].subst(geo), graph)
            rhs = result.subst(geo)
            right = "goldman realization"
            status = "pass" if lhs == rhs else "fail"
    case = f"{{{args.exprs[0]}, {args.exprs[1]}}}"
    return _emit([clock.report("bracket", case, result, right, status)],
                 args.format)


def _single_generator(e: Expr):
    terms = list(e.terms())
    if len(terms) != 1:
        return None
    mono, coeff = terms[0]
    if coeff != Fraction(1) or len(mono) != 1 or mono[0][1] != 1:
        return None
    return parse_gen(mono[0][0])


def _parse_braid_word(text: str, n: int):
    """Read a braid word: see "Braid words" in the module docstring."""
    word = []
    for token in text.split():
        inverse = token.endswith("^-1")
        if inverse:
            token = token[:-3]
        m = _BRAID_TOKEN.fullmatch(token)
        if m is None:
            raise ValueError(f"bad braid token {token!r}")
        if m["n1"]:
            i, j = n, 1
        else:
            i, j = int(m["i"] or m["i1"]), int(m["j"] or m["j1"])
        if (i, j) == (n, 1):
            word.append(braid_mod.wrap(inverse))
        elif j == i + 1:
            word.append(braid_mod.adjacent(i, inverse))
        else:
            raise ValueError(f"braid token {token!r} is not adjacent or wrap")
    return word


def cmd_braid(args) -> int:
    clock = _Stopwatch()
    n = _given(args.n, 3)
    if args.alg != "frakdn" and (args.matrix or args.cap is not None):
        raise ValueError(f"--matrix and --cap apply to --alg frakdn, "
                         f"not {args.alg}")
    _reject_unread(args, ["seed"], "by braid")
    word = _parse_braid_word(args.word, n)
    reports = []
    if args.alg == "an":
        gm = braid_mod.LambdaMatrix.generic(n, 0)
        for b in word:
            gm = braid_mod.act_matrix(b, gm)
        for i in range(n):
            for j in range(i + 1, n):
                reports.append(clock.report("braid", f"G[{i+1},{j+1},0]",
                                            gm.mat[i, j]))
    elif args.alg == "dn":
        fam = braid_mod.ghat_family(n)
        for b in word:
            fam = braid_mod.act_Dn(b, fam, n)
        for (i, j), val in sorted(fam.items()):
            reports.append(clock.report("braid", f"Ghat[{i},{j}]", val))
    else:  # level-graded family
        gm = braid_mod.LambdaMatrix.generic(n, _given(args.cap, 4))
        act = braid_mod.act_matrix if args.matrix else braid_mod.act_frakDn
        for b in word:
            gm = act(b, gm)
        if args.matrix:
            for k in range(gm.cert + 1):
                reports.append(clock.report("braid", f"lam^-{k}",
                                            gm.coefficient(k).rows))
        else:
            for (i, j, k), val in sorted(gm.levels().items()):
                reports.append(clock.report("braid", f"G[{i},{j},{k}]",
                                            val))
    return _emit(reports, args.format)


def cmd_centers(args) -> int:
    clock = _Stopwatch()
    if args.alg != "dnp":
        _reject_unread(args, ["p", "seed"], f"by centers --alg {args.alg}")
    n = _given(args.n, 3)
    if args.alg == "an":
        cs = centers_mod.centers_An(n)
    elif args.alg == "dnp":
        cs = centers_mod.centers_Dnp(n, _given(args.p, 2),
                                     seed=_given(args.seed, 0))
    else:
        cs = centers_mod.centers_Dn(n)
    reports = [clock.report("centers", f"{cs.flavor}[{idx}]", c)
               for idx, c in enumerate(cs.coefficients)]
    meta = clock.report("centers", "meta", json.dumps(
        {k: str(v) for k, v in cs.meta.items()}))
    return _emit(reports + [meta], args.format)


def cmd_reduce(args) -> int:
    clock = _Stopwatch()
    if args.k is not None:
        _reject_unread(args, ["seed", "n", "level_p"], "by reduce --k")
    else:
        _reject_unread(args, ["seed"], "by reduce without --k")
    reports = []
    if args.k is not None:
        rmap = reductions.dn_reduce(args.k)
        for name, coeff in (("antisymmetric", rmap.c_rhat),
                            ("symmetric", rmap.c_shat),
                            ("upper", rmap.c_ahat),
                            ("lower", rmap.c_ahat_t)):
            reports.append(clock.report("reduce", f"k={args.k} {name}",
                                        coeff))
    elif args.level_p is not None:
        n = _given(args.n, 2)
        gm = reductions.build_Gp(n, args.level_p)
        for k in range(args.level_p + 1):
            reports.append(clock.report(
                "reduce", f"level-p={args.level_p} lam^-{k}",
                gm.coefficient(k).rows))
    else:
        raise ValueError("reduce needs --k or --level-p")
    return _emit(reports, args.format)


def cmd_geodesic(args) -> int:
    clock = _Stopwatch()
    if args.n is None:
        raise ValueError("geodesic needs --n")
    _reject_unread(args, ["seed"], "by geodesic")
    e = fatgraph.geodesic_function(args.n, args.i, args.j)
    if args.at:
        bindings = {}
        for piece in args.at.split(","):
            name, _, val = piece.partition("=")
            bindings[name.strip()] = const(Fraction(val.strip()))
        e = e.subst(bindings)
    report = clock.report("geodesic", f"G[{args.i},{args.j}] n={args.n}", e)
    return _emit([report], args.format)


def cmd_stokes(args) -> int:
    clock = _Stopwatch()
    if args.point != "random":
        _reject_unread(args, ["n", "seed"], f"by stokes --point {args.point}")
    if args.point == "a3star":
        s = frobenius.a3_star()
    elif args.point == "a4star":
        s = frobenius.a4_star()
    else:
        import random
        s = frobenius.random_stokes(_given(args.n, 3),
                                    random.Random(_given(args.seed, 0)))
    reports = [clock.report("stokes", f"row {i + 1}",
                            [str(s.mat[i, j]) for j in range(s.n)])
               for i in range(s.n)]
    return _emit(reports, args.format)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="geoalg", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="key=value file pre-selecting options")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.set_defaults(command_parser=p)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("verify", help="run an identity suite")
    common(p)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bracket", help="bracket of two expressions")
    common(p)
    p.add_argument("--alg", choices=("an", "dn", "dnp"), default="dn")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--oracle", choices=("ks", "goldman"), default=None)
    p.add_argument("exprs", nargs=2)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("braid", help="apply a braid word")
    common(p)
    p.add_argument("--alg", choices=("an", "dn", "frakdn"), default="an")
    p.add_argument("--word", required=True,
                   help='space-separated tokens b<i><j>, b<i>,<j> (any '
                        'number of digits) or bn1, each optionally ending '
                        'in ^-1, like "b12 b10,11^-1 bn1"')
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("centers", help="central elements")
    common(p)
    p.add_argument("--alg", choices=("an", "dn", "dnp"), default="an")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("reduce", help="reduction maps")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--level-p", dest="level_p", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("geodesic", help="geodesic function")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--at", help="comma-separated bindings like s1=1,t1=2")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("stokes", help="Stokes matrices")
    common(p)
    p.add_argument("--point", choices=("a3star", "a4star", "random"),
                   default="a3star")
    p.set_defaults(func=cmd_stokes)
    return top


def _read_config(args):
    """Make the `key=value` lines of --config the defaults of the
    command's options, so that a value given on the line wins; a key that
    is not a value option of the command is an error."""
    command = args.command_parser
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.nargs != 0}
    defaults = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            action = options.get(key)
            if not eq or action is None:
                raise ValueError(f"config line {line!r} sets no option of "
                                 f"{args.command!r}")
            if action.choices is not None and val not in action.choices:
                raise ValueError(f"config {key}={val!r} is not one of "
                                 f"{', '.join(action.choices)}")
            defaults[key] = val
    command.set_defaults(**defaults)


def _check_options(args):
    """Sizes and periods must be positive and levels (a series order, a
    certified cap, a reduction level) nonnegative, whether given on the
    line or in --config."""
    for key, least in (("n", 1), ("p", 1), ("level_p", 1), ("level", 0),
                       ("cap", 0), ("k", 0)):
        value = getattr(args, key, None)
        if value is not None and value < least:
            flag = key.replace("_", "-")
            raise ValueError(f"--{flag} must be at least {least}, not {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _read_config(args)
            args = parser.parse_args(argv)
        _check_options(args)
        return args.func(args)
    except (ValueError, OSError, ArithmeticError,
            braid_mod.CertificationError) as exc:
        # bad input: a malformed or out-of-range value, a division by
        # zero in it, an exponent past the ring's limit, a missing file or
        # a level beyond what a braid word certifies
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
