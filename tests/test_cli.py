"""Command-line interface: exit codes, JSON reports, option handling."""

import argparse
import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from geoalg import (braid, centers, cli, dn_algebra, fatgraph, frobenius,
                    ks_calculus, reductions)
from geoalg.cli import main
from geoalg.poly_core import E, Expr, ZERO, dot, gen


def _json_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "goldman", "--n", "3"]) == 0
    reports = _json_lines(capsys)
    assert reports
    assert all(r["status"] == "pass" for r in reports)
    assert {"suite", "case", "status", "left", "right", "ms"} <= set(
        reports[0])


def test_failing_report_is_cut_with_its_term_count():
    big = Expr({(("x", k), ("y", -k)): k + 1 for k in range(1234)})
    assert len(str(big)) > cli._FAIL_CHARS
    rep = cli._run_case("s", "c", lambda: (False, big, -big))
    assert rep["status"] == "fail"
    # the lowest term is the constant one, x^0 y^0 with coefficient 1
    for side, value, c in (("left", big, 1), ("right", -big, -1)):
        assert rep[side] == (str(value)[:cli._FAIL_CHARS]
                             + f"… [1234 terms; lowest: 1 · {c}]")
    # a passing report is printed whole, a short failing one whole with
    # the size and lowest term of an Expr side, a long string cut
    passed = cli._run_case("s", "c", lambda: (True, big, big))
    assert passed["left"] == passed["right"] == str(big)
    short = cli._run_case("s", "c", lambda: (False, E("x") - 3 * E("y", -2),
                                            "y"))
    assert (short["left"], short["right"]) == (
        "x - 3*y^-2 [2 terms; lowest: x · 1]", "y")
    text = cli._run_case("s", "c", lambda: (False, ZERO, "z" * 3000))
    assert (text["left"], text["right"]) == (
        "0", "z" * cli._FAIL_CHARS + "… [3000 chars]")
    assert set(rep) == set(passed) == {"suite", "case", "status", "left",
                                       "right", "ms"}


# report text as it comes: cut marks, middle dots, lambdas, quotes,
# backslashes, control characters and newlines among any other characters
_REPORT_TEXT = st.text(st.one_of(st.sampled_from('…·λ"\\\n\t\x00\x1f\x7f'),
                                 st.characters()))
_MS = st.one_of(st.sampled_from([0.0, 1e-05, 123456.789]),
                st.floats(0, 1e7).map(lambda x: round(x, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_REPORT_TEXT, _REPORT_TEXT,
       st.sampled_from(["pass", "fail", "skipped"]), _REPORT_TEXT,
       _REPORT_TEXT, _MS)
def test_the_report_writer_is_json_dumps(suite, case, status, left, right,
                                         ms):
    # the keys in the order that _Stopwatch.report gives them
    rep = {"suite": suite, "case": case, "status": status, "left": left,
           "right": right, "ms": ms}
    assert cli._json_line(rep) == json.dumps(rep) + "\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_every_report_line_is_canonical_json(cpus, monkeypatch):
    (code, out), forks = _main_run(monkeypatch, _KS, cpus)
    lines = out.splitlines(keepends=True)
    assert (code, len(lines), forks) == (0, len(_ks_pairs()), cpus - 1)
    for line in lines:
        assert line == json.dumps(json.loads(line)) + "\n"


def test_a_sent_line_must_be_one_whole_report():
    line = cli._json_line(cli._run_case("ks", "c", lambda: (True, "0", "")))
    assert cli._sent_report(line) == json.loads(line)
    for bad in ["", "\n", line[:-1], line[:-2] + "\n", " " + line,
                line[:-1] + " \n", line + line, line[:-1] + "{}\n",
                '"pass"\n', "[1]\n", '{"status": "pass"}\n',
                line.replace('"ms"', '"MS"'), "{garbled\n"]:
        assert cli._sent_report(bad) is None, bad


def test_verify_frobenius_seed5_passes(capsys):
    # generator values reach thousands at this seed's first Stokes point
    assert main(["verify", "--suite", "frobenius", "--seed", "5"]) == 0
    assert all(r["status"] == "pass" for r in _json_lines(capsys))


def test_verify_frobenius_gates_on_the_level_p_period(monkeypatch, capsys):
    # the all-ones cases read every level_p verdict, not only the
    # characteristic polynomial: with the full period of the symbolic head
    # taken to p - 1 they fail (only level_p_condition asks for M_h^k with
    # k >= 3, at p = 3 and 4)
    clash = frobenius.clash_monodromy
    monkeypatch.setattr(frobenius, "clash_monodromy", lambda s, nt, k: clash(
        s, nt, k - 1 if k >= 3 else k))
    assert main(["verify", "--suite", "frobenius"]) == 1
    assert [r["case"] for r in _json_lines(capsys)
            if r["status"] == "fail"] == ["all-ones tail m=2",
                                          "all-ones tail m=3"]


def test_verify_braid_text_format(capsys):
    assert main(["verify", "--suite", "braid", "--format", "text",
                 "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_bracket_matches_published_example(capsys):
    assert main(["bracket", "--alg", "an", "--n", "4",
                 "G[1,3,0]", "G[2,4,0]"]) == 0
    rep = _json_lines(capsys)[0]
    assert rep["left"] == "2*G[1,2,0]*G[3,4,0] - 2*G[1,4,0]*G[2,3,0]"


def test_bracket_with_trace_oracle(capsys):
    assert main(["bracket", "--alg", "dn", "--n", "3", "--oracle", "ks",
                 "G[1,2,0]", "G[1,3,1]"]) == 0
    rep = _json_lines(capsys)[0]
    assert rep["status"] == "pass"
    assert rep["left"] == rep["right"]


def test_bracket_oracle_skips_composite_operands(capsys):
    assert main(["bracket", "--alg", "dn", "--n", "3", "--oracle", "ks",
                 "G[1,2,0] + 1", "G[1,3,1]"]) == 0
    rep = _json_lines(capsys)[0]
    assert rep["status"] == "skipped"


def test_goldman_oracle_rejects_a_higher_level(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--alg", "dn", "--n", "3", "--oracle", "goldman",
              "G[1,2,1]", "G[1,3,0]"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: the Goldman oracle realizes level-0 generators only\n")


def test_goldman_oracle_takes_a_level_folded_to_zero(capsys):
    # at period 2, G[1,2,2] is the level-0 generator G[1,2,0]
    assert main(["bracket", "--alg", "dnp", "--p", "2", "--n", "3",
                 "--oracle", "goldman", "G[1,2,2]", "G[1,3,0]"]) == 0
    assert _json_lines(capsys)[0]["status"] == "pass"


def test_braid_word_action(capsys):
    assert main(["braid", "--alg", "an", "--n", "3",
                 "--word", "b12 b23 b12^-1"]) == 0
    reports = _json_lines(capsys)
    assert len(reports) == 3


def test_braid_wrap_token(capsys):
    assert main(["braid", "--alg", "dn", "--n", "3", "--word", "bn1"]) == 0
    assert _json_lines(capsys)


def test_braid_rejects_non_adjacent():
    with pytest.raises(SystemExit) as exc:
        main(["braid", "--alg", "an", "--n", "4", "--word", "b13"])
    assert exc.value.code == 2


def test_braid_multi_digit_tokens(capsys):
    # at n = 12 the generators past b9,10 need the comma form
    def run(word):
        assert main(["braid", "--alg", "dn", "--n", "12", "--word", word]) == 0
        return {r["case"]: r["left"] for r in _json_lines(capsys)}

    assert run("b12,1") == run("bn1")
    assert run("b12") == run("b1,2")
    assert run("b10,11")["Ghat[11,1]"] == "Ghat[10,1]"
    assert run("b11,12^-1")["Ghat[11,1]"] == "Ghat[12,1]"


def test_centers_output(capsys):
    assert main(["centers", "--alg", "an", "--n", "4"]) == 0
    reports = _json_lines(capsys)
    assert sum(r["case"] != "meta" for r in reports) == 2


def test_reduce_streams(capsys):
    assert main(["reduce", "--k", "2"]) == 0
    reports = _json_lines(capsys)
    assert len(reports) == 4


GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_reports.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_reports_match_their_golden_copy(command, capsys):
    # case, status and left of every report as recorded, ms aside
    assert main(shlex.split(command)) == 0
    assert [[r["case"], r["status"], r["left"]]
            for r in _json_lines(capsys)] == GOLDEN[command]


DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_large_reports_match_their_digest(command, capsys):
    # every report in full, ms aside, one sorted-key JSON line each: the
    # texts run to megabytes, so only their sha256 is pinned
    assert main(shlex.split(command)) == 0
    text = "\n".join(json.dumps({k: v for k, v in r.items() if k != "ms"},
                                sort_keys=True) for r in _json_lines(capsys))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[command]


def test_geodesic_at_point(capsys):
    assert main(["geodesic", "--n", "3", "--i", "1", "--j", "2",
                 "--at", "s1=1,s2=1,s3=1"]) == 0
    rep = _json_lines(capsys)[0]
    assert rep["left"] == "3"


def test_stokes_random_point_at_n24(capsys):
    # nondegeneracy is decided by an exact rank; a Laplace expansion over
    # every column subset of a 24 x 24 form would not finish
    t0 = time.perf_counter()
    assert main(["stokes", "--point", "random", "--n", "24"]) == 0
    assert time.perf_counter() - t0 < 2
    assert len(_json_lines(capsys)) == 24


def test_stokes_special_point(capsys):
    assert main(["stokes", "--point", "a4star"]) == 0
    reports = _json_lines(capsys)
    assert len(reports) == 4
    assert "4" in reports[0]["left"]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "geoalg.cfg"
    cfg.write_text("suite=goldman\nn=3\n")
    assert main(["--config", str(cfg), "verify"]) == 0
    reports = _json_lines(capsys)
    assert all(r["suite"] == "goldman" for r in reports)


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "missing.cfg"), "verify"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_suite_order(capsys):
    assert main(["verify", "--suite", "braid", "--n", "3"]) == 0
    reports = _json_lines(capsys)
    assert [r["case"] for r in reports] == [
        f"relations[{flavor}] n=3" for flavor in ("A", "D", "frakD")]


def test_reports_stream_in_case_order(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []

    def case(tag):
        def run():
            # the reports of all earlier cases are already written
            written.append(out.getvalue().count("\n"))
            return True, tag, ""
        return run

    jobs = [("demo", f"case {tag}", case(tag)) for tag in ("c", "a", "b")]
    assert cli._run_jobs(jobs, "json") == 0
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["case"] for r in reports] == ["case c", "case a", "case b"]
    assert written == [0, 1, 2]
    # split over two processes, the parent's cases (every other one) still
    # find the reports of all earlier cases written
    out.truncate(0)
    out.seek(0)
    written.clear()
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    tags = [str(i) for i in range(cli._MIN_SPLIT)]
    assert cli._run_jobs([("demo", t, case(t)) for t in tags], "json") == 0
    assert [json.loads(line)["left"] for line in
            out.getvalue().splitlines()] == tags
    assert written == list(range(0, cli._MIN_SPLIT, 2))


def test_invalid_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bracket", "1/0", "G[1,2,0]"],
    ["braid", "--alg", "frakdn", "--n", "3", "--cap", "1", "--word", "bn1"],
    ["geodesic", "--n", "4", "--i", "1", "--j", "3", "--at", "s1=0"],
    ["geodesic", "--i", "1", "--j", "2"],
    ["bracket", "x^40000", "G[1,2,0]"],
    ["braid", "--alg", "frakdn", "--matrix", "--n", "3", "--word", "b01"],
    ["braid", "--alg", "frakdn", "--matrix", "--n", "3", "--word", "b34"],
] + [["braid", "--alg", "dn", "--n", "12", "--word", word]
     for word in ("b1011", "b10,12", "b1,3", "b10,", "b12,1,")]
    + [["bracket", "Ghat[1,2]", "G[1,2,0]"]]
    # the wrap exchanges point n with point 1: at n = 1 there is no pair
    + [["braid", "--alg", alg, "--n", "1", "--word", "bn1"] + opt
       for alg, opt in (("dn", []), ("frakdn", []), ("frakdn", ["--matrix"]))]
    + [["reduce"],
       # the level-0 matrix has no level-1 corner entry for the wrap
       ["braid", "--alg", "an", "--n", "3", "--word", "bn1"],
       # the second wrap reads level 1 of a family certified to level 0
       ["braid", "--alg", "frakdn", "--n", "3", "--cap", "2",
        "--word", "bn1 bn1"]])
def test_input_errors_exit_2(argv, capsys):
    # a bad value, not a crash: no traceback, one `error:` line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bracket", "--alg", "dnp", "--p", "0", "G[1,2,0]", "G[1,3,1]"],
    ["stokes", "--point", "random", "--n", "0"],
    ["centers", "--alg", "an", "--n", "-1"],
    ["reduce", "--level-p", "0"],
    ["reduce", "--level-p", "-2"],
    ["reduce", "--k", "-1"],
])
def test_zero_sizes_are_rejected_not_defaulted(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # the message names the option as it was typed, and the value given
    said = re.fullmatch(r"error: (--[a-z-]+) must be at least [01], "
                        r"not (-?\d+)\n", capsys.readouterr().err)
    assert said and argv[argv.index(said[1]) + 1] == said[2]


def test_zero_sizes_from_config_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "geoalg.cfg"
    cfg.write_text("n=0\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "stokes", "--point", "random"])
    assert exc.value.code == 2


def test_explicit_zeros_are_used(capsys):
    # level 0 is an order, cap 0 a level and seed 0 a seed: none of them
    # may be swapped for a default
    assert main(["verify", "--suite", "yangian", "--n", "2",
                 "--level", "0"]) == 0
    assert _json_lines(capsys)[0]["case"] == "reflection-limit n=2 order=0"
    assert main(["braid", "--alg", "frakdn", "--n", "3", "--cap", "0",
                 "--word", "b12"]) == 0
    assert {r["case"][-3:] for r in _json_lines(capsys)} == {",0]"}
    assert main(["stokes", "--point", "random", "--n", "3",
                 "--seed", "0"]) == 0
    zero = _json_lines(capsys)
    assert main(["stokes", "--point", "random", "--n", "3"]) == 0
    assert [r["left"] for r in _json_lines(capsys)] == \
        [r["left"] for r in zero]


@pytest.mark.parametrize("seed", [2, 19])
def test_level_p_centers_take_the_generic_rank(seed, capsys):
    # one or more of the five points of (n, p) = (2, 3) has rank 2 at
    # these seeds
    assert main(["verify", "--suite", "centers", "--seed", str(seed)]) == 0
    case = [r for r in _json_lines(capsys)
            if r["case"] == "level-p centers (2,3)"][0]
    ranks = json.loads(case["left"].removeprefix("ranks "))
    assert (min(ranks), max(ranks)) == (2, 3)
    assert case["right"] == "expected rank 3"


def _unfolded_dnp_substitution(b, n, p):
    raw = braid.frakDn_substitution(b, n, p + 2)
    return {s: raw[s]
            for s in centers.generator_symbols(dn_algebra.dnp_algebra(n, p))}


def _first_vertex_reversed(graph):
    orders = graph.vertex_orders
    return fatgraph.FatGraph(graph.n, (orders[0][::-1],) + orders[1:])


# a failing pair case prints its oracle's value with its size and lowest term
_PAIR_FAILS = "goldman-vs-constants (1, 2)x(1, 3)", " terms; lowest: "


@pytest.mark.parametrize("suite,module,name,mutant,case,named", [
    pytest.param("goldman", fatgraph, "canonical_disc_graph",
                 lambda old: lambda n: _first_vertex_reversed(old(n)),
                 *_PAIR_FAILS, id="goldman pi reversed at a vertex"),
    pytest.param("goldman", fatgraph, "_DENOM", lambda old: old // 2,
                 *_PAIR_FAILS, id="goldman 1/2 for 1/4"),
    pytest.param("goldman", dn_algebra._Table, "pair",
                 lambda old: lambda table, a, b: dn_algebra._negated(
                     old(table, a, b)),
                 *_PAIR_FAILS, id="goldman right side row negated"),
    pytest.param("goldman", fatgraph, "_reduce_quadratic",
                 lambda old: lambda e, var, csum: e, "perimeter",
                 "clashed_hole_coords: False", id="clashed hole"),
    pytest.param("goldman", fatgraph, "perimeter_identity",
                 lambda old: lambda n: False, "perimeter",
                 "perimeter_identity: False", id="perimeter"),
    pytest.param("reduction", braid, "combination_transform_check",
                 lambda old: lambda n: {"ok": False}, "commuting square n=3",
                 "combination_transform_check: False",
                 id="combination transform"),
    pytest.param("reduction", reductions, "th_dn_check",
                 lambda old: lambda n: {"ok": False}, "commuting square n=3",
                 "th_dn_check: False", id="commuting square"),
    pytest.param("centers", centers, "_an_substitution",
                 lambda old: lambda b, n: {s: 2 * e
                                           for s, e in old(b, n).items()},
                 "level-0 centers n=2", "braid: invariance flags [False",
                 id="level-0 invariance"),
    pytest.param("centers", centers, "_dnp_substitution",
                 lambda old: _unfolded_dnp_substitution,
                 "level-p centers (2,2)", "braid: invariance flags [False",
                 id="level-p invariance"),
    pytest.param("frobenius", frobenius, "level_p_condition",
                 lambda old: lambda st, p: {**old(st, p),
                                            "full_period": False},
                 "all-ones tail m=2", "level_p: {'tail_power_identity': True",
                 id="all-ones level-p"),
])
def test_a_folded_check_fails_its_verify_case(suite, module, name, mutant,
                                              case, named, monkeypatch,
                                              capsys):
    # each claim check runs inside the verdict of the case that checks the
    # same object: breaking it fails that case, by its value, not a crash,
    # and the report names the half that failed (a pair case: the size and
    # lowest term of its oracle's value)
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert main(["verify", "--suite", suite]) == 1
    failed = {r["case"]: r["left"] for r in _json_lines(capsys)
              if r["status"] == "fail"}
    assert case in failed
    assert not failed[case].startswith("exception")
    assert named in failed[case], failed[case]


def test_level_p_centers_fail_a_wrong_rank():
    cs = centers.centers_Dnp(2, 3, seed=2)
    assert cli._rank_case(cs, 3)[0]
    assert not cli._rank_case(cs, 2)[0]
    assert not cli._rank_case(cs, 4)[0]


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "geoalg.cfg"
    cfg.write_text("suite=braid\nbogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_config_format_is_honoured_unless_given(tmp_path, capsys):
    cfg = tmp_path / "geoalg.cfg"
    cfg.write_text("format=text\nsuite=braid\nn=3\n")
    assert main(["--config", str(cfg), "verify"]) == 0
    assert capsys.readouterr().out.startswith("[   pass] braid::")
    assert main(["--config", str(cfg), "verify", "--format", "json"]) == 0
    assert _json_lines(capsys)[0]["suite"] == "braid"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "yangian", "--n", "3", "--level", "-1"],
    ["verify", "--suite", "jacobi", "--level", "-1"],
    ["braid", "--alg", "frakdn", "--n", "3", "--cap", "-1", "--word", "b12"],
])
def test_negative_levels_are_rejected(argv, capsys):
    # a negative series order made the reflection check vacuous
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_bracket_trace_oracle_folds_the_period(capsys):
    # the oracle's G[3,2,1] is G[2,3,1] under the period relation at p = 2
    assert main(["bracket", "--alg", "dnp", "--p", "2", "--n", "3",
                 "--oracle", "ks", "G[1,2,1]", "G[1,3,0]"]) == 0
    rep = _json_lines(capsys)[0]
    assert rep["status"] == "pass" and rep["left"] == rep["right"]


def test_bracket_trace_oracle_fails_the_wrong_period(monkeypatch, capsys):
    fold = dn_algebra.GenAlgebra.storage_form
    monkeypatch.setattr(dn_algebra.GenAlgebra, "storage_form",
                        lambda alg, e: fold(
                            dn_algebra.dnp_algebra(alg.n, alg.period + 1), e))
    assert main(["bracket", "--alg", "dnp", "--p", "2", "--n", "3",
                 "--oracle", "ks", "G[1,2,1]", "G[1,3,0]"]) == 1
    assert _json_lines(capsys)[0]["status"] == "fail"


@pytest.mark.parametrize("alg", ["an", "dn"])
@pytest.mark.parametrize("option", [["--matrix"], ["--cap", "7"]])
def test_braid_options_of_frakdn_only_exit_2(alg, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["braid", "--alg", alg, "--n", "3", "--word", "b12"] + option)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [1, 2])
def test_braid_suite_below_three_points_exit_2(n, capsys):
    # the wrap and b12 coincide there: a usage error, not failing relations
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "braid", "--n", str(n)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 3" in \
        captured.err


@pytest.mark.parametrize("argv, option", [
    (["verify", "--suite", "frobenius", "--n", "7"], "--n"),
    (["verify", "--suite", "reduction", "--seed", "1"], "--seed"),
    (["verify", "--suite", "goldman", "--level", "1"], "--level"),
    (["verify", "--suite", "ks", "--p", "2"], "--p"),
    (["verify", "--p", "2"], "--p"),
    (["bracket", "--p", "2", "G[1,2,0]", "G[1,3,0]"], "--p"),
    (["bracket", "--alg", "dnp", "--seed", "1", "G[1,2,0]", "G[1,3,0]"],
     "--seed"),
    (["braid", "--seed", "1", "--word", "b12"], "--seed"),
    (["centers", "--alg", "dn", "--p", "2"], "--p"),
    (["centers", "--alg", "an", "--seed", "1"], "--seed"),
    (["reduce", "--k", "2", "--n", "3"], "--n"),
    (["reduce", "--k", "2", "--level-p", "2"], "--level-p"),
    (["geodesic", "--n", "3", "--i", "1", "--j", "2", "--seed", "1"],
     "--seed"),
    (["stokes", "--n", "3"], "--n"),
    (["stokes", "--point", "a4star", "--seed", "1"], "--seed"),
])
def test_options_not_read_exit_2(argv, option, capsys):
    # an option the command would not read is refused, not dropped
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}")


def test_options_not_read_from_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "geoalg.cfg"
    cfg.write_text("suite=frobenius\nn=4\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "verify"])
    assert exc.value.code == 2


def test_yangian_level_without_n_is_read(capsys):
    assert main(["verify", "--suite", "yangian", "--level", "1"]) == 0
    assert [r["case"] for r in _json_lines(capsys)] == [
        "reflection-limit n=2 order=1", "reflection-limit n=3 order=1"]


def _plant_reflection_row(monkeypatch, capsys, extra):
    """The closed form of {G[1,2,0], G[1,3,1]} in dn_algebra(3) with the
    (c, x, y) terms *extra* added, and so the negated terms in that of
    {G[1,3,1], G[1,2,0]}, in tables dropped when the test ends: the two
    rows reach two reflection entries, the first ((1,2),(1,3)) at
    lam^0 mu^-1."""
    monkeypatch.setattr(dn_algebra, "_table",
                        functools.cache(dn_algebra._Table))
    alg = dn_algebra.dn_algebra(3)
    a, b = (1, 2, 0), (1, 3, 1)
    true_form = dn_algebra._structure_constant
    monkeypatch.setattr(dn_algebra, "_structure_constant", lambda *args: (
        true_form(*args) + (extra if args == (alg, a, b) else [])))
    assert main(["verify", "--suite", "yangian", "--n", "3"]) == 1
    (rep,) = _json_lines(capsys)
    return rep


def test_a_failing_reflection_report_names_its_first_mismatch(monkeypatch,
                                                             capsys):
    # the constant 1 = 1/4 * G[1,1,0]^2 added
    rep = _plant_reflection_row(monkeypatch, capsys,
                                [(Fraction(1, 4), (1, 1, 0), (1, 1, 0))])
    assert rep["left"] == ("2 mismatches of 81 entries; first ((1, 2), "
                           "(1, 3)) at lam^-0 mu^-1, lhs - rhs:")
    assert rep["right"] == "mu^-1 [1 terms; lowest: mu^-1 · 1]"


def test_a_long_reflection_residual_is_cut(monkeypatch, capsys):
    # nine products added: the residual is cut to the failing width and
    # names its lowest term
    extra = [(1, (2, 3, k), (3, 2, k2)) for k in (1, 2, 3)
             for k2 in (1, 2, 3)]
    residual = dot([(1, E(gen(*x)) * E(gen(*y)), E("mu", -1))
                    for _, x, y in extra])
    monkeypatch.setattr(cli, "_FAIL_CHARS", 80)
    rep = _plant_reflection_row(monkeypatch, capsys, extra)
    assert rep["left"] == ("2 mismatches of 81 entries; first ((1, 2), "
                           "(1, 3)) at lam^-0 mu^-1, lhs - rhs:")
    assert len(str(residual)) > 80
    assert rep["right"] == cli._cut(residual, str(residual))
    assert rep["right"].startswith(str(residual)[:80] + "…")
    assert rep["right"].endswith(
        "[9 terms; lowest: G[2,3,1]*G[3,2,1]*mu^-1 · 1]")


# -- the exit-code contract under random command lines -----------------------
# sizes run from -1 to 4, except where a command's cost grows too fast
# (levels to 1, periods to 2); `verify --suite all` is left out for its cost


def _opt(name, values):
    """Either nothing or `name value`."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


_SIZE = st.integers(-1, 4)
_LEVEL = st.integers(-1, 1)
_PERIOD = st.integers(-1, 2)
_SEED = st.integers(0, 5)
_EXPRS = ["G[1,2,0]", "G[1,3,1]", "G[2,1,2]", "G[3,3,1]", "G[1,2,0] + 1",
          "1/0", "G[1,2", "x^40000", "Ghat[1,2]"]
_TOKENS = ["b12", "b23^-1", "bn1", "b31", "b13", "b01", "bx"]
_STRAYS = [["--bogus"], ["--format", "text"], ["--level", "1"],
           ["--matrix"], ["extra"], ["--seed", "x"], ["--n"]]

_COMMANDS = st.one_of(
    st.tuples(st.just(["verify"]), _opt("--suite", st.sampled_from(cli.SUITES)),
              _opt("--n", _SIZE), _opt("--level", _LEVEL),
              _opt("--p", _PERIOD), _opt("--seed", _SEED)),
    st.tuples(st.just(["bracket"]),
              _opt("--alg", st.sampled_from(["an", "dn", "dnp"])),
              _opt("--n", _SIZE), _opt("--p", _PERIOD),
              _opt("--oracle", st.sampled_from(["ks", "goldman"])),
              st.lists(st.sampled_from(_EXPRS), min_size=2, max_size=2)),
    st.tuples(st.just(["braid"]),
              _opt("--alg", st.sampled_from(["an", "dn", "frakdn"])),
              _opt("--n", _SIZE), _opt("--cap", _SIZE),
              st.sampled_from([[], ["--matrix"]]),
              st.lists(st.sampled_from(_TOKENS), max_size=3).map(
                  lambda tokens: ["--word", " ".join(tokens)])),
    st.tuples(st.just(["centers"]),
              _opt("--alg", st.sampled_from(["an", "dn", "dnp"])),
              _opt("--n", _SIZE), _opt("--p", _PERIOD), _opt("--seed", _SEED)),
    st.tuples(st.just(["reduce"]), _opt("--k", _SIZE),
              _opt("--level-p", _SIZE), _opt("--n", _SIZE)),
    st.tuples(st.just(["geodesic"]), _opt("--n", _SIZE),
              st.tuples(_SIZE, _SIZE).map(
                  lambda ij: ["--i", str(ij[0]), "--j", str(ij[1])]),
              _opt("--at", st.sampled_from(["s1=1,t1=2", "s1=0", "s1"]))),
    st.tuples(st.just(["stokes"]),
              _opt("--point", st.sampled_from(["a3star", "a4star", "random"])),
              _opt("--n", _SIZE), _opt("--seed", _SEED)),
).map(lambda parts: sum(parts, []))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_COMMANDS, st.lists(st.sampled_from(_STRAYS), max_size=1))
# a braid suite below 3 points is a usage error (exit 2), not a failure
@example(["verify", "--suite", "braid", "--n", "2"], [])
# a reduced generator has no bracket in the G algebras (exit 2)
@example(["bracket", "Ghat[1,2]", "G[1,2,0]"], [])
# two points have one generator at level 0: no Jacobi triple (exit 2)
@example(["verify", "--suite", "jacobi", "--n", "2", "--level", "0"], [])
def test_exit_code_contract(argv, strays):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + sum(strays, []))
        except SystemExit as exc:
            code = exc.code
    # a json report line, or a text one: "[status] suite::case ..."
    statuses = [json.loads(line)["status"] if line[0] == "{"
                else line[1:8].strip()
                for line in out.getvalue().splitlines()
                if line[:1] in ("{", "[")]
    assert code in (0, 1, 2)
    assert (code == 1) == ("fail" in statuses)
    if argv[0] == "verify" and code == 0:
        assert statuses  # a pass that checked nothing is no pass


# -- split runs: forked workers give the serial run's reports ----------------


def _main_run(monkeypatch, argv, cpus):
    """Exit code and standard output of main(argv) on *cpus* CPUs, and the
    number of workers forked."""
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return (code, out.getvalue()), len(forks)


def _verify_run(monkeypatch, argv, cpus):
    """Exit code and reports, without `ms`, of main(argv) on *cpus* CPUs,
    and the number of workers forked."""
    (code, out), forks = _main_run(monkeypatch, argv, cpus)
    reports = [json.loads(line) for line in out.splitlines()]
    for rep in reports:
        del rep["ms"]
    return (code, reports), forks


def _log_pid(log):
    """Append this process's id to the file *log*, shared by the parent
    and its workers."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.write(fd, f"{os.getpid()}\n".encode())
    os.close(fd)


def _worker_pids(log):
    """The ids of the processes that wrote to *log*, checked not to
    include this one."""
    pids = set(log.read_text().split())
    assert str(os.getpid()) not in pids
    return pids


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_split_matches_serial(monkeypatch, argv, code):
    serial, forks = _verify_run(monkeypatch, argv, 1)
    assert serial[0] == code and serial[1] and forks == 0
    for cpus in (2, 3):
        split, forks = _verify_run(monkeypatch, argv, cpus)
        assert split == serial
        assert forks == (cpus - 1 if len(serial[1]) >= cli._MIN_SPLIT else 0)
    _assert_no_child()
    return serial[1]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "ks", "--n", "3", "--level", "1"],
    ["verify", "--suite", "jacobi", "--n", "3", "--level", "1"],
    ["verify", "--suite", "goldman", "--n", "5"],  # 56 cases: not split
    ["verify", "--suite", "all"],
    # 4-index level-2 patterns first appear at n = 4
    ["verify", "--suite", "ks", "--n", "4", "--level", "2"],
])
def test_split_runs_match_the_serial_run(argv, monkeypatch):
    reports = _assert_split_matches_serial(monkeypatch, argv, 0)
    if argv == ["verify", "--suite", "all"]:
        # the verdicts per suite that perfbench/oracle.py expects of it
        assert collections.Counter(r["suite"] for r in reports) == {
            "jacobi": 220, "ks": 78, "goldman": 22, "reduction": 9,
            "centers": 8, "frobenius": 5, "braid": 3, "yangian": 2}


def _ks_pairs():
    gens = dn_algebra.generator_tuples(3, 1)
    return [(a, b) for idx, a in enumerate(gens) for b in gens[idx:]]


def _ks_jobs(n, level):
    """The jobs of `verify --suite ks --n n --level level`, as cmd_verify
    builds them."""
    args = argparse.Namespace(n=n, level=level)
    return [("ks", *case) for case in cli._suite_ks(args)]


_KS = ["verify", "--suite", "ks", "--n", "3", "--level", "1"]
# the first case past the middle of _KS that a 2-way split gives to its
# worker; _plant_pair checks that a 3-way split gives it to a worker too
_WORKER_CASE = cli._owners(_ks_jobs(3, 1), 2).index(1, len(_ks_pairs()) // 2)


def test_a_ks_pattern_runs_in_one_process():
    jobs = _ks_jobs(4, 2)
    owners = cli._owners(jobs, 2)
    patterns = [set(), set()]
    for (_, _, _, key), k in zip(jobs, owners):
        patterns[k].add(key)
    assert len(jobs) == 741
    assert [owners.count(k) for k in (0, 1)] == [375, 366]
    assert not patterns[0] & patterns[1]
    assert len(patterns[0]) + len(patterns[1]) == 222
    # jobs with no key keep the stride: job i goes to process i % W
    plain = [("demo", str(i), None) for i in range(10)]
    for cpus in (1, 2, 3):
        assert cli._owners(plain, cpus) == [i % cpus for i in range(10)]


def test_a_split_ks_run_reduces_each_pattern_once(tmp_path, monkeypatch):
    # every process appends one line per oracle run to one shared file
    log = tmp_path / "runs"
    original = ks_calculus.ks_bracket_symbolic

    def counted(w1, w2):
        _log_pid(log)
        return original(w1, w2)
    monkeypatch.setattr(ks_calculus, "ks_bracket_symbolic", counted)
    argv = ["verify", "--suite", "ks", "--n", "4", "--level", "2"]
    (code, reports), forks = _verify_run(monkeypatch, argv, 2)
    assert (code, len(reports), forks) == (0, 741, 1)
    pids = log.read_text().split()
    assert len(pids) == 222 and len(set(pids)) == 2
    _assert_no_child()


def _plant_pair(monkeypatch, action):
    """Pass the ks suite's constants for one pair, the one at
    _WORKER_CASE, through *action*; return that pair."""
    assert all(cli._owners(_ks_jobs(3, 1), cpus)[_WORKER_CASE]
               for cpus in (2, 3))
    bad = _ks_pairs()[_WORKER_CASE]
    real = dn_algebra._pair_bracket

    def planted(alg, a, b):
        return action(real(alg, a, b)) if (a, b) == bad else real(alg, a, b)
    monkeypatch.setattr(dn_algebra, "_pair_bracket", planted)
    return bad


def test_a_failing_case_fails_the_split_run(monkeypatch):
    a, b = _plant_pair(monkeypatch, lambda rhs: rhs + 1)
    reports = _assert_split_matches_serial(monkeypatch, _KS, 1)
    assert [r["case"] for r in reports if r["status"] == "fail"] == [
        f"ks-vs-constants {a}x{b}"]


def test_a_usage_error_forks_nothing(monkeypatch):
    argv = ["verify", "--suite", "all", "--n", "2"]  # braid needs n >= 3
    for cpus in (1, 2):
        assert _verify_run(monkeypatch, argv, cpus) == ((2, []), 0)
    _assert_no_child()


def _worker_only(act):
    """*act*() in a worker, nothing in the process that made this."""
    parent = os.getpid()

    def run(rhs):
        if os.getpid() != parent:
            act()
        return rhs
    return run


def test_a_dead_worker_leaves_every_verdict(monkeypatch):
    serial, _ = _verify_run(monkeypatch, _KS, 1)
    _plant_pair(monkeypatch, _worker_only(lambda: os._exit(3)))
    for cpus in (2, 3):
        assert _verify_run(monkeypatch, _KS, cpus) == (serial, cpus - 1)
    _assert_no_child()


def test_a_garbled_worker_line_is_run_again_here(tmp_path, monkeypatch):
    serial, _ = _verify_run(monkeypatch, _KS, 1)
    log = tmp_path / "garbled"

    def garbled(rep):
        _log_pid(log)
        return "{garbled\n"

    def garble():  # this worker's own report lines stop parsing
        cli._json_line = garbled
    _plant_pair(monkeypatch, _worker_only(garble))
    for cpus in (2, 3):
        assert _verify_run(monkeypatch, _KS, cpus) == (serial, cpus - 1)
    assert len(_worker_pids(log)) == 2  # one worker of each run garbled
    _assert_no_child()


def test_a_line_cut_before_its_newline_is_run_again_here(tmp_path,
                                                         monkeypatch):
    # the worker dies after sending the planted case's JSON, before its
    # newline: the text parses, but the parent must not relay it
    serial, _ = _verify_run(monkeypatch, _KS, 1)
    a, b = _ks_pairs()[_WORKER_CASE]
    log = tmp_path / "cut"
    work, json_line = cli._work, cli._json_line

    def cut_work(jobs, fd, inherited):
        def cut(rep):
            line = json_line(rep)
            if rep["case"] == f"ks-vs-constants {a}x{b}":
                _log_pid(log)
                os.write(fd, line[:-1].encode())
                os._exit(0)
            return line
        cli._json_line = cut
        work(jobs, fd, inherited)
    monkeypatch.setattr(cli, "_work", cut_work)
    for cpus in (2, 3):
        assert _verify_run(monkeypatch, _KS, cpus) == (serial, cpus - 1)
    assert len(_worker_pids(log)) == 2  # one worker of each run cut
    _assert_no_child()


def test_a_split_text_run_matches_the_serial_run(monkeypatch):
    a, b = _plant_pair(monkeypatch, lambda rhs: rhs + 1)
    argv = _KS + ["--format", "text"]

    def masked(cpus):
        (code, out), forks = _main_run(monkeypatch, argv, cpus)
        return (code, re.sub(r"\([0-9.e-]+ ms\)", "(ms)", out)), forks
    serial, forks = masked(1)
    assert serial[0] == 1 and forks == 0
    assert f"[   fail] ks::ks-vs-constants {a}x{b} (ms)\n" in serial[1]
    assert serial[1].count("[   pass] ks::") == len(_ks_pairs()) - 1
    for cpus in (2, 3):
        assert masked(cpus) == (serial, cpus - 1)
    _assert_no_child()


def test_a_failed_fork_leaves_its_jobs_to_the_parent(monkeypatch):
    serial, _ = _verify_run(monkeypatch, _KS, 1)
    fork, calls = os.fork, []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()
    monkeypatch.setattr(os, "fork", second_fails)
    assert _verify_run(monkeypatch, _KS, 3) == (serial, 2)
    _assert_no_child()


class _Abort(BaseException):
    """Escapes `_run_case`, as a KeyboardInterrupt does."""


def test_an_exception_in_the_parent_kills_and_reaps_the_workers(monkeypatch):
    parent = os.getpid()

    def abort(alg, a, b):
        if os.getpid() != parent:
            time.sleep(60)  # a worker that would outlive the test
        raise _Abort
    monkeypatch.setattr(dn_algebra, "_pair_bracket", abort)
    start = time.perf_counter()
    with pytest.raises(_Abort):
        _verify_run(monkeypatch, _KS, 2)
    assert time.perf_counter() - start < 30
    _assert_no_child()


def test_a_fresh_interpreter_splits_with_blas_threads_alive(monkeypatch):
    # numpy is imported, and its BLAS pool started, before the fork
    argv = ["verify", "--suite", "jacobi", "--n", "3", "--level", "1"]
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "geoalg.cli"] + argv,
                          capture_output=True, text=True, timeout=60, env=env)
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    for rep in reports:
        del rep["ms"]
    assert (proc.returncode, reports) == _verify_run(monkeypatch, argv, 1)[0]
