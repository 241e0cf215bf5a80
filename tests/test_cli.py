"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8jac import REGISTRY, JacobiQExpansion, build, theta_e8
from e8jac.cli import main, _SUITES, _parser
from e8jac.e8 import BUDGET_ENV


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# expand


def test_expand_text_first_line(capsys):
    code, out, _ = run(capsys, "expand", "--form", "phi_-4_2", "--order", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q^0: 2Σ_2 − Σ_4 − 240"
    assert len(lines) == 2 and lines[1].startswith("q^1: ")


def test_expand_json_round_trip(capsys):
    code, out, _ = run(capsys, "expand", "--form", "phi_-4_2", "--order", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "phi_-4_2"
    assert JacobiQExpansion.from_json(payload["form"]) == build("phi_-4_2", 1)


def test_expand_json_is_byte_stable(capsys):
    _, first, _ = run(capsys, "expand", "--form", "x2", "--order", "2",
                      "--format", "json")
    _, second, _ = run(capsys, "expand", "--form", "x2", "--order", "2",
                       "--format", "json")
    assert first == second


def test_expand_unknown_form(capsys):
    code, out, err = run(capsys, "expand", "--form", "nosuchform")
    assert code == 2 and out == ""
    # the KeyError's message itself, not its repr in quotes
    known = ", ".join(sorted(REGISTRY))
    assert err.splitlines() == [
        f"error: unknown form name 'nosuchform'; registry holds: {known}"]


@pytest.mark.parametrize(
    "name", sorted(n for n, e in REGISTRY.items() if e.buildable))
def test_expand_negative_order_is_a_usage_error(capsys, name):
    code, out, err = run(capsys, "expand", "--form", name, "--order", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: order must be >= 0, got -1"]


# ---------------------------------------------------------------------------
# lattice and table commands


def test_orbits_text(capsys):
    code, out, _ = run(capsys, "orbits", "--norm", "4")
    assert code == 0
    assert out.splitlines() == [
        "Σ_4: fw=(1, 0, 0, 0, 0, 0, 0, 0) size=2160",
        "total 2160",
    ]


def test_orbits_json_two_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "--norm", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 17520
    assert sorted(r["size"] for r in payload["orbits"]) == [240, 17280]


def test_coset_minima(capsys):
    code, out, _ = run(capsys, "coset-minima", "--t", "3")
    assert code == 0
    assert out.strip() == "8"


def test_coset_minima_budget(capsys):
    code, _, err = run(capsys, "--budget", "1000", "coset-minima", "--t", "20")
    assert code == 2
    assert "budget" in err


def test_shell_budget(capsys):
    # the shell's alcove walk is bounded too: alcove(10) has 135 points
    code, _, err = run(capsys, "--budget", "100", "orbits", "--norm", "60")
    assert code == 2
    assert "budget" in err


def test_rank_budget(capsys):
    code, out, err = run(capsys, "--budget", "100", "rank", "--max", "1000")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]


def test_certification_failure_exits_3(capsys, monkeypatch, cold_memos):
    import e8jac.e8 as e8

    full = e8.alcove

    def alcove(t):
        rows = full(t)
        return rows[(rows * rows).sum(axis=1) != 32]  # drop the norm-8 rows

    monkeypatch.setattr(e8, "alcove", alcove)
    code, out, err = run(capsys, "orbits", "--norm", "8")
    assert code == 3
    assert out == ""
    assert err.startswith("error: shell 8") and err.count("\n") == 1


def test_catalog_certification_failure_exits_3(capsys, monkeypatch, cold_memos):
    # a builder that returns the wrong form breaks the builder contract,
    # which is a failed certification, not a usage error
    import e8jac.catalog as catalog

    monkeypatch.setitem(REGISTRY, "x4", replace(REGISTRY["x4"], builder=theta_e8))
    code, out, err = run(capsys, "expand", "--form", "x4")
    assert code == 3
    assert out == ""
    assert err == "error: builder contract broken for x4\n"


def test_rank_text(capsys):
    code, out, _ = run(capsys, "rank", "--max", "6")
    assert code == 0
    assert out.strip() == "1 3 5 10 15 27"


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4: 1"
    assert lines[1].startswith("6: 0  (")
    assert lines[2] == "8: 1"


def test_bounds_out_of_range(capsys):
    code, _, err = run(capsys, "bounds", "--max", "44")
    assert code == 2
    assert "error:" in err


def test_pullback_max(capsys):
    code, out, _ = run(capsys, "pullback-max")
    assert code == 0
    assert out.splitlines()[0] == "Σ_2: 2"


def test_solve_cascade_text(capsys):
    code, out, _ = run(capsys, "solve-cascade", "--t", "2", "--w0", "-4",
                       "--norms", "0,2,4")
    assert code == 0
    assert out.strip() == "nullspace: 1 -2 1"


def test_solve_cascade_trivial(capsys):
    code, out, _ = run(capsys, "solve-cascade", "--t", "3", "--w0", "-6",
                       "--norms", "0,2,4,6")
    assert code == 0
    assert out.strip() == "nullspace: trivial"


@pytest.mark.parametrize("norms,item", [("0,,2", "''"), ("0,2,x4", "'x4'")])
def test_solve_cascade_bad_norms_item_is_one_usage_error(capsys, norms, item):
    code, out, err = run(capsys, "solve-cascade", "--t", "3", "--w0", "-8",
                         "--norms", norms)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --norms item {item} is not an integer"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(("expand", "--form", "phi_-16_4", "--order", "19"),
                 "theta quotient would form 2008087 product rows, "
                 "over element budget 2000000", id="order-19"),
    pytest.param(("--budget", "1000", "expand", "--form", "phi_-16_4",
                  "--order", "2"),
                 "theta quotient would form 1068 product rows, "
                 "over element budget 1000", id="small-budget"),
    pytest.param(("expand", "--form", "phi_-16_4", "--order", "5000"),
                 "theta-quotient seed exponent outside the byte range [-128, 127]",
                 id="byte-range"),
])
def test_theta_quotient_past_the_budget_is_one_usage_error(capsys, monkeypatch,
                                                           cold_memos, argv, message):
    # every product row of the theta quotient is charged against the budget,
    # and an order whose seed exponents leave the byte range fails at once
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_theta_quotient_past_order_18_builds_under_a_larger_budget(capsys, cold_memos):
    # order 19 is past the default budget (the order-19 case above)
    code, out, err = run(capsys, "--budget", "2100000", "expand", "--form",
                         "phi_-16_4", "--order", "19")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 20


# ---------------------------------------------------------------------------
# verify


def test_verify_systems_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "systems")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("ok  ") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_verify_properties_is_exhaustive(capsys):
    # every checkable quasi-periodicity triple: K per form, 37,348 in all
    code, out, _ = run(capsys, "verify", "--suite", "properties",
                       "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "properties: quasi-periodicity x2 (604 checks)" in names
    counts = [int(n.rsplit("(", 1)[1].split()[0]) for n in names if "checks)" in n]
    assert len(counts) == 46 and sum(counts) == 37348


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setitem(_SUITES, "bounds",
                        lambda: [("forced failure", False, "injected")])
    code, out, _ = run(capsys, "verify", "--suite", "bounds")
    assert code == 1
    assert "FAIL forced failure — injected" in out


def test_index_suites_check_every_pin_once():
    pins = sorted(f"index{e.index}: {name} q^{n}"
                  for name, e in REGISTRY.items() for n, _ in e.pins)
    checks = [(nm, ok) for suite in ("index2", "index3", "index4")
              for nm, ok, _ in _SUITES[suite]()]
    assert all(ok for _, ok in checks)
    names = sorted(nm for nm, _ in checks if not nm.endswith(" cancelled"))
    assert names == pins
    assert len(pins) == 38 and len(checks) == 43


def test_index_suite_reports_a_wrong_pin(capsys, monkeypatch):
    entry = REGISTRY["phi_0_2"]
    monkeypatch.setitem(REGISTRY, "phi_0_2",
                        replace(entry, pins=((0, "Σ_2 + 121"),)))
    code, out, _ = run(capsys, "verify", "--suite", "index2")
    assert code == 1
    assert "FAIL index2: phi_0_2 q^0 — got 'Σ_2 + 120'" in out


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: argument --suite: invalid choice: 'nonsense'")


# ---------------------------------------------------------------------------
# every command prints through main: sha256 of stdout, pinned per format

_OUTPUT_SHA256 = {
    "expand --form phi_-4_2 --order 3": (
        "71c7f9e8f31ac2bc35ae982658c9ff00ca96bd306e3d0d56580e3bf73e5feab1",
        "4d99c62eae23353f6d3cf27a4722d9b449b5ed8fa44544c6045ed428e2924793"),
    "expand --form b2": (
        "51ee50977c122c8b7fb9db9395e89b2175d42185409ce8e963bc35e5df1858bd",
        "6b3b2d6b5a90af12e8b7bdc5dfa63ac8cb30b6c98460d37f5c5758fbc3daaeab"),
    "orbits --norm 8": (
        "dc0cfe070d9591d4557902783e92a935b216026d31b733e3f44b399bbd554a35",
        "c502e61fd393a849be91ec401f1d1a1a483cdca7e13f994e008e9e7c57354d36"),
    "coset-minima --t 5": (
        "f14b4987904bcb5814e4459a057ed4d20f58a633152288a761214dcd28780b56",
        "62ac228a0fdd2c760bfc9ce3d6999660e3634b0d8b66f60be3cecbb30f54a9a1"),
    "rank --max 14": (
        "959a1f2213e005dad5d9304d474cba600faf5d2125f065eac577b41a6957f186",
        "1129c786046d4f805276ca5b6446b89c89d8dd42b831cb1136d47124013a5c02"),
    "bounds --max 40": (
        "4678e1c367ec3897d3445a281fbefa27b65db0ea1f0b29e198c52dfd4b91abfe",
        "b5c1b6c761248a7b6efe499378f48c250062e0f5459145d5f788e112ef6ab7c6"),
    "pullback-max": (
        "a130edb7ec4ba357a110b354982e36326a07122ccc3eabab7fc48e2654190fb8",
        "0dd2e11bb9fce9143f24d717585e7bc628b0ff35a3ddc5feb5f713cb30a85afb"),
    "solve-cascade --t 3 --w0 -8 --norms 0,2,4,6,8": (
        "248b71a6ed079df85d6c4123bc828c32e2f4f2316f2526e6091e997311913248",
        "4091682870bf57c401fa37a87d19df2c3b2860a6f94b19ebce5759f36055633e"),
    "solve-cascade --t 3 --w0 -10 --norms 0,2,4,6,8": (
        "25ef397e042dd9978c7dc0eb1343342df06b64753339e548ab480e6e3776b6f0",
        "7fc8650248ee8552e394592d88029becb99283685ad423f32aa7ca3b7d5e16cf"),
    "verify --suite all": (
        "476102183f850dbf15ed5362f07810fa7dc63559c79824aea130d195ea0baf83",
        "acd2a107d22c999ac0e0658bd8dac874d3dd2f4e1437291dd0b171985b991329"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(_OUTPUT_SHA256))
def test_command_output_is_byte_identical(capsys, monkeypatch, command, fmt):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert code == 0, err
    want = _OUTPUT_SHA256[command][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == want


# ---------------------------------------------------------------------------
# global flags


def test_budget_flag_sets_environment(capsys, monkeypatch):
    # the flag holds for the duration of its own call, then the previous
    # value comes back
    import e8jac.cli as cli

    seen = []

    def rank_series(t_max):
        seen.append(os.environ[BUDGET_ENV])
        return list(range(t_max + 1))

    monkeypatch.setattr(cli, "rank_series", rank_series)
    monkeypatch.setenv(BUDGET_ENV, "2000000")
    code, _, _ = run(capsys, "--budget", "3000000", "rank", "--max", "3")
    assert code == 0
    assert seen == ["3000000"]
    assert os.environ[BUDGET_ENV] == "2000000"


def test_budget_flag_does_not_leak_into_later_calls(capsys, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    code, _, _ = run(capsys, "--budget", "100", "rank", "--max", "2")
    assert code == 0
    assert BUDGET_ENV not in os.environ
    code, _, err = run(capsys, "expand", "--form", "phi_-4_2", "--order", "1")
    assert code == 0, err


def test_parser_is_built_once():
    assert _parser() is _parser()


def test_closed_stdout_is_one_error_line():
    # the read end is closed before the child starts, so its first write
    # to stdout meets a broken pipe
    src = os.path.dirname(os.path.dirname(main.__code__.co_filename))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(BUDGET_ENV, None)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "e8jac.cli", "rank", "--max", "3"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_broken_pipe_leaks_no_file_descriptor(monkeypatch):
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd")
    before = len(os.listdir(fd_dir))
    for _ in range(3):
        r, w = os.pipe()
        os.close(r)
        with open(w, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["rank", "--max", "3"]) == 2
            monkeypatch.undo()
        assert len(os.listdir(fd_dir)) == before


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: command\n"


# ---------------------------------------------------------------------------
# budget settings


def test_negative_budget_flag_is_one_usage_error(capsys):
    code, out, err = run(capsys, "--budget", "-5", "rank", "--max", "3")
    assert (code, out) == (2, "")
    assert err == ("error: budget argument (--budget) must be a positive "
                   "integer, got -5\n")


def test_non_integer_budget_flag_is_one_usage_error(capsys):
    code, out, err = run(capsys, "--budget", "abc", "rank", "--max", "3")
    assert (code, out) == (2, "")
    assert err == "error: argument --budget: invalid int value: 'abc'\n"


@pytest.mark.parametrize("bad", ["abc", "-5", "0"])
def test_bad_budget_environment_is_one_usage_error(capsys, monkeypatch, bad):
    # pullback-max enumerates nothing, so only the up-front check reads it
    monkeypatch.setenv(BUDGET_ENV, bad)
    code, out, err = run(capsys, "pullback-max")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {BUDGET_ENV} must be a positive integer")
    assert os.environ[BUDGET_ENV] == bad


def test_budget_flag_overrides_a_bad_environment(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "abc")
    code, out, _ = run(capsys, "--budget", "100", "rank", "--max", "3")
    assert (code, out) == (0, "1 3 5\n")
    assert os.environ[BUDGET_ENV] == "abc"


# ---------------------------------------------------------------------------
# fuzzing the argument surface (verify is left out: a suite takes seconds)

_NUM = st.integers(min_value=-3, max_value=12).map(str)


def _options(*pairs):
    """A strategy for the option tokens: each (flag, values, required) pair
    is present (always if required), and the options come in any order."""
    parts = []
    for flag, values, required in pairs:
        opt = values.map(lambda v, flag=flag: [flag, v])
        parts.append(opt.map(lambda o: [o]) if required
                     else st.lists(opt, max_size=1))
    return st.tuples(*parts).map(lambda groups: [o for g in groups for o in g]) \
        .flatmap(st.permutations).map(lambda opts: [t for o in opts for t in o])


_FORMS = st.sampled_from(sorted(REGISTRY) + ["nosuchform"])
_FMT = st.sampled_from(["text", "json"])
_COMMANDS = st.one_of(
    _options(("--form", _FORMS, True), ("--order", _NUM, False),
             ("--format", _FMT, False)).map(lambda o: ["expand"] + o),
    _options(("--norm", _NUM, True), ("--format", _FMT, False))
    .map(lambda o: ["orbits"] + o),
    _options(("--t", _NUM, True), ("--format", _FMT, False))
    .map(lambda o: ["coset-minima"] + o),
    _options(("--max", _NUM, False), ("--format", _FMT, False))
    .map(lambda o: ["rank"] + o),
    _options(("--max", _NUM, False), ("--format", _FMT, False))
    .map(lambda o: ["bounds"] + o),
    _options(("--format", _FMT, False)).map(lambda o: ["pullback-max"] + o),
    _options(("--t", _NUM, True), ("--w0", _NUM, True),
             ("--norms", st.lists(_NUM, max_size=5).map(",".join), True),
             ("--format", _FMT, False)).map(lambda o: ["solve-cascade"] + o),
)
_MALFORMED = st.sampled_from([
    "--bogus", "abc", "", "-", "--", "--order", "--format", "xml", "1.5",
    "--budget", "=", "frobnicate", "0,,2", "--norms", "-1e3", "Σ_2",
])


@st.composite
def _argv(draw):
    argv = ["--budget", str(draw(st.integers(min_value=-3, max_value=10**4)))]
    argv += draw(_COMMANDS)
    # most command lines are well formed; some carry one or two bad tokens
    count = draw(st.sampled_from([0, 0, 0, 1, 2]))
    for token in draw(st.lists(_MALFORMED, min_size=count, max_size=count)):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), token)
    return argv


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_fuzzed_command_lines_exit_with_one_error_line_at_most(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    if code:
        assert err.getvalue().startswith("error: "), argv
    if code in (2, 3):
        assert out.getvalue() == "", argv
    if code == 0 and _parser().parse_args(argv).format == "json":
        (line,) = out.getvalue().splitlines()
        json.loads(line)
