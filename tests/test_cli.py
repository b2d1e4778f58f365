"""Command-line behavior: exit codes, output shapes, and determinism."""

import contextlib
import inspect
import io
import json
import os
import stat
import sys
import tempfile
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from choosability.cli import main
from choosability.construction import hard_instance
from choosability.gf import _MR_EXACT_BELOW as PSI_13
from choosability.formats import (dumps_certificate, dumps_instance, loads_certificate,
                                  loads_instance)
from choosability.solver import colorable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- construct -----------------------------------------------------------------

def test_construct_writes_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, err = run(capsys, "construct", "--q", "5", "--c", "2", "--out", str(path))
    assert code == 0 and out == "" and err == ""
    inst = loads_instance(path.read_text())
    assert (inst.n, inst.k, inst.num_colors) == (14, 5, 13)
    assert inst.meta["q"] == 5 and inst.meta["construction"] == "furedi-augmented"


def test_construct_stdout_and_text_format(capsys):
    code, out, _ = run(capsys, "construct", "--q", "3", "--c", "1")
    assert code == 0
    assert loads_instance(out).n == 10
    code, out, _ = run(capsys, "construct", "--q", "3", "--c", "1", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "10 1 3 9"


def test_construct_oversized_exits_2(capsys):
    # n*q = 4093 * (4093^2 + 1) list entries, far above the 2**22 cap
    code, out, err = run(capsys, "construct", "--q", "4093", "--c", "1")
    assert code == 2 and out == ""
    assert "4194304" in err


def test_construct_inadmissible_exits_2(capsys):
    code, out, err = run(capsys, "construct", "--q", "4", "--c", "3")
    assert code == 2 and out == ""
    assert "c < q-1" in err


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "construct", "--q", "7", "--c", "2", "--out", str(a))[0] == 0
    assert run(capsys, "construct", "--q", "7", "--c", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_files_take_mode_from_umask(tmp_path, capsys):
    inst_path, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    umask = os.umask(0o022)
    try:
        assert run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(inst_path))[0] == 0
        assert run(capsys, "solve", str(inst_path), "--out", str(cert_path))[0] == 1
    finally:
        os.umask(umask)
    assert stat.S_IMODE(inst_path.stat().st_mode) == 0o644
    assert stat.S_IMODE(cert_path.stat().st_mode) == 0o644
    # no temporary file is left beside the outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json", "inst.json"]


@pytest.mark.parametrize("target", ["missing/x.json", "dir"])
def test_failed_out_names_the_given_path(tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / target)
    code, out, err = run(capsys, "construct", "--q", "3", "--c", "1", "--out", path)
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno ") and err.endswith(f": {path!r}\n")
    assert ".tmp-" not in err
    # no temporary file is left behind
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_out_writes_into_a_fifo(tmp_path, capsys):
    expected = run(capsys, "construct", "--q", "3", "--c", "1")[1].encode()
    assert len(expected) == 227
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(fifo))[0] == 0
        assert os.read(reader, 4096) == expected
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_out_through_a_symlink_keeps_the_link(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("")
    link.symlink_to(target)
    assert run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert loads_instance(target.read_text()) == hard_instance(3, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.parametrize("via_link", [False, True])
def test_out_keeps_the_mode_of_a_replaced_file(tmp_path, capsys, via_link):
    target, link = tmp_path / "private.json", tmp_path / "link.json"
    target.write_text("old")
    target.chmod(0o600)
    link.symlink_to(target)
    umask = os.umask(0o022)
    try:
        argv = ("construct", "--q", "3", "--c", "1", "--out", str(link if via_link else target))
        assert run(capsys, *argv)[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert len(target.read_bytes()) == 227
    assert loads_instance(target.read_text()) == hard_instance(3, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "private.json"]


# path components for --out; ".." is left out so every path stays inside tmp_path
_NAME_PARTS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0/"),
            min_size=1, max_size=12).filter(lambda name: name != ".."),
    st.sampled_from(["a b", "ünïcödé", "名前", "x" * 300, "dir", "dir/sub", "missing/x",
                     ".", "file.json"]),
)


@settings(max_examples=100, deadline=2000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=st.lists(_NAME_PARTS, min_size=1, max_size=3))
def test_out_fuzzed_paths_exit_0_or_2_without_leftovers(tmp_path, parts):
    root = tempfile.mkdtemp(dir=tmp_path)  # a fresh directory per example
    os.makedirs(os.path.join(root, "dir", "sub"))
    with open(os.path.join(root, "file.json"), "w") as handle:
        handle.write("old")
    path = os.path.join(root, *parts)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["construct", "--q", "3", "--c", "1", f"--out={path}"])
    assert code in (0, 2), (path, code)
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
    assert (err.getvalue() == "") == (code == 0), (path, err.getvalue())
    assert list(tmp_path.rglob(".tmp-*")) == []


# -- solve ----------------------------------------------------------------------

def test_solve_hard_instance_exits_1_with_certificate(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    run(capsys, "construct", "--q", "5", "--c", "2", "--out", str(inst_path))
    code, out, err = run(capsys, "solve", str(inst_path), "--out", str(cert_path))
    assert code == 1 and err == ""
    cert = loads_certificate(cert_path.read_text())
    assert not cert.colorable
    s, neighborhood = cert.violator
    assert len(s) == 14 and len(neighborhood) == 13


def test_solve_colorable_instance_exits_0(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "format_version": 1, "n": 3, "c": 0, "k": 1, "num_colors": 3,
        "lists": [[0], [1], [2]], "meta": {},
    }))
    code, out, _ = run(capsys, "solve", str(inst_path))
    assert code == 0
    cert = loads_certificate(out)
    assert cert.colorable and sorted(cert.coloring) == [0, 1, 2]


def test_solve_truncated_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version":1,"n":3,')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "not valid JSON" in err


def test_solve_deeply_nested_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2 and out == "" and "too deep" in err


def test_solve_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text('{"format_version":1,"n":' + "1" * 4301
                   + ',"c":0,"k":0,"num_colors":0,"lists":[]}')
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "set_int_max_str_digits" not in err


def write_huge_color_instance(path):
    """64 one-color lists with color ids from 2**61, all distinct: a valid,
    colorable (1,0)-instance whose ids are far too large to index by."""
    path.write_text(json.dumps({
        "format_version": 1, "n": 64, "c": 0, "k": 1, "num_colors": 2 ** 61 + 64,
        "lists": [[2 ** 61 + v] for v in range(64)], "meta": {},
    }))


def test_solve_huge_color_ids_exits_0(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_huge_color_instance(inst_path)
    code, out, err = run(capsys, "solve", str(inst_path))
    assert code == 0 and err == ""
    assert loads_certificate(out).coloring == tuple(2 ** 61 + v for v in range(64))


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 2 and err != ""


# -- bounds ------------------------------------------------------------------------

def test_bounds_single_n(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "14", "--c", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"n": 14, "c": 2, "lower": 6, "lower_provenance": "constructive",
                     "upper": 6, "upper_provenance": "hall-threshold", "exact": 6,
                     "ktv": rows[0]["ktv"]}]
    assert rows[0]["ktv"][0] == pytest.approx(3.7416573867739413)


def test_bounds_range_text_table(capsys):
    code, out, _ = run(capsys, "bounds", "--range", "10..15", "--c", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # header + six rows
    for line in lines[1:]:
        assert line.split()[2] == "4" and "4" in line  # exact 4 everywhere


def test_bounds_blank_exact_column(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "13", "--c", "2")
    row = out.splitlines()[1]
    # columns: n c lower lower_prov upper upper_prov exact ktv-low ktv-high
    fields = row.split()
    assert fields[2] == "4" and fields[4] == "6" and fields[6] == "-"


@pytest.mark.parametrize("bad_range", ["15..10", "abc", "1..", "0..5", "1..100001"])
def test_bounds_invalid_range_exits_2(capsys, bad_range):
    code, out, err = run(capsys, "bounds", "--range", bad_range, "--c", "1")
    assert code == 2 and out == "" and err != ""


def test_bounds_huge_n_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--n", str(10 ** 400), "--c", "1")
    assert code == 2 and out == "" and err != ""


def test_bounds_refusal_repeats_in_one_process(capsys):
    first = run(capsys, "bounds", "--n", str(10 ** 50), "--c", "1")
    assert first[0] == 2 and first[1] == "" and "is_prime" in first[2]
    assert run(capsys, "bounds", "--n", str(10 ** 50), "--c", "1") == first


def test_bounds_refusal_inside_a_range_exits_2(capsys):
    # (psi_13 - 1)**2 + 1 is the first n at c = 1 whose window search reaches psi_13;
    # every row is built before any prints, so the rows before it print nothing
    first = (PSI_13 - 1) ** 2 + 1
    refused = run(capsys, "bounds", "--n", str(first), "--c", "1")
    assert refused[0] == 2 and refused[1] == "" and "is_prime" in refused[2]
    for fmt in ([], ["--json"]):
        argv = ["bounds", "--range", f"{first - 3}..{first + 3}", "--c", "1", *fmt]
        assert run(capsys, *argv) == refused
        argv[2] = f"{first - 3}..{first - 1}"
        assert run(capsys, *argv)[0] == 0


def test_bounds_refusal_at_the_largest_window_candidate_exits_2(capsys):
    # n = 4c + 6 at c = (psi_13 + 1) / 2, whose window's largest candidate is psi_13 + 2
    c = (PSI_13 + 1) // 2
    code, out, err = run(capsys, "bounds", "--n", str(4 * c + 6), "--c", str(c))
    assert code == 2 and out == ""
    assert f"is_prime is exact only below {PSI_13}, got {PSI_13 + 2}" in err


def test_bounds_reference_interval_overflow_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--n", "5", "--c", str(10 ** 400))
    assert code == 2 and out == ""
    assert "n=5" in err and f"c={10 ** 400}" in err and "float" in err


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_bounds_infinite_reference_interval_exits_2(capsys, fmt):
    # c*n/2 fits a float but 2*e*c*n does not, and JSON has no Infinity
    code, out, err = run(capsys, "bounds", "--n", "1", "--c", str(10 ** 308), *fmt)
    assert code == 2 and out == ""
    assert "float" in err


# small values drawn often: with c near 10**308 / n they reach the float edge
_WIDE = st.integers(-5, 64) | st.integers(-5, 10 ** 420)


@st.composite
def _bounds_argv(draw):
    """`bounds ... --json` with n and c anywhere in [-5, 10**420], or with
    c*n near the end of the float range or near psi_13**2, where the
    prime searches start to refuse."""
    n, c = draw(_WIDE), draw(_WIDE)
    if draw(st.booleans()):
        edge = draw(st.sampled_from([10 ** 308, 2 ** 1025, PSI_13 ** 2]))
        n = edge // max(c, 1) + draw(st.integers(-3, 3))
        if draw(st.booleans()):
            n, c = c, n
    if draw(st.booleans()):
        return ["bounds", "--n", str(n), "--c", str(c), "--json"]
    return ["bounds", "--range", f"{n}..{n + draw(st.integers(0, 3))}", "--c", str(c), "--json"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=2000, database=None)
@given(_bounds_argv())
def test_bounds_fuzz_exits_0_with_strict_json_or_2_with_nothing(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue() != ""
    else:
        rows = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert [row["n"] for row in rows] == list(range(rows[0]["n"], rows[-1]["n"] + 1))


def test_bounds_large_n_within_primality_range(capsys):
    code, out, _ = run(capsys, "bounds", "--n", str(10 ** 40), "--c", "3", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert 1 <= row["lower"] <= row["upper"] <= 10 ** 40
    # the lower-bound search would start past psi_13, where is_prime refuses
    code, out, err = run(capsys, "bounds", "--n", str(10 ** 60), "--c", "3", "--json")
    assert code == 2 and out == "" and "is_prime" in err


# -- exact and probe ------------------------------------------------------------------

def test_exact_json(capsys):
    code, out, _ = run(capsys, "exact", "--n", "3", "--c", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "c": 1, "chi_l": 2,
                       "defeated_by": [[0], [0], [0]],
                       "assignments_checked": payload["assignments_checked"]}


def test_exact_cap_refusal_and_env_override(capsys, monkeypatch):
    code, _, err = run(capsys, "exact", "--n", "5", "--c", "1")
    assert code == 2 and "cap 14" in err
    assert "CHOOSABILITY_SEARCH_CAP" in err
    monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", "15")
    code, out, _ = run(capsys, "exact", "--n", "5", "--c", "1", "--json")
    assert code == 0 and json.loads(out)["chi_l"] == 3


@pytest.mark.parametrize("n", [9, 14])
def test_exact_beyond_eight_vertices(capsys, n):
    # c = 0 forces disjoint lists, so the one canonical 1-assignment colors
    code, out, _ = run(capsys, "exact", "--n", str(n), "--c", "0", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["chi_l"] == 1 and payload["assignments_checked"] == 1


def test_exact_huge_n_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "exact", "--n", "1000000", "--c", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "CHOOSABILITY_SEARCH_CAP" in err


def test_exact_deeper_than_recursion_limit_answers(capsys, monkeypatch):
    # the oracle searches on explicit frames, so a lowered recursion limit
    # leaves a 300-vertex search bounded only by the cap
    monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", "1000")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code, out, err = run(capsys, "exact", "--n", "300", "--c", "0")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and err == ""
    assert out == "chi_l(K_300, c=0) = 1\nassignments checked: 1\n"


def test_probe_text_and_json(capsys):
    code, out, _ = run(capsys, "probe", "--nmax", "3", "--c", "1")
    assert code == 0 and "no counterexample" in out
    code, out, _ = run(capsys, "probe", "--nmax", "3", "--c", "1", "--json")
    payload = json.loads(out)
    assert payload["counterexample"] is None
    assert payload["complete_values"] == {"1": 1, "2": 2, "3": 2}


def test_probe_over_cap_exits_2(capsys):
    code, _, err = run(capsys, "probe", "--nmax", "6", "--c", "1")
    assert code == 2 and "n_max" in err
    # raising the search cap would not help here, so the variable is not named
    assert "CHOOSABILITY_SEARCH_CAP" not in err
    # within n_max <= 5 the search cap refuses K_5 at k = 3, and it can be raised
    code, out, err = run(capsys, "probe", "--nmax", "5", "--c", "1")
    assert code == 2 and out == ""
    assert "cap 14" in err and "CHOOSABILITY_SEARCH_CAP" in err


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _small_or_huge(draw, lo, hi):
    """An integer in [lo, hi], or one time in four +-10**k +- 3 with k in
    {6, 18, 25, 308, 400}."""
    if draw(st.integers(0, 3)):
        return draw(st.integers(lo, hi))
    return (draw(st.sampled_from([1, -1])) * 10 ** draw(st.sampled_from([6, 18, 25, 308, 400]))
            + draw(st.integers(-3, 3)))


@st.composite
def _oracle_and_construct_argv(draw):
    """`construct`, `exact` or `probe` with small or huge arguments, and a
    search cap that is unset, not an integer, or at most 14 (at 15,
    `probe --nmax 5 --c 1` searches for about a minute and a half)."""
    command = draw(st.sampled_from(["construct", "exact", "probe"]))
    if command == "construct":
        q, c = _small_or_huge(draw, -5, 40), _small_or_huge(draw, -5, 40)
        argv = ["construct", "--q", str(q), "--c", str(c)]
        tail = ["--format", "text"]
    else:
        n, c = _small_or_huge(draw, -5, 16), _small_or_huge(draw, -5, 16)
        argv = [command, "--n" if command == "exact" else "--nmax", str(n), "--c", str(c)]
        tail = ["--json"]
    if draw(st.booleans()):
        argv += tail
    cap = draw(st.none()
               | st.text(alphabet="0123456789abex+-_. ", max_size=5).filter(_not_an_int)
               | st.integers(-5, 14).map(str))
    return argv, cap


@settings(max_examples=200, deadline=2000, database=None)
@given(_oracle_and_construct_argv())
def test_construct_exact_probe_fuzz_exit_0_or_2_with_strict_json(argv_cap):
    argv, cap = argv_cap
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("CHOOSABILITY_SEARCH_CAP", None)
        if cap is not None:
            os.environ["CHOOSABILITY_SEARCH_CAP"] = cap
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, cap, code)  # none of these commands exits 1
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (argv, cap)
    elif "--json" in argv or (argv[0] == "construct" and "text" not in argv):
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


@pytest.mark.parametrize("argv, cap, reason", [
    (["bounds", "--n", "0", "--c", "1"], None, "got n=0, c=1"),
    (["bounds", "--n", "5", "--c", "0"], None, "got n=5, c=0"),
    (["exact", "--n", "0", "--c", "1"], None, "got n=0, c=1"),
    (["exact", "--n", "3", "--c", "-1"], None, "got n=3, c=-1"),
    (["probe", "--nmax", "0", "--c", "1"], None, "got n_max=0, c=1"),
    (["probe", "--nmax", "3", "--c", "-1"], None, "got n_max=3, c=-1"),
    (["exact", "--n", "3", "--c", "1"], "abc", "CHOOSABILITY_SEARCH_CAP must be an integer"),
])
def test_out_of_range_arguments_exit_2(capsys, monkeypatch, argv, cap, reason):
    if cap is not None:
        monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", cap)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


# -- verify ------------------------------------------------------------------------------

def test_verify_valid_instance_and_certificate(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(inst_path))
    run(capsys, "solve", str(inst_path), "--out", str(cert_path))
    code, out, _ = run(capsys, "verify", str(inst_path), str(cert_path))
    assert code == 0
    assert "valid (3,1)-assignment" in out and "certificate consistent" in out


def test_verify_overlap_violation_reports_pair(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "format_version": 1, "n": 2, "c": 2, "k": 3, "num_colors": 4,
        "lists": [[0, 1, 2], [0, 1, 2]], "meta": {},
    }))
    code, out, _ = run(capsys, "verify", str(inst_path))
    assert code == 2
    assert "lists[0] and lists[1] overlap in 3 > 2" in out


def test_verify_short_list_is_refused_by_the_loader(tmp_path, capsys):
    # the loader refuses a list of the wrong size before validity is checked
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "format_version": 1, "n": 2, "c": 1, "k": 2, "num_colors": 3,
        "lists": [[0, 1], [2]], "meta": {},
    }))
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "verify", str(inst_path), *flags)
        assert code == 2 and out == ""
        assert err == "error: lists[1] has 1 colors, expected k=2\n"


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(inst_path))
    run(capsys, "solve", str(inst_path), "--out", str(cert_path))
    tampered = json.loads(cert_path.read_text())
    tampered["violator_S"] = tampered["violator_S"][:-1]
    cert_path.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, "verify", str(inst_path), str(cert_path), "--json")
    assert code == 2
    assert json.loads(out)["certificate_consistent"] is False


def test_verify_huge_color_ids_exits_0(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_huge_color_instance(inst_path)
    code, out, err = run(capsys, "verify", str(inst_path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["valid"] is True


def test_verify_huge_cap_exits_0(tmp_path, capsys):
    # a cap of 10**18 must not size the overlap counter
    inst_path = tmp_path / "inst.json"
    run(capsys, "construct", "--q", "3", "--c", "1", "--out", str(inst_path))
    instance = json.loads(inst_path.read_text())
    inst_path.write_text(json.dumps(instance | {"c": 10 ** 18}))
    code, out, err = run(capsys, "verify", str(inst_path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["valid"] is True


# -- loader fuzz -------------------------------------------------------------------

def _loader_bases():
    """(instance, certificate) JSON objects for the q=3, c=1 hard instance
    with its Hall violator, and for its first nine lists with a coloring."""
    hard = hard_instance(3, 1)
    return [(json.loads(dumps_instance(inst)), json.loads(dumps_certificate(colorable(inst))))
            for inst in (hard, replace(hard, lists=hard.lists[:-1], meta=None))]


# raw integer literals at and one past the interpreter's digit limit: json.dumps
# refuses to write the longer, so the fuzz dumps a name and splices the digits in
_LITERALS = {"<4300 digits>": "9" * 4300, "<4301 digits>": "9" * 4301}
_JUNK = (st.none() | st.booleans() | st.floats() | st.integers(-2, 12)
         | st.integers(-10 ** 400, 10 ** 400) | st.text(max_size=3)
         | st.lists(st.lists(st.integers(-1, 12), max_size=3), max_size=3)
         | st.sampled_from(sorted(_LITERALS)))


@st.composite
def _mutated(draw, doc):
    """A copy of `doc` with one to three mutations: a field or an array
    entry, at any depth, deleted or replaced by junk. The walk steps into an
    array three times in four, so entries deep in `lists` are reached often."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], list) and parent[key] and draw(st.integers(0, 3)):
            parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return doc


@settings(max_examples=200, deadline=2000, database=None)
@given(st.sampled_from(_loader_bases()).flatmap(lambda pair: st.one_of(
    st.tuples(_mutated(pair[0]), st.just(pair[1])),
    st.tuples(st.just(pair[0]), _mutated(pair[1])),
    st.tuples(_mutated(pair[0]), _mutated(pair[1])))))
def test_loader_fuzz_exits_0_1_or_2_with_strict_json(docs):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, cert_path = os.path.join(tmp, "inst.json"), os.path.join(tmp, "cert.json")
        for path, doc in ((inst_path, docs[0]), (cert_path, docs[1])):
            text = json.dumps(doc)
            for name, digits in _LITERALS.items():
                text = text.replace(json.dumps(name), digits)
            with open(path, "w") as handle:
                handle.write(text)
        for argv in (["solve", inst_path], ["verify", inst_path, cert_path],
                     ["verify", inst_path, cert_path, "--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            if err.getvalue():  # an error exits 2 and writes nothing to stdout
                assert code == 2 and out.getvalue() == "", argv
                continue
            # without an error only a failed verify check exits 2, with its report
            assert code != 2 or argv[0] == "verify", argv
            if argv[0] == "solve" or "--json" in argv:
                json.loads(out.getvalue(), parse_constant=_refuse_constant)


def test_solve_output_is_deterministic(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(capsys, "construct", "--q", "5", "--c", "2", "--out", str(inst_path))
    first = run(capsys, "solve", str(inst_path))
    second = run(capsys, "solve", str(inst_path))
    assert first == second


def test_usage_error_exits_2(capsys):
    assert main(["bounds", "--c", "1"]) == 2  # neither --n nor --range
    capsys.readouterr()
