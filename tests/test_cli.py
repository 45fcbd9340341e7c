import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from foursq import cli, forms, search, symbolic, verify_four
from foursq.certify import Certificate
from foursq.cli import INDEX_CAP, main

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_first_rows(capsys):
    code, out, _ = run_cli(capsys, "gen", "0", "1", "main", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "gen"
    rows = doc["payload"]["records"]
    assert [(r["a"], r["b"], r["c"]) for r in rows] == [
        ("5", "7", "24"), ("40", "2387", "3045")]
    assert rows[0]["certificate"] == {"ab": "6", "ac": "11", "bc": "13", "abc": "29"}
    assert all(r["admissible"] for r in rows)


def test_gen_json_round_trips_through_verify(capsys):
    code, out, _ = run_cli(capsys, "gen", "-4", "4", "both", "--format", "json")
    assert code == 0
    rows = json.loads(out)["payload"]["records"]
    for rec in rows:
        if not rec["admissible"]:
            continue
        code, _, _ = run_cli(capsys, "verify", rec["a"], rec["b"], rec["c"])
        assert code == 0


def test_gen_negative_index_flagged(capsys):
    code, out, _ = run_cli(capsys, "gen", "-1", "-1", "main", "--format", "json")
    assert code == 0
    rec = json.loads(out)["payload"]["records"][0]
    assert rec["admissible"] is False
    assert (rec["a"], rec["b"], rec["c"]) == ("8", "1", "15")


def test_gen_closing_example_row(capsys):
    code, out, _ = run_cli(capsys, "gen", "5", "5", "main", "--format", "json")
    assert code == 0
    rec = json.loads(out)["payload"]["records"][0]
    assert rec["s"] == "4604722693427179"
    assert rec["a"] == "1435208"


def test_gen_csv_column_order(capsys):
    code, out, _ = run_cli(capsys, "gen", "0", "1", "both", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,variant,a,r,b,c,s,admissible"
    assert lines[1] == "0,main,5,6,7,24,29,True"
    assert len(lines) == 5  # header + 2 indices x 2 variants


def test_gen_table_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "0", "0", "main")
    assert code == 0
    assert "variant" in out and "main" in out


def test_gen_usage_errors(capsys):
    assert run_cli(capsys, "gen", "2", "1")[0] == 2           # empty range
    assert run_cli(capsys, "gen", "0", "20000")[0] == 2       # index cap
    assert run_cli(capsys, "gen", "0", "1", "bogus")[0] == 2  # bad variant


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "5", "7", "24")
    assert code == 0
    assert "ab=6" in out and "abc=29" in out


def test_verify_failure_message_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "3", "5")
    assert code == 1
    assert "ab+1=7 not square" in out


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "0", "1", "2")[0] == 2
    assert run_cli(capsys, "verify", "x", "1", "2")[0] == 2


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "8", "45", "91", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert payload["certificate"] == {
        "ab": "19", "ac": "27", "bc": "64", "abc": "181"}


def test_verify_handles_huge_inputs(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "1435208", "3841321681771", "3846019113405")
    assert code == 0
    assert "abc=4604722693427179" in out


def test_search_json_contains_section1(capsys):
    code, out, err = run_cli(capsys, "search", "--max", "750",
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["count"] == 10
    got = {(r["a"], r["b"], r["c"]) for r in doc["payload"]["triples"]}
    assert ("5", "7", "24") in got and ("24", "477", "715") in got
    assert all(r["variant"] == "external" and r["n"] is None
               for r in doc["payload"]["triples"])
    assert "triples" in err  # stats go to stderr, not stdout


SEARCH_ARGV = ["search", "--max", "300", "--format", "json"]


def test_search_reports_kernel_not_built(capsys, monkeypatch):
    monkeypatch.setattr(search, "_kernel", None)
    code, _, err = run_cli(capsys, *SEARCH_ARGV)
    assert code == 0
    assert err.splitlines()[0] == "search path: pure Python (kernel not built)"


@pytest.mark.parametrize("extra,cap,line", [
    ([], None, "kernel (compiled kernel loaded)"),
    (["--pure"], None, "pure Python (--pure given)"),
    ([], 299, "pure Python (bound 300 exceeds the kernel's MAX_BOUND 299)"),
])
def test_search_reports_path_and_reason(capsys, monkeypatch, kernel,
                                        extra, cap, line):
    monkeypatch.setattr(search, "_kernel", None)
    _, pure_out, _ = run_cli(capsys, *SEARCH_ARGV)
    if cap is not None:  # the cap is the loaded kernel's, not a constant here
        kernel = SimpleNamespace(MAX_BOUND=cap,
                                 census_chunk=kernel.census_chunk)
    monkeypatch.setattr(search, "_kernel", kernel)
    code, out, err = run_cli(capsys, *SEARCH_ARGV, *extra)
    assert code == 0
    assert err.splitlines()[0] == f"search path: {line}"
    assert out == pure_out  # the path shows on stderr only


@pytest.mark.parametrize("argv,message", [
    (["--max", "2"], "error: search needs bound >= 3, got 2"),
    (["--max", "100", "--jobs", "0"], "error: jobs must be >= 1, got 0"),
    (["--max", "100000000"], "error: bound 100000000 exceeds the pure "
     "census cap 10000000: its sieve would take about 4000 MB"),
])
def test_search_that_cannot_run_names_no_path(capsys, no_sieve, argv,
                                              message):
    code, out, err = run_cli(capsys, "search", *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_search_empty_and_usage(capsys):
    code, out, _ = run_cli(capsys, "search", "--max", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 0
    assert run_cli(capsys, "search", "--max", "2")[0] == 2


def test_search_oracle_agreement(capsys):
    code, _, err = run_cli(capsys, "search", "--max", "200", "--oracle")
    assert code == 0
    assert "oracle agrees" in err


def test_search_oracle_mismatch_fails(capsys, monkeypatch):
    # a census that loses (5, 7, 24) must fail the cross-check
    def lossy(*args, **kwargs):
        result = search.search_triples(*args, **kwargs)
        return result._replace(triples=[t for t in result.triples
                                        if t[:3] != (5, 7, 24)])
    monkeypatch.setattr(cli, "search_triples", lossy)
    code, _, err = run_cli(capsys, "search", "--max", "100", "--oracle")
    assert code == 1
    assert "oracle mismatch: missing=[(5, 7, 24)] extra=[]" in err


def test_search_oracle_cap_is_usage_error(capsys):
    assert run_cli(capsys, "search", "--max", "2500", "--oracle")[0] == 2
    # the cap fails before the census, so no rows reach stdout
    code, out, err = run_cli(capsys, "search", "--max", "5000", "--oracle")
    assert (code, out) == (2, "")
    assert "oracle capped at 2000" in err


def test_search_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--max", "100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,variant,a,r,b,c,s,admissible"
    assert lines[1] == ",external,5,6,7,24,29,True"


def _csv_writer_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("argv,key", [
    (["gen", "-4", "4", "both"], "records"),
    (["search", "--max", "2000"], "triples")])
def test_csv_equals_csv_writer_on_the_json_rows(capsys, argv, key):
    # the rows read back from the JSON output, written by csv.writer
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    _, doc, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = [["" if rec[col] is None else str(rec[col])
             for col in cli.CSV_COLUMNS]
            for rec in json.loads(doc)["payload"][key]]
    assert out == _csv_writer_text([cli.CSV_COLUMNS, *rows])


def test_csv_equals_csv_writer_with_a_negative_r_and_an_empty_n(capsys):
    # neither the families nor the census print a negative r, but a row
    # with one must come out as csv.writer writes it too
    rows = [
        cli._row("csv", -1, "main", 8, -3, 1, 15, 11, False,
                 Certificate(3, 5, 2, 11)),
        cli._row("csv", None, "external", 5, 6, 7, 24, 29, True,
                 Certificate(6, 11, 13, 29)),
    ]
    cli._emit("csv", "gen", {"records": rows}, rows)
    out = capsys.readouterr().out
    assert out == _csv_writer_text([cli.CSV_COLUMNS, *rows])
    assert out.splitlines()[1:] == ["-1,main,8,-3,1,15,11,False",
                                    ",external,5,6,7,24,29,True"]


class WriteOnlyStream:
    """A text stream with only write and flush, as a sink may have."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_output_needs_only_write_and_flush(capsys, fmt, monkeypatch):
    argv = ["gen", "0", "2", "both", "--format", fmt]
    _, want, _ = run_cli(capsys, *argv)
    sink = WriteOnlyStream()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert "".join(sink.parts) == want


def test_gen_json_certificate_reuses_the_strings_of_r_and_s(capsys):
    # its ab is |r| and its abc is s, rendered once for the record; on the
    # negative indices too, and equal to verify's roots where admissible
    code, out, _ = run_cli(capsys, "gen", "-12", "-1", "both",
                           "--format", "json")
    assert code == 0
    for rec in json.loads(out)["payload"]["records"]:
        a, r, b, s = (int(rec[k]) for k in "arbs")
        cert = rec["certificate"]
        assert cert == {"ab": str(abs(r)), "ac": str(abs(a + r)),
                        "bc": str(abs(b + r)), "abc": str(s)}
        if rec["admissible"]:
            assert Certificate(*map(int, cert.values())) == verify_four(
                a, int(rec["b"]), int(rec["c"])).certificate


def test_search_output_is_byte_identical_across_runs(capsys):
    first = run_cli(capsys, "search", "--max", "300", "--format", "json")
    second = run_cli(capsys, "search", "--max", "300", "--format", "json")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_gen_output_is_byte_identical_across_runs(capsys):
    first = run_cli(capsys, "gen", "-3", "3", "both", "--format", "json")
    second = run_cli(capsys, "gen", "-3", "3", "both", "--format", "json")
    assert first[1] == second[1]


def test_prove_table(capsys):
    code, out, _ = run_cli(capsys, "prove")
    assert code == 0
    assert "core identities: 8/8 pass" in out
    for name in ("I1", "I8", "I9", "I10"):
        assert name in out


def test_prove_table_counts_core_identities_from_the_report(capsys,
                                                            monkeypatch):
    # r's cubic coefficient +1, s's leading coefficient +1/3 and 1 written
    # as 2; the digest pins the residual lines, recorded while a residual
    # was a pair of y-coefficient tuples printed via a BiPoly, and was
    # re-pinned when I10 became a ring identity (only its row changed)
    a, r, b, c, s = (dict(t) for t in forms.FAMILIES["main"])
    r[(3, 0)] += Fraction(1)
    s[(5, 0)] += Fraction(1, 3)
    monkeypatch.setitem(forms.FAMILIES, "main", (a, r, b, c, s))
    monkeypatch.setattr(forms, "CONIC_FORM", {(0, 0): 2})
    report = symbolic.prove_identities()
    code, out, _ = run_cli(capsys, "prove")
    assert code == 1
    assert 0 < report.core_passed < 8
    assert out.splitlines()[-1] == (
        f"core identities: {report.core_passed}/8 pass")
    assert out.count("residual: BiPoly(") == 7
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "33d81caebe57d583ef26699f584a790ab245abce82e46610321c9b5b7ea05c71")


def test_prove_json(capsys):
    code, out, _ = run_cli(capsys, "prove", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["core_ok"] is True
    assert len(payload["identities"]) == 10
    assert all(it["passed"] for it in payload["identities"])


# sha256 of stdout for family and sequence commands, recorded from the
# recurrence-built companion and sequences that the forms tables replaced,
# and for prove, recorded before its identities read forms.triple_conditions
# and re-pinned when I10 became a ring identity (only the I10 row changed).
# The deep seq ranges, recorded while conic points were still reached by
# stepping from index 0, pin the first point of a range far from 0.  The
# single-variant gen digests were recorded while each index's power lists
# went only up to the degrees of the variant's own row.
GOLDEN_STDOUT = [
    ("prove",
     "edb0b7bef29b8683cfae9d4e349e0c97ca227f13cd7cb836b87d935d5b4c57f8"),
    ("prove --format json",
     "2b09043442298295509cfae29e0813fb695ab3b4c49ef843ebc22d5691365e77"),
    ("gen -60 60 both --format json",
     "1aefa92a2caff7595a2d90a46869d2075fbc219c29b9e30155b87da995be2305"),
    ("gen -60 60 both --format csv",
     "13d8554056dd1c7dd34b9fe5cd8708cf32a29bdd6317c62e2f28e2a9c747dbe3"),
    ("gen -60 60 both --format table",
     "e200d5c5c0fe9a39eacab1870407a786ff91320f436b9ee47bf135020a84c60b"),
    ("gen -60 60 main --format json",
     "b34207f09296c390333ba7bf5d3d2d55388a81cde2066e782b478ef97c5bb694"),
    ("gen -60 60 main --format csv",
     "c25d09486785a8b8ee3a50e52a9470a35daf3391dd76a81df65c097bd232ec3f"),
    ("gen -60 60 main --format table",
     "89eb820e622b68303e893bfdf694be55c29a40a33518d891563846861dae2b4b"),
    ("gen -60 60 companion --format json",
     "bbc9c41db922992f2ccb9ebe34b606c938b76ba00a33ffbe6e81221cba9f2760"),
    ("gen -60 60 companion --format csv",
     "f4e22f45d488c22583c37fb13f3679adc8808c389cade3f95060efd455219436"),
    ("gen -60 60 companion --format table",
     "5ff705d13ad101a155369de88f36d3218d4b8e9045276b003b0361529aa57dc3"),
    ("seq P -500 500",
     "a0dc3f6afd0af3f5e5eda80379f0ab53b5a0cdd6afcb656222b0ca0c70a8a192"),
    ("seq A -500 500",
     "861f5d32eddb0e2a0e1cf921ab769862f8852831498477f731c6210a2a4e73a4"),
    ("seq R -500 500",
     "11027a92a1b510e05e035f022fec35d797c32fb795fc1cb2a1feb35bc0a5d352"),
    ("seq P -10000 -9998",
     "5af0aa5bbc7a7a2c9c846674ed5a7fa67c7e30637e37a73b396f05399fa1de4c"),
    ("seq A 7514 7517",
     "633b51eb40ec6f7dea0d2432c52a988f56a512ad712c8830ef9c719388c0b0e1"),
    ("seq R 9997 10000",
     "8073938b76f846fc6610fe24030fd1fd62f5eab79580edc3c4ff6890d384a9ba"),
    ("gen -10000 -10000 both --format json",
     "c3807206cc5574c224a085d8aeb6d7ac153188d9126a87770cd00fedea723615"),
    ("gen -1504 -1504 both --format json",
     "05ec523720f3b3faaa739539919ff996842791c05ffa25276d3ff9600a5f56c9"),
    ("gen 1504 1504 both --format json",
     "7d040738df77c06182ef89a4e2ef44c8ae0ddf4e8c233d2c64e6280c48da3906"),
    ("gen 10000 10000 both --format json",
     "ccffe995ec5bde713e97882fe4a65b4b5d9db2684d4149bcd1acc3bbc4a522f5"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=[argv for argv, _ in GOLDEN_STDOUT])
def test_families_stdout_matches_golden_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of search stdout, recorded from the census that factored r-1 and
# r+1 separately and merged the two lists.  The JSON digests were taken again
# when the census stopped following the orbit of each pair {a, a+2} twice:
# only their candidates_tested changed.  The path does not change stdout:
# "pure Python" and "kernel" force one, None takes the one search picks.
GOLDEN_SEARCH_STDOUT = [
    ("search --max 2000 --format json", None,
     "8d11fa80a831f52e76f9d96245f64dc7f39119df3f8109bdfa88a4167d827bc2"),
    ("search --max 2000 --format json --pure", None,
     "8d11fa80a831f52e76f9d96245f64dc7f39119df3f8109bdfa88a4167d827bc2"),
    ("search --max 2000 --format csv", None,
     "b3fdf543706d033e77c9e8062902bc07168c99f5db936d94a721162c3b81dbd9"),
    ("search --max 2000 --format csv --pure", None,
     "b3fdf543706d033e77c9e8062902bc07168c99f5db936d94a721162c3b81dbd9"),
    ("search --max 2000 --format table", None,
     "ee9c21265228fcb5d552cfe75cd99a7737baccea07a0f594f61b3f15e341f7b2"),
    ("search --max 2000 --format table --pure", None,
     "ee9c21265228fcb5d552cfe75cd99a7737baccea07a0f594f61b3f15e341f7b2"),
    ("search --max 20000 --jobs 2 --format json", "pure Python",
     "8ef3aadda4cbb8cdc85aec538200763adabbd541ae0c170a8047a2b7e439858c"),
    ("search --max 20000 --jobs 2 --format json", "kernel",
     "8ef3aadda4cbb8cdc85aec538200763adabbd541ae0c170a8047a2b7e439858c"),
]


@pytest.mark.parametrize(
    "argv,path,digest", GOLDEN_SEARCH_STDOUT,
    ids=[argv + (f" [{path}]" if path else "")
         for argv, path, _ in GOLDEN_SEARCH_STDOUT])
def test_search_stdout_matches_golden_digest(capsys, monkeypatch, request,
                                             argv, path, digest):
    if path == "pure Python":
        monkeypatch.setattr(search, "_kernel", None)
    elif path == "kernel":  # the threaded kernel path, even if not built
        def no_pool(*args, **kwargs):
            raise AssertionError("kernel chunks went to a process pool")
        monkeypatch.setattr(search, "_kernel",
                            request.getfixturevalue("kernel"))
        monkeypatch.setattr(search, "Pool", no_pool)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0
    if path is not None:
        assert err.startswith(f"search path: {path} (")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seq_outputs(capsys):
    assert run_cli(capsys, "seq", "A", "1", "4")[1] == "6 23 86 321\n"
    assert run_cli(capsys, "seq", "R", "-4", "-1")[1] == "46 12 3 1\n"
    assert run_cli(capsys, "seq", "P", "0", "5")[1] == "0 1 4 15 56 209\n"


@pytest.mark.parametrize("n", [-INDEX_CAP, INDEX_CAP])
def test_gen_at_index_cap_round_trips_through_verify(capsys, n):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, _ = run_cli(capsys, "gen", str(n), str(n), "both",
                           "--format", "json")
    assert code == 0
    assert limit() == before  # main restores the interpreter's digit limit
    rows = json.loads(out)["payload"]["records"]
    assert [r["variant"] for r in rows] == ["main", "companion"]
    for rec in rows:
        assert len(rec["c"]) > 4300
        if rec["admissible"]:
            code, out, _ = run_cli(capsys, "verify", rec["a"], rec["b"],
                                   rec["c"])
            assert code == 0
            assert out.endswith(f" abc={rec['certificate']['abc']}\n")


@pytest.mark.parametrize("name", ["P", "A", "R"])
def test_seq_at_index_cap(capsys, name):
    code, low, _ = run_cli(capsys, "seq", name, str(-INDEX_CAP), str(-INDEX_CAP))
    assert code == 0
    code, high, _ = run_cli(capsys, "seq", name, str(INDEX_CAP), str(INDEX_CAP))
    assert code == 0
    assert len(low.strip().lstrip("-")) > 4300
    assert len(high.strip()) > 4300
    if name == "P":  # P(-n) = -P(n)
        assert low == "-" + high


def test_verify_argument_over_4300_digits(capsys):
    # a = k-1, b = k+1, c = 4k with k = 10^5000: ab+1, ac+1 and bc+1 are
    # squares, abc+1 is not
    a, b, c = "9" * 5000, "1" + "0" * 4999 + "1", "4" + "0" * 5000
    code, out, _ = run_cli(capsys, "verify", a, b, c, "--format", "json")
    assert code == 1
    payload = json.loads(out)["payload"]
    assert (payload["a"], payload["b"], payload["c"]) == (a, b, c)
    assert payload["first_failure"] == "abc"
    assert len(payload["failing_value"]) == 15001
    code, out, _ = run_cli(capsys, "verify", a, b, c)
    assert code == 1 and out.startswith(f"fail ({a},{b},{c}): abc+1=")


def test_seq_usage_errors(capsys):
    assert run_cli(capsys, "seq", "Q", "0", "1")[0] == 2
    assert run_cli(capsys, "seq", "A", "3", "1")[0] == 2
    assert run_cli(capsys, "seq", "A", "0", "10001")[0] == 2


def test_the_environment_does_not_configure_the_cli(capsys, monkeypatch,
                                                     kernel):
    former = {"FOURSQ_PURE": "1", "FOURSQ_JOBS": "x", "FOURSQ_COLOR": "1"}
    monkeypatch.setattr(search, "_kernel", kernel)
    for name in former:
        monkeypatch.delenv(name, raising=False)
    _, unset_out, _ = run_cli(capsys, *SEARCH_ARGV)
    for name, value in former.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *SEARCH_ARGV)
    assert (code, out) == (0, unset_out)
    assert err.splitlines()[0] == "search path: kernel (compiled kernel loaded)"
    code, out, _ = run_cli(capsys, "gen", "0", "0", "main")
    assert code == 0 and "\x1b" not in out


def test_the_package_reads_no_environment():
    # settings come from arguments only; a hidden one fails here
    src = REPO / "src" / "foursq"
    for path in sorted(src.glob("*.py")) + [src / "_kernel.c"]:
        text = path.read_text()
        for read in ("os.environ", "os.getenv", "getenv("):
            assert read not in text, f"{path.name} reads the environment"


@pytest.mark.parametrize("argv,code", [
    (["verify", "5", "7", "24"], 0),
    (["verify", "2", "3", "5"], 1),
    (["seq", "A", "0", "3"], 0),
])
def test_module_entry_point_subprocess(argv, code):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "foursq"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code


def test_closed_stdout_ends_quietly_with_sigpipe_status():
    # about 1 MB of CSV, far more than a pipe buffers: the CLI is still
    # writing when the reader closes its end after one line
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "foursq", "gen", "0", "300", "both",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,variant,a,r,b,c,s,admissible\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    "gen -5 5 both --format json", "prove --format json",
    "search --max 750 --oracle --jobs 2 --pure",
    "search --max 750 --oracle --jobs 2", "verify 5 7 24", "seq R -3 3",
    "gen 0 3 both --format csv"])
def test_stdout_is_the_same_under_python_O(argv):
    # the constructor's invariant checks are `if`s, not `assert`s, so -O
    # must leave stdout alone; on two CPUs the --pure census runs a
    # process pool
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    runs = [subprocess.run([sys.executable, *flags, "-m", "foursq",
                            *argv.split()],
                           capture_output=True, text=True, env=env)
            for flags in ([], ["-O"])]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[1].stdout == runs[0].stdout


# runs three commands in one process; with argv[1] "blocked", the import of
# the compiled kernel fails as if it were not built
STDLIB_ONLY = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["foursq._kernel"] = None
from foursq import cli
for argv in ["search --max 750 --oracle --jobs 2",
             "gen 0 1 both --format csv", "prove"]:
    status = cli.main(argv.split())
    if status:
        sys.exit(status)
"""


def test_the_cli_runs_on_the_stdlib_alone_with_or_without_the_kernel():
    # python -S puts no site-packages on the path, so a third-party import
    # fails; the blocked run takes the pure path by the `except ImportError`
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    built, blocked = [
        subprocess.run([sys.executable, "-S", "-c", STDLIB_ONLY, run],
                       capture_output=True, text=True, env=env)
        for run in ("built", "blocked")]
    assert built.returncode == 0, built.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert "search path: pure Python (kernel not built)" in blocked.stderr
    assert blocked.stdout == built.stdout


# Every subcommand, usage errors (exit 2 from argparse), a domain error
# (exit 2 from a handler), a failed verify (exit 1), help and no arguments;
# "gen 0 2" after "gen 0 1 both --format csv" relies on the defaults that
# the earlier call overrode.
MIXED_ARGV = [
    "gen 0 1 both --format json", "gen 0 1 both --format csv", "gen 0 2",
    "seq Q 0 1", "gen 2 1", "search --max 300 --format csv",
    "search --max 200", "verify 2 3 5", "verify 5 7 24 --format json",
    "prove", "prove --format json", "seq A 1 4", "--help", "search --help",
    "verify x 1 2", "gen 0", "",
]


def _mixed_run(capsys, argvs, fresh_parser=False):
    """(exit code, stdout, stderr) of each command, with search's elapsed
    time cut from stderr; with `fresh_parser`, every call builds its own."""
    runs = []
    for argv in argvs:
        if fresh_parser:
            cli._build_parser.cache_clear()
        code, out, err = run_cli(capsys, *argv.split())
        runs.append((code, out, re.sub(r", \d+\.\d{3}s$", "", err,
                                       flags=re.M)))
    return runs


def test_main_reuses_its_parser_with_the_same_output(capsys):
    fresh = _mixed_run(capsys, MIXED_ARGV, fresh_parser=True)
    cli._build_parser.cache_clear()
    again = _mixed_run(capsys, MIXED_ARGV)
    backward = _mixed_run(capsys, MIXED_ARGV[::-1])[::-1]
    assert cli._build_parser.cache_info().misses == 1
    assert again == fresh
    assert backward == fresh
    assert sorted({code for code, _, _ in fresh}) == [0, 1, 2]


def test_the_parser_is_built_on_the_first_call_not_at_import():
    probe = """
import contextlib, io
import foursq.cli as cli
misses = [cli._build_parser.cache_info().misses]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["seq", "P", "0", "0"])
    cli.main(["seq", "P", "0", "0"])
misses.append(cli._build_parser.cache_info().misses)
print(misses)
"""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.stdout == "[0, 1]\n"


def test_importing_the_cli_skips_dataclasses_and_multiprocessing():
    # start-up cost: the records are NamedTuples, and only a pure census
    # with jobs > 1 imports multiprocessing (search.Pool)
    probe = ("import sys, foursq.cli; print(sorted({'dataclasses', 'inspect',"
             " 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.stdout == "[]\n", proc.stderr


def test_help_follows_the_terminal_width_after_the_parser_is_built(
        capsys, monkeypatch):
    run_cli(capsys, "seq", "P", "0", "0")  # built at the default width
    helps = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = run_cli(capsys, "search", "--help")
        cli._build_parser.cache_clear()
        assert run_cli(capsys, "search", "--help") == helps[columns]
    assert helps["40"] != helps["200"]


def test_a_patched_handler_global_is_honoured_by_a_built_parser(
        capsys, monkeypatch):
    run_cli(capsys, "seq", "P", "0", "0")
    report = SimpleNamespace(items=[], core_ok=False, core_passed=0,
                             core_total=8)
    monkeypatch.setattr(cli, "prove_identities", lambda: report)
    assert run_cli(capsys, "prove") == (1, "name  status  description\n"
                                        "core identities: 0/8 pass\n", "")
