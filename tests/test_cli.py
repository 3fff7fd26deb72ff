import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmas import topology as tp
from magmas.cli import main

CHAIN = "atoms: a b c\na <= b\nb <= c\n"
CHAIN_PO = str(Path(__file__).parent.parent / "demos" / "chain.po")
ANTI = "atoms: a b\n"


@pytest.fixture
def chain_file(tmp_path):
    f = tmp_path / "chain.po"
    f.write_text(CHAIN)
    return str(f)


@pytest.fixture
def anti_file(tmp_path):
    f = tmp_path / "anti.po"
    f.write_text(ANTI)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_opens(capsys, chain_file):
    code, out, _ = run(capsys, "opens", chain_file)
    assert code == 0
    assert out.splitlines() == ["{a}", "{a,b}", "{a,b,c}"]


def test_opens_minimal_and_count(capsys, chain_file, anti_file):
    code, out, _ = run(capsys, "opens", chain_file, "--minimal")
    assert code == 0 and out.splitlines() == ["{a}"]
    code, out, _ = run(capsys, "opens", anti_file, "--count")
    assert code == 0 and out.strip() == "3"


def test_shift_bool(capsys, chain_file):
    code, out, _ = run(capsys, "shift", chain_file, "--x", "{a,b,c}", "--y", "{c}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "shift", chain_file, "--x", "{a}", "--y", "{}")
    assert code == 0 and out.strip() == "false"


def test_shift_pr_plus(capsys, chain_file):
    code, out, _ = run(capsys, "shift", chain_file, "--pr-plus", "{a}")
    assert code == 0 and out.splitlines() == ["{}", "{a}"]


def test_unknown_label_message_is_printed_unquoted(capsys, chain_file):
    code, out, err = run(capsys, "shift", chain_file, "--x", "{z}", "--y", "a")
    assert (code, out, err) == (2, "", "error: unknown atom label 'z'\n")


def test_shift_requires_arguments(capsys, chain_file):
    code, _, err = run(capsys, "shift", chain_file, "--x", "{a}")
    assert code == 2 and "pr-plus" in err


def test_symbolic_member(capsys):
    code, out, _ = run(capsys, "symbolic", "member", "--gens", "0,11",
                       "--atom", "110")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "symbolic", "member", "--gens", "0",
                       "--atom", "1")
    assert code == 0 and out.strip() == "false"


def test_symbolic_subset_and_shrink(capsys):
    code, out, _ = run(capsys, "symbolic", "subset", "--gens", "01",
                       "--other", "0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "symbolic", "shrink", "--gens", "0")
    assert code == 0 and out.strip() == "00"


def test_symbolic_validate(capsys):
    code, out, _ = run(capsys, "symbolic", "validate", "--model", "clustered:2",
                       "--depth", "5")
    assert code == 0 and "status: pass" in out


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_symbolic_validate_rejects_depth_below_one(capsys, depth):
    code, out, err = run(capsys, "symbolic", "validate", "--depth", depth)
    assert code == 2 and "status" not in out
    assert "validation depth must be at least 1" in err


def test_symbolic_validate_refuses_depth_past_the_cap(capsys):
    code, out, err = run(capsys, "symbolic", "validate", "--depth", "17")
    assert code == 2 and "status" not in out and "DEPTH_CAP = 16" in err


def test_symbolic_clustered_atoms(capsys):
    code, out, _ = run(capsys, "symbolic", "member", "--model", "clustered:2",
                       "--gens", "0#0", "--atom", "01#1")
    assert code == 0 and out.strip() == "true"


def test_symbolic_bad_model(capsys):
    code, _, err = run(capsys, "symbolic", "member", "--model", "weird",
                       "--gens", "0", "--atom", "0")
    assert code == 2 and "unknown symbolic model" in err


def test_hierarchy_sizes(capsys, anti_file):
    code, out, _ = run(capsys, "hierarchy", anti_file, "--levels", "3")
    assert code == 0 and out.strip() == "3 4 5"


def test_hierarchy_default_growth_cap(capsys, tmp_path):
    # the 3-atom antichain has 18 level-2 elements, within the default cap
    f = tmp_path / "anti3.po"
    f.write_text("atoms: a b c\n")
    code, out, _ = run(capsys, "hierarchy", str(f), "--levels", "3")
    assert code == 0 and out.strip() == "7 18 81"
    code, _, err = run(capsys, "hierarchy", str(f), "--levels", "4")
    assert code == 2 and "level 3 has 81 elements, over growth cap 20" in err


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_hierarchy_rejects_levels_below_one(capsys, anti_file, levels):
    code, out, err = run(capsys, "hierarchy", anti_file, "--levels", levels)
    assert code == 2 and out == "" and "levels are numbered from 1" in err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_member_rejects_bound_below_one(capsys, chain_file, bound):
    code, out, _ = run(capsys, "member", chain_file, "--value", "{a}", "--bound", "1")
    assert code == 0 and out.strip() == "level 1"
    code, out, err = run(capsys, "member", chain_file, "--value", "{a}", "--bound", bound)
    assert code == 2 and out == "" and "bound must be at least 1" in err


def test_hierarchy_print(capsys, anti_file):
    code, out, _ = run(capsys, "hierarchy", anti_file, "--levels", "2", "--print")
    assert code == 0
    assert "level 2:" in out and "{{a},{b}}" in out


def test_member_command(capsys, anti_file):
    code, out, _ = run(capsys, "member", anti_file, "--value", "{{a},{{a}}}",
                       "--bound", "3")
    assert code == 0 and out.strip().startswith("limit+1")
    code, out, _ = run(capsys, "member", anti_file, "--value", "{a}",
                       "--bound", "3")
    assert code == 0 and out.strip() == "level 1"
    code, _, err = run(capsys, "member", anti_file, "--value", "{a", "--bound", "3")
    assert code == 2 and "error" in err


def test_member_refuses_deep_nesting_in_one_line(capsys, chain_file):
    deep = "{" * 1200 + "a" + "}" * 1200
    code, out, err = run(capsys, "member", chain_file, "--value", deep)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check(capsys, chain_file):
    code, out, _ = run(capsys, "check", chain_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "atoms: 3"
    assert "star: unsatisfied (witness a)" in lines
    assert "opens: 3" in lines
    assert "minimal: 1" in lines


def test_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.po"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.po"))
    assert code == 2


def test_library_index_error_is_not_bad_input(monkeypatch, capsys, chain_file):
    # no command raises IndexError on what the user typed, so one raised
    # inside the library is a bug and must surface, not exit 2
    def broken(p, **kw):
        raise IndexError("row bit past the carrier")
    monkeypatch.setattr(tp, "enumerate_opens", broken)
    with pytest.raises(IndexError):
        main(["opens", chain_file])


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "1",
                       "--suites", "strict-part-laws,closure-idempotence")
    assert code == 0
    assert "suites_run: 2" in out
    assert "status: skipped" in out


def test_verify_out_file_and_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--max-size", "1", "--suites",
                       "strict-part-laws", "--format", "json",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    blob = json.loads(out_path.read_text())
    assert blob["passed"] is True


def test_verify_bad_config(capsys):
    code, _, err = run(capsys, "verify", "--max-size", "9")
    assert code == 2 and "max_size" in err
    code, _, err = run(capsys, "verify", "--suites", "bogus")
    assert code == 2 and "unknown suites" in err


def test_verify_names_an_empty_suite(capsys):
    # a trailing comma leaves an empty suite name, shown quoted
    code, _, err = run(capsys, "verify", "--suites", "closure-idempotence,")
    assert code == 2 and "unknown suites: ''" in err


# argv over the file commands on the demo chain, the symbolic command, and a
# small verify: each command's own options, given mostly with a value, among
# words that are valid somewhere and short text with no "o" (so no
# abbreviation of --out)
FLAGS = {
    "check": (),
    "opens": ("--minimal", "--count"),
    "shift": ("--x", "--y", "--pr-plus"),
    "member": ("--value", "--bound"),
    "hierarchy": ("--levels", "--print"),
    "symbolic": ("--model", "--gens", "--other", "--atom", "--depth", "--seed"),
    "verify": ("--depth", "--seed", "--symbolic-depth", "--format"),
}
SWITCHES = {"--minimal", "--count", "--print"}
words = st.sampled_from(["{a}", "{a,b}", "{}", "a", "z", "{{a}}", "{{a},{a,b}}", "{a,{a}}",
                         "-1", "0", "1", "2", "3", "0,11", "01", "prefix", "clustered:2",
                         "clustered:x", "json", "text"]) | st.text(alphabet="abc01{},-:# ",
                                                                   max_size=4)


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    if cmd == "verify":
        argv = [cmd, "--suites", "closure-idempotence",
                "--max-size", str(draw(st.integers(-1, 2)))]
    elif cmd == "symbolic":
        argv = [cmd, draw(st.sampled_from(["member", "subset", "shrink", "validate"])
                          | words)]
    else:
        argv = [cmd, CHAIN_PO]
    for flag in draw(st.lists(st.sampled_from(FLAGS[cmd]), max_size=4)) if FLAGS[cmd] else ():
        argv += [flag] if flag in SWITCHES else [flag, draw(words)]
    if draw(st.integers(0, 4)) == 0:  # now and then a stray word
        argv.append(draw(words))
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv, or --help
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
