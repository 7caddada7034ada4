"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from treelocal import cli
from treelocal.cli import EXIT_INCOMPLETE, EXIT_INVALID, EXIT_OK, main
from treelocal.medianqm import HOMOGENIZE_LIMIT_CAP
from treelocal.serialize import MAX_ELEMENT_DEPTH
from treelocal.tree import ball_size

SPEC3 = {"d": 3, "F": ["(1 2 3)"], "Fprime": ["(1 2 3)", "(1 2)"]}
SPEC4 = {"d": 4, "F": ["(1 2 3 4)"], "Fprime": ["(1 2 3 4)", "(1 2)"]}
SPECD4 = {"d": 4, "F": ["(1 2 3 4)"], "Fprime": ["(1 2 3 4)", "(1 3)"]}
BAD = {"d": 3, "F": ["(1 2)"], "Fprime": ["(1 2 3)", "(1 2)"]}
WORD = '{"op": "word", "w": "1.2"}'


@pytest.fixture
def spec3(tmp_path):
    p = tmp_path / "spec3.json"
    p.write_text(json.dumps(SPEC3))
    return str(p)


@pytest.fixture
def spec4(tmp_path):
    p = tmp_path / "spec4.json"
    p.write_text(json.dumps(SPEC4))
    return str(p)


@pytest.fixture
def specd4(tmp_path):
    p = tmp_path / "specd4.json"
    p.write_text(json.dumps(SPECD4))
    return str(p)


@pytest.fixture
def badspec(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroupValidate:
    def test_valid(self, capsys, spec3):
        code, out, _ = run(capsys, "group", "validate", spec3)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["valid"] is True
        assert data["flags"]["Fprime_2transitive"] is True

    def test_invalid(self, capsys, badspec):
        code, out, _ = run(capsys, "group", "validate", badspec)
        assert code == EXIT_INVALID
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize("key, value", [
        ("d", 3.9), ("d", True), ("F", "(1 2 3)"), ("Fprime", [3])])
    def test_spec_off_schema_exits_1_with_one_line(self, capsys, tmp_path,
                                                   key, value):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**SPEC3, key: value}))
        code, out, err = run(capsys, "group", "validate", str(p))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "group", "validate", "/no/such/file.json")
        assert code == EXIT_INVALID
        assert "error" in err

    def test_text_format(self, capsys, spec3):
        code, out, _ = run(capsys, "--format", "text", "group", "validate",
                           spec3)
        assert code == EXIT_OK
        assert "valid = true" in out


class TestElement:
    def test_classify_word(self, capsys):
        code, out, _ = run(capsys, "element", "classify", "--d", "3",
                           "--word", "1.2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["class"] == "loxodromic"
        assert data["length"] == 2
        assert data["eta"] == 0

    def test_classify_inversion(self, capsys):
        code, out, _ = run(capsys, "element", "classify", "--d", "3",
                           "--word", "1")
        data = json.loads(out)
        assert data["class"] == "inversion"
        assert data["eta"] == 1

    def test_apply(self, capsys):
        code, out, _ = run(capsys, "element", "apply", "--d", "3",
                           "--word", "1.2", "--vertex", "2.3")
        assert code == EXIT_OK
        assert json.loads(out)["image"] == "1.3"

    def test_build_json_element(self, capsys):
        expr = json.dumps({"op": "diag", "perm": "(1 2)"})
        code, out, _ = run(capsys, "element", "build", "--d", "3",
                           "--element", expr)
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_certify(self, capsys, spec3):
        code, out, _ = run(capsys, "element", "certify", "--spec", spec3,
                           "--word", "1.2", "--radius", "4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["exact"] is True
        assert data["singular"] == []

    def test_certify_line_with_singular_tail(self, capsys, spec4):
        line = {"anchor": "e", "forward": {"pre": [1, 2] * 15, "period": [1, 2, 3]},
                "backward": {"period": [2, 1]}}
        expr = json.dumps({"op": "line", "kind": "t", "line": line})
        code, out, _ = run(capsys, "element", "certify", "--spec", spec4,
                           "--element", expr, "--radius", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["singular"] == []
        assert data["exact"] is False

    def test_line_period_over_cap_exits_1(self, capsys, spec4):
        line = {"anchor": "e",
                "forward": {"period": [1, 2, 3] * 33 + [1, 2]},
                "backward": {"period": [3, 4] * 51 + [1]}}
        expr = json.dumps({"op": "line", "kind": "t", "line": line})
        code, out, err = run(capsys, "element", "build", "--spec", spec4,
                             "--element", expr)
        assert code == EXIT_INVALID
        assert out == ""
        assert "10403" in err and err.count("\n") == 1

    def test_no_element_given(self, capsys):
        code, _, err = run(capsys, "element", "classify", "--d", "3")
        assert code == EXIT_INVALID


class TestQm:
    def test_eval(self, capsys, specd4):
        seg = json.dumps({"start": "e", "colors": [1, 2]})
        code, out, _ = run(capsys, "qm", "eval", "--spec", specd4,
                           "--segment", seg, "--word", "1.2.1.2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data == {"value": 0, "forward": 3, "backward": 3}

    def test_homogenize_with_limit(self, capsys, specd4):
        seg = json.dumps({"start": "e", "colors": [1, 2, 1, 3, 1]})
        code, out, _ = run(capsys, "qm", "homogenize", "--spec", specd4,
                           "--segment", seg, "--word", "1.2.1.2.4.2.3",
                           "--limit", "4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["homogenize"] == 1
        assert len(data["limit"]) == 4

    def test_homogenize_limit_over_cap_exits_1(self, capsys, specd4):
        seg = json.dumps({"start": "e", "colors": [1, 2]})
        code, out, err = run(capsys, "qm", "homogenize", "--spec", specd4,
                             "--segment", seg, "--word", "1.2",
                             "--limit", str(HOMOGENIZE_LIMIT_CAP + 1))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "HOMOGENIZE_LIMIT_CAP" in err

    @pytest.mark.parametrize("flag, value", [
        ("--rank", "0"), ("--rank", "-1"), ("--max-seg", "0"),
        ("--bound", "0"), ("--bound", "x")])
    def test_independence_bounds_below_one_exit_1(self, capsys, specd4,
                                                  flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["qm", "independence", "--spec", specd4, flag, value])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert flag in out.err and "at least 1" in out.err

    def test_independence_exhaustion_exit_code(self, capsys, specd4):
        code, out, _ = run(capsys, "qm", "independence", "--spec", specd4,
                           "--rank", "3", "--max-seg", "2", "--bound", "4")
        assert code == EXIT_INCOMPLETE
        assert json.loads(out)["rank"] == 0


class TestChains:
    def test_exactness(self, capsys):
        code, out, _ = run(capsys, "chains", "exactness",
                           "--points", "e,1,2,1.2", "--max-degree", "3")
        assert code == EXIT_OK
        assert json.loads(out)["exact"] is True

    def test_aligned(self, capsys):
        code, out, _ = run(capsys, "chains", "aligned",
                           "--points", "e,1,2,1.2", "--degree", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["closed_under_boundary"] is True
        # all four points lie on the geodesic through 2, e, 1, 1.2
        assert ["e", "1", "2"] in data["aligned_basis"]
        assert len(data["aligned_basis"]) == 4

    def test_aligned_has_no_max_degree(self, capsys):
        # the aligned checks read the points only, so the flag is refused
        with pytest.raises(SystemExit) as exc:
            main(["chains", "aligned", "--points", "e,1,2,1.2",
                  "--max-degree", "3"])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID
        assert out.out == ""
        assert out.err == "error: unrecognized arguments: --max-degree 3\n"

    def test_restriction(self, capsys, spec3):
        code, out, _ = run(capsys, "chains", "restriction", "--spec", spec3,
                           "--radius", "2", "--degree", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["failures"] == []
        assert data["consistent"] == data["tuples_checked"]

    def test_restriction_over_cap_exits_1(self, capsys, spec4):
        code, out, err = run(capsys, "chains", "restriction", "--spec", spec4,
                             "--radius", "6")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ENUMERATION_CAP" in err

    def test_restriction_of_nothing_exits_1(self, capsys, spec4):
        # a ball of radius R holds no aligned (n+1)-tuple past n = 2R
        for radius, degree in (("0", "2"), ("1", "5"), ("3", "99")):
            code, out, err = run(capsys, "chains", "restriction", "--spec", spec4,
                                 "--radius", radius, "--degree", degree)
            assert code == EXIT_INVALID
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"radius {radius} " in err and f"degree {degree} " in err

    def test_restriction_of_single_points(self, capsys, spec4):
        # ball(e, 3) at d = 4 has 53 vertices, ball(e, 4) has 161
        for radius, checked in (("3", 53), ("4", 120)):
            code, out, _ = run(capsys, "chains", "restriction", "--spec", spec4,
                               "--radius", radius, "--degree", "0")
            assert code == EXIT_OK
            assert json.loads(out) == {"tuples_checked": checked,
                                       "transported": checked,
                                       "consistent": checked, "failures": []}

    def test_negative_max_degree_exits_1(self, capsys):
        for degree in ("-1", "-3"):
            code, out, err = run(capsys, "chains", "exactness", "--points",
                                 "e,1", "--max-degree", degree)
            assert code == EXIT_INVALID
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestTree:
    def test_ball_count(self, capsys):
        code, out, _ = run(capsys, "tree", "ball", "--d", "4", "--radius", "2")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == ball_size(2, 4)

    def test_ball_over_cap_exits_1(self, capsys, spec4):
        for argv in (["tree", "ball", "--d", "4"],
                     ["element", "certify", "--spec", spec4, "--word", "1.2"]):
            code, out, err = run(capsys, *argv, "--radius", "40")
            assert code == EXIT_INVALID
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "BALL_CAP" in err

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "dot", "--d", "3", "--radius", "1")
        assert code == EXIT_OK
        assert out.startswith("graph tree {")
        assert "[label=2]" in out


# Malformed JSON for the fuzz test of TestMalformedInput, as argument text.
# Element JSON is read at d = 3 without a group context; segment JSON is
# read against the dihedral pair at d = 4.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
NOT_OBJECT = JSON.filter(lambda v: not isinstance(v, dict))
NOT_TEXT = JSON.filter(lambda v: not isinstance(v, str))
NOT_VERTEX = st.text(alphabet="abcx-", min_size=1, max_size=4)
OPS = ("word", "diag", "subdiag", "compose", "inverse", "patched", "line")


def _element_with(op, key, value):
    return {"op": op, key: value}


BAD_ELEMENT_OBJECTS = st.recursive(
    st.one_of(
        NOT_OBJECT,
        st.dictionaries(st.sampled_from(["w", "perm", "args", "arg"]), JSON,
                        max_size=2),
        st.builds(_element_with,
                  st.text(max_size=6).filter(lambda op: op not in OPS),
                  st.just("w"), JSON),
        st.builds(_element_with, st.sampled_from(["word", "diag", "subdiag"]),
                  st.sampled_from(["w", "perm", "at"]), NOT_TEXT),
        st.builds(_element_with, st.just("word"), st.just("w"), NOT_VERTEX),
        st.builds(_element_with, st.just("diag"), st.just("perm"),
                  st.sampled_from(["(1 4)", "(1 1)", "(1 2", "12"])),
        st.builds(_element_with, st.just("compose"), st.just("args"),
                  NOT_TEXT.filter(lambda v: not isinstance(v, list)) | st.just([])),
        st.just({"op": "line"})),
    lambda inner: st.one_of(
        st.builds(_element_with, st.just("inverse"), st.just("arg"), inner),
        st.builds(_element_with, st.just("compose"), st.just("args"),
                  st.lists(inner, min_size=1, max_size=2))),
    max_leaves=3)
BAD_ELEMENTS = st.one_of(
    BAD_ELEMENT_OBJECTS.map(json.dumps),
    st.builds(lambda op: json.dumps({"op": op, "w": "1.2"})[:-1],
              st.sampled_from(OPS)))

COLORS = st.lists(st.integers(1, 4), min_size=1, max_size=3)
BAD_COLORS = st.one_of(
    NOT_TEXT.filter(lambda v: not isinstance(v, list)),
    st.just([]),
    st.builds(lambda ok, bad, i: ok[:i] + [bad] + ok[i:], COLORS,
              st.integers(-3, 0) | st.integers(5, 9), st.integers(0, 3)),
    st.builds(lambda ok, bad: ok + [bad], COLORS,
              st.none() | st.booleans() | st.text(max_size=2)
              | st.lists(st.integers(1, 4), max_size=1)))
BAD_SEGMENTS = st.one_of(
    NOT_OBJECT,
    st.fixed_dictionaries({"start": st.just("e")}),
    st.fixed_dictionaries({"colors": COLORS}),
    st.fixed_dictionaries({"start": NOT_TEXT, "colors": COLORS}),
    st.fixed_dictionaries({"start": NOT_VERTEX, "colors": COLORS}),
    st.fixed_dictionaries({"start": st.just("e"), "colors": BAD_COLORS}),
).map(json.dumps)


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("element", "build", "--element", '{"op": "diag"}'),
        ("element", "build", "--element", "[1]"),
        ("element", "build", "--element", '{"op": "compose", "args": [[1]]}'),
        ("element", "build", "--element", '{"op": "inverse"}'),
        ("element", "build", "--element", '{"op": "word", "w": 12}'),
        ("element", "apply", "--vertex", "e", "--element", '{"w": "1"}'),
        ("qm", "eval", "--segment", '{"start": "e"}', "--word", "1.2"),
        ("qm", "eval", "--segment", '[1]', "--word", "1.2"),
        ("qm", "eval", "--segment", '{"start": "e", "colors": "12"}',
         "--word", "1.2"),
        ("tree", "ball", "--d", "2"),
        ("tree", "dot", "--d", "2"),
        ("qm", "eval", "--segment", '{"start": "e", "colors": [1, 7]}',
         "--word", "1.2"),
        ("qm", "independence", "--bound", "13"),
        # vertex letters and line colors outside 1..d
        ("element", "build", "--element",
         '{"op": "subdiag", "at": "5", "perm": "(1 2)"}'),
        ("element", "apply", "--element", '{"op": "diag", "perm": "(1 2)"}',
         "--vertex", "5"),
        ("element", "classify", "--spec", "SPEC", "--element",
         '{"op": "line", "line": {"anchor": "e", "forward": {"period": [7, 8]},'
         ' "backward": {"period": [8, 7]}}}'),
        ("element", "classify", "--spec", "SPEC", "--element",
         '{"op": "line", "line": {"anchor": "5", "forward": {"period": [1, 2]},'
         ' "backward": {"period": [2, 1]}}}'),
        ("element", "apply", "--word", "1.2", "--vertex", "5.0"),
        ("tree", "ball", "--radius", "1", "--center", "7"),
        ("qm", "eval", "--segment", '{"start": "5", "colors": [1]}',
         "--word", "1.2"),
        ("qm", "eval", "--segment", '{"start": "e", "colors": [1]}',
         "--base", "9", "--word", "1.2"),
        ("element", "build", "--element", '{"op": "patched", "base": ' + WORD
         + ', "overrides": [["4", "(1 2)"]]}'),
        ("element", "build", "--element", '{"op": "patched", "base": ' + WORD
         + ', "overrides": [[4, "(1 2)"]]}'),
        ("element", "build", "--element", '{"op": "patched", "base": ' + WORD
         + ', "overrides": [1]}'),
    ])
    def test_exits_1_with_one_line(self, capsys, specd4, argv):
        if argv[0] == "qm":
            argv = argv[:2] + ("--spec", specd4) + argv[2:]
        argv = tuple(specd4 if a == "SPEC" else a for a in argv)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.tuples(st.just("--element"), BAD_ELEMENTS),
        st.tuples(st.just("--segment"), BAD_SEGMENTS)))
    @example(data=("--segment", '{"start": "e", "colors": [true, 2]}'))
    def test_fuzzed_json_exits_1_with_one_line(self, capsys, specd4, data):
        flag, text = data
        if flag == "--element":
            argv = ("element", "build", "--element", text)
        else:
            argv = ("qm", "eval", "--spec", specd4, "--segment", text,
                    "--word", "1.2")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("branch", "x.json", "--bogus"),
        ("element", "classify", "--word", "1.2", "--d", "x"),
        (),
        ("group", "validate", "x.json", "--relaxed-orbits"),
    ])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["element", "apply", "--help"])
        assert exc.value.code == 0
        assert "--vertex" in capsys.readouterr().out


def nested_inverse(n: int) -> str:
    """n inverses around a word, written out (json.dumps recurses)."""
    return '{"op": "inverse", "arg": ' * n + WORD + "}" * n


def flat_compose(n: int) -> str:
    return '{"op": "compose", "args": [' + ", ".join([WORD] * n) + "]}"


class TestDeepExpressions:
    @pytest.mark.parametrize("text", [
        pytest.param(flat_compose(1000), id="compose-1000-args"),
        pytest.param(nested_inverse(600), id="inverse-600-deep"),
        pytest.param(nested_inverse(2000), id="inverse-2000-deep-json"),
    ])
    def test_refused_with_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "element.json"
        path.write_text(text)
        code, out, err = run(capsys, "element", "build", "--d", "3",
                             "--element-file", str(path))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("make", [nested_inverse, flat_compose],
                             ids=["inverse", "compose"])
    def test_every_command_works_at_the_cap(self, capsys, tmp_path, spec3, make):
        # the top level counts one, and so does each inverse or compose argument
        at_cap, over = tmp_path / "at.json", tmp_path / "over.json"
        at_cap.write_text(make(MAX_ELEMENT_DEPTH - 1))
        over.write_text(make(MAX_ELEMENT_DEPTH))
        for cmd in (["build"], ["classify"], ["apply", "--vertex", "1.2.1.3"],
                    ["certify", "--radius", "2"]):
            base = ["element", cmd[0], "--spec", spec3, *cmd[1:]]
            code, out, _ = run(capsys, *base, "--element-file", str(at_cap))
            assert code == EXIT_OK and json.loads(out)
            code, _, err = run(capsys, *base, "--element-file", str(over))
            assert code == EXIT_INVALID and "MAX_ELEMENT_DEPTH" in err


class TestBranchCommand:
    def test_summary_and_determinism(self, capsys, spec3, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_size": 25, "transport_samples": 5,
                                   "seed": 1}))
        code1, out1, _ = run(capsys, "branch", spec3, "--config", str(cfg),
                             "--evidence", "summary")
        code2, out2, _ = run(capsys, "branch", spec3, "--config", str(cfg),
                             "--evidence", "summary")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        data = json.loads(out1)
        assert data["branch"] == "BoundedlyAcyclic"
        assert data["complete"] is True
        assert all(v == {"pass": True} for v in data["evidence"].values())

    def test_invalid_spec_exits_1(self, capsys, badspec):
        code, out, _ = run(capsys, "branch", badspec)
        assert code == EXIT_INVALID

    def test_incomplete_exits_2(self, capsys, specd4, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qm_max_seg": 2, "qm_search_bound": 3,
                                   "qm_rank_max_seg": 2, "rank_target": 1}))
        code, out, _ = run(capsys, "branch", specd4, "--config", str(cfg))
        assert code == EXIT_INCOMPLETE
        assert json.loads(out)["complete"] is False

    @pytest.mark.parametrize("spec, config, named", [
        ("specd4", {"census_n": "4"}, "census_n"),
        ("spec3", {"census_n": "4"}, "census_n"),
        ("spec3", {"census_n": True}, "census_n"),
        ("spec3", {"bogus": 1}, "bogus"),
        ("spec3", [1], "JSON object"),
        ("spec3", {"census_n": 0, "transport_samples": 0, "sample_size": 0,
                   "window": 0}, "census_n"),
        ("spec3", {"window": -3}, "window"),
    ])
    def test_malformed_config_refused(self, capsys, request, tmp_path, spec,
                                      config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "branch", request.getfixturevalue(spec),
                             "--config", str(cfg))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_config_env_variable(self, capsys, spec3, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_size": 5, "transport_samples": 2}))
        monkeypatch.setenv("TREELOCAL_CONFIG", str(cfg))
        code, out, _ = run(capsys, "branch", spec3, "--evidence", "summary")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["parameters"]["sample_size"] == 5

    def test_parser_built_once_per_process(self, capsys, spec3, monkeypatch):
        seeded = ("branch", spec3, "--seed", "3")
        plain = ("branch", spec3)
        alone = []
        for argv in (seeded, plain):
            cli._parser.cache_clear()  # as in a fresh process
            alone.append(run(capsys, *argv))
        assert alone[0][1] != alone[1][1]
        built = 0
        build_parser = cli.build_parser

        def counting():
            nonlocal built
            built += 1
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert [run(capsys, *seeded), run(capsys, *plain)] == alone
        assert built == 1

    def test_handler_replaced_after_first_call_is_bound(self, capsys,
                                                         monkeypatch):
        run(capsys, "tree", "ball")
        monkeypatch.setattr(cli, "cmd_tree", lambda args: 7)
        assert main(["tree", "ball"]) == 7
