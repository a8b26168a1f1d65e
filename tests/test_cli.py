import ast
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ifam
from ifam.cli import main
from ifam.hypergraph import Hypergraph, mask_of
from ifam.io import serialize_hypergraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_gen_layout(capsys):
    code, out, _ = run(capsys, "gen", "--layout")
    assert code == 0
    assert "EM" in out and "FP" in out


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "HM0", "--n", "6", "--r", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6 3"
    assert len(lines) == 11


def test_gen_json_to_file(capsys, tmp_path):
    target = str(tmp_path / "h.json")
    code, out, _ = run(capsys, "gen", "H3FAM", "--n", "6", "--r", "3",
                       "--i", "4", "--format", "json", "--out", target)
    assert code == 0
    assert "wrote 10 edges" in out
    data = json.loads((tmp_path / "h.json").read_text())
    assert data["n"] == 6 and len(data["edges"]) == 10


def test_gen_usage_errors(capsys):
    assert run(capsys, "gen")[0] == 2
    assert run(capsys, "gen", "NOPE", "--n", "6", "--r", "3")[0] == 2
    assert run(capsys, "gen", "HM0", "--n", "3", "--r", "3")[0] == 2


def test_check_intersecting(capsys, tmp_path):
    path = write(tmp_path, "h.txt", "6 3\n1 2 3\n1 2 4\n")
    code, out, _ = run(capsys, "check", "--file", path)
    assert code == 0
    assert "intersecting: yes" in out
    assert "matching number: 1" in out
    assert "cover number: 1" in out


def test_check_not_intersecting_json(capsys, tmp_path):
    path = write(tmp_path, "h.txt", "6 3\n1 2 3\n4 5 6\n")
    code, out, _ = run(capsys, "check", "--file", path, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["intersecting"] is False
    assert data["matching_number"] == 2


def test_check_a_large_matching(capsys, tmp_path):
    # the cover search recursed once per chosen vertex, and a matching of
    # 995 edges ended in a RecursionError traceback
    text = "3600 3\n" + "".join(f"{3 * j + 1} {3 * j + 2} {3 * j + 3}\n" for j in range(1200))
    path = write(tmp_path, "m.txt", text)
    code, out, err = run(capsys, "check", "--file", path)
    assert (code, err) == (1, "")
    assert out == ("n: 3600  r: 3  edges: 1200\nintersecting: no\n"
                   "matching number: 1200\ncover number: 1200\n")


def test_check_parse_error(capsys, tmp_path):
    path = write(tmp_path, "h.txt", "not a header\n")
    assert run(capsys, "check", "--file", path)[0] == 2


def test_sunflower_found(capsys, tmp_path):
    path = write(tmp_path, "f.txt", "6\n1 2\n1 3\n1 4\n")
    code, out, _ = run(capsys, "sunflower", "--file", path, "--k", "3")
    assert code == 0
    assert out.startswith("core: 1")


def test_sunflower_none_and_core(capsys, tmp_path):
    path = write(tmp_path, "f.txt", "6\n1 2\n1 3\n1 4\n")
    code, out, _ = run(capsys, "sunflower", "--file", path, "--k", "4")
    assert code == 1
    assert out.strip() == "none"
    code, out, _ = run(capsys, "sunflower", "--file", path, "--k", "2",
                       "--core", "1", "--json")
    assert code == 0
    assert json.loads(out)["core"] == [1]


def test_sunflower_refuses_a_core_outside_the_ground_set(capsys, tmp_path):
    path = write(tmp_path, "f.txt", "5\n1 2\n1 3\n1 4\n")
    code, out, err = run(capsys, "sunflower", "--file", path, "--k", "2", "--core", "9")
    assert (code, out) == (2, "")
    assert err == "ifam: error: core (9,) leaves the ground set [5]\n"


def usage_error(capsys, *argv):
    """The exit code and the last stderr line of a call that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err.splitlines()[-1]


@pytest.mark.parametrize("core", ["a", "1 x", "1.5"])
def test_sunflower_names_the_core_option_on_a_bad_label(capsys, tmp_path, core):
    # int() raised through the handler: "invalid literal for int() with base 10"
    path = write(tmp_path, "f.txt", "5\n1 2\n1 3\n1 4\n")
    assert usage_error(capsys, "sunflower", "--file", path, "--k", "2", "--core", core) == (
        2, "ifam sunflower: error: argument --core: expected vertex labels separated "
           f"by spaces, e.g. \"1 2\", got {core!r}")


def test_kernel_json_and_schemes(capsys, tmp_path):
    star = Hypergraph.from_masks(
        8, 3, [mask_of((1, a, b)) for a, b in combinations(range(2, 8), 2)])
    path = write(tmp_path, "h.txt", serialize_hypergraph(star))
    code, out, _ = run(capsys, "kernel", "--file", path, "--scheme", "rs:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"scheme", "b_prime", "b_dprime", "by_size", "counting_bound", "edges"}
    assert run(capsys, "kernel", "--file", path, "--scheme", "bogus")[0] == 2


@pytest.mark.parametrize("scheme", ["rs:1.5", "rs:", "rs:x"])
def test_kernel_names_the_scheme_option_on_a_bad_multiplicity(capsys, tmp_path, scheme):
    path = write(tmp_path, "h.txt", "6 3\n1 2 3\n1 2 4\n")
    code, out, err = run(capsys, "kernel", "--file", path, "--scheme", scheme)
    assert (code, out) == (2, "")
    assert err == f"ifam: error: --scheme {scheme!r}: expected 'rs:S' with an integer S >= 1\n"


def test_classify_star(capsys, tmp_path):
    path = write(tmp_path, "h.txt", "6 3\n1 2 3\n1 2 4\n1 5 6\n")
    code, out, _ = run(capsys, "classify", "--file", path)
    assert code == 0
    assert "verdict: STAR" in out


def test_classify_none_exits_one(capsys, tmp_path):
    full = Hypergraph.from_masks(
        7, 4, [mask_of(c) for c in combinations(range(1, 8), 4)])
    path = write(tmp_path, "h.txt", serialize_hypergraph(full))
    code, out, _ = run(capsys, "classify", "--file", path)
    assert code == 1
    assert "verdict: NONE" in out


def test_classify_complete_3graph_exits_one(capsys, tmp_path):
    k7 = Hypergraph.from_masks(
        7, 3, [mask_of(c) for c in combinations(range(1, 8), 3)])
    path = write(tmp_path, "k7.txt", serialize_hypergraph(k7))
    code, out, err = run(capsys, "classify", "--file", path)
    assert code == 1
    assert "verdict: NONE" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "4 4\n1 2 3 4\n",   # r = 4, one edge on n = r: no star template fits
    "3 3\n1 2 3\n",     # its 3-uniform analogue
    "5 2\n1 2\n3 4\n",  # r = 2, not intersecting
])
def test_classify_small_families_give_none(capsys, tmp_path, text):
    path = write(tmp_path, "h.txt", text)
    code, out, err = run(capsys, "classify", "--file", path)
    assert (code, out, err) == (1, "verdict: NONE\n", "")


def test_classify_with_peeling(capsys, tmp_path):
    em = [mask_of(c) for c in combinations(range(1, 13), 3)
          if c[0] == 1 or 2 in c]
    h = Hypergraph.from_masks(12, 3, [m for m in em if m & 3])
    path = write(tmp_path, "h.txt", serialize_hypergraph(h))
    code, out, _ = run(capsys, "classify", "--file", path, "--s", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["z"] == [1]
    assert data["verdict"] == "STAR"


# the edges of HM_T(9, 4, t=1) in storage order, one digit per vertex
HM_T_9_4_1 = (
    "1234 1235 1245 1345 2345 1236 1246 1346 1256 1356 1456 1237 1247 "
    "1347 1257 1357 1457 1267 1367 1467 1567 1238 1248 1348 1258 1358 "
    "1458 1268 1368 1468 1568 1278 1378 1478 1578 1239 1249 1349 1259 "
    "1359 1459 1269 1369 1469 1569 1279 1379 1479 1579 1289 1389 1489 "
    "1589"
).split()


def test_kernel_text_output(capsys, tmp_path):
    # HM_T(9, 4, t=1) has no kernel core: B' is empty and B'' is every edge
    path = str(tmp_path / "hm.txt")
    assert run(capsys, "gen", "HM_T", "--n", "9", "--r", "4", "--t", "1", "--out", path)[0] == 0
    code, out, err = run(capsys, "kernel", "--file", path)
    want = ("scheme: paper\nB': 0 sets\nB'': 53 sets\n"
            + "".join("  " + " ".join(edge) + "\n" for edge in HM_T_9_4_1)
            + "B_i sizes: 4:53\ncounting bound: 53 (family has 53 edges)\n")
    assert (code, out, err) == (0, want, "")


def test_classify_peeling_text_output(capsys, tmp_path):
    # one peeled vertex leaves a star
    em = [mask_of(c) for c in combinations(range(1, 13), 3) if c[0] == 1 or 2 in c]
    h = Hypergraph.from_masks(12, 3, [m for m in em if m & 3])
    path = write(tmp_path, "h.txt", serialize_hypergraph(h))
    code, out, err = run(capsys, "classify", "--file", path, "--s", "2")
    assert (code, out, err) == (0, "verdict: STAR\nwitness: x1=1\nZ: 1\n", "")
    # two disjoint copies of K5^(3): a peeled vertex leaves a copy with
    # cover number 3 beside the other
    k5s = [mask_of(c) for base in (0, 5) for c in combinations(range(base + 1, base + 6), 3)]
    path = write(tmp_path, "k5s.txt", serialize_hypergraph(Hypergraph.from_masks(10, 3, k5s)))
    code, out, err = run(capsys, "classify", "--file", path, "--s", "2")
    assert (code, out, err) == (1, "verdict: NONE\nZ: no decomposition\n", "")


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--r", "3", "--count-only")
    assert code == 0
    assert out.strip() == "5"


def test_enumerate_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--r", "3",
                       "--min-edges", "1")
    assert code == 0
    assert out.strip().endswith("# 4 classes")
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--r", "3",
                       "--min-edges", "1", "--json")
    assert len(json.loads(out)) == 4


def test_enumerate_ceiling_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "10", "--r", "3", "--count-only")
    assert code == 2
    assert "exceeds the enumeration ceiling 9" in err
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--r", "3", "--ceiling", "4",
                       "--count-only")
    assert (code, out) == (0, "5\n")
    assert run(capsys, "enumerate", "--n", "4", "--r", "3", "--ceiling", "3")[0] == 2


def test_verify_pass_and_report(capsys, tmp_path):
    target = str(tmp_path / "rep.json")
    code, out, _ = run(capsys, "verify", "COUNTS", "--json-report", target)
    assert code == 0
    assert "COUNTS: PASS" in out
    data = json.loads((tmp_path / "rep.json").read_text())
    assert data["passed"] is True
    assert data["counterexamples"] == []


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "NOPE")[0] == 2
    assert run(capsys, "verify", "FOLK", "--count", "5")[0] == 2


@pytest.mark.parametrize("values", ["3,x", "3,", "3 4"])
def test_verify_names_the_r_values_option_on_a_bad_list(capsys, values):
    # argparse named the private parser: "invalid _int_tuple value"
    assert usage_error(capsys, "verify", "COUNTS", "--r-values", values) == (
        2, "ifam verify: error: argument --r-values: expected comma-separated integers, "
           f"e.g. 3,4,5, got {values!r}")


@pytest.mark.parametrize("argv, params", [
    (["FOLK", "--max-support", "5", "--ceiling", "5"], {"max_support": 5, "ceiling": 5}),
    (["COUNTS", "--r-values", "3", "--n-max", "8"], {"r_values": [3], "n_max": 8}),
    (["KERNEL_PROPS", "--count", "5", "--seed", "2"], {"count": 5, "seed": 2}),
])
def test_verify_flags_reach_the_report(capsys, tmp_path, argv, params):
    target = str(tmp_path / "rep.json")
    code, out, _ = run(capsys, "verify", *argv, "--json-report", target)
    assert code == 0
    assert f"{argv[0]}: PASS" in out
    assert json.loads((tmp_path / "rep.json").read_text())["params"] == params


def test_verify_refuses_a_flag_the_statement_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "LEMMA_2EDGES", "--ceiling", "9")
    assert (code, out) == (2, "")
    assert "parameter not accepted by LEMMA_2EDGES" in err


def test_verify_flags_are_the_parameters_the_statements_take():
    import inspect

    from ifam import cli
    from ifam.verify import _HANDLERS

    taken = {name for handler in _HANDLERS.values()
             for name in inspect.signature(handler).parameters}
    assert len(set(cli._VERIFY_PARAMS)) == len(cli._VERIFY_PARAMS)
    assert set(cli._VERIFY_PARAMS) == taken


@pytest.mark.parametrize("statement", ["TH4_MAIN", "TH4_A", "TH4_B", "LEMMA_2EDGES"])
def test_verify_template_statements_refuse_n4(capsys, statement):
    code, _, err = run(capsys, "verify", statement, "--n", "4")
    assert code == 2
    assert f"{statement} is stated for n >= 6" in err


def test_verify_lemma_refuses_n_above_the_ceiling(capsys):
    code, out, err = run(capsys, "verify", "LEMMA_2EDGES", "--n", "10")
    assert (code, out) == (2, "")
    assert "n=10 exceeds the enumeration ceiling 9" in err


def test_verify_kernel_props_small(capsys):
    code, out, _ = run(capsys, "verify", "KERNEL_PROPS", "--count", "40",
                       "--seed", "3")
    assert code == 0
    assert "KERNEL_PROPS: PASS" in out


def fresh(code):
    """Run code in a fresh interpreter that imports ifam from this tree;
    return its last stdout line parsed as JSON."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ifam.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_only_hypergraph_and_verify():
    loaded = fresh("import ifam, json, sys; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.split(".")[0] == "ifam"] == [
        "ifam", "ifam.hypergraph", "ifam.verify"]
    assert "numpy" not in loaded


def test_every_module_imports_only_the_standard_library():
    # parsed, not run: an import inside a function or under TYPE_CHECKING
    # is checked too, which no run-time import of the package reaches
    found = set()
    for path in Path(ifam.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {name for name, _ in found} >= {"cli.py", "hypergraph.py", "verify.py"}
    assert sorted(pair for pair in found if pair[1] not in sys.stdlib_module_names) == []


def test_check_loads_no_engine_module(tmp_path):
    path = write(tmp_path, "h.txt", serialize_hypergraph(
        Hypergraph.from_vertex_sets(5, 3, [(1, 2, 3), (1, 4, 5), (2, 3, 4)])))

    def loaded_after(*argv):
        return fresh(
            "import json, sys, ifam.cli\n"
            f"assert ifam.cli.main({[*argv, '--file', path]!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))"
        )

    loaded = loaded_after("check")
    assert "ifam.io" in loaded
    for module in ("classifier", "constructions", "enumeration", "kernel", "sunflower"):
        assert f"ifam.{module}" not in loaded
    # the kernel command needs the kernel and its sunflower walk, and no
    # construction code
    loaded = loaded_after("kernel")
    assert "ifam.kernel" in loaded
    for module in ("classifier", "constructions", "enumeration"):
        assert f"ifam.{module}" not in loaded


def test_importing_the_verify_submodule_keeps_the_function():
    # the package binds verify eagerly, so loading the submodule of the
    # same name later, as the perfbench tracer does, cannot rebind it
    assert fresh(
        "import importlib, ifam.verify, ifam\n"
        "importlib.import_module('ifam.verify')\n"
        "import ifam.cli, ifam.classifier, ifam.kernel\n"
        "print(int(callable(ifam.verify) and ifam.verify.__module__ == 'ifam.verify'))"
    ) == 1


def test_every_public_name_resolves_lazily():
    got = fresh(
        "import importlib, json, ifam\n"
        "lazy = [n for n in ifam.__all__ if n not in vars(ifam)]\n"
        "origin = {n: importlib.import_module(f'ifam.{ifam._LAZY[n]}') for n in lazy}\n"
        "same = all(getattr(ifam, n) is getattr(origin[n], n) for n in lazy)\n"
        "cached = all(n in vars(ifam) for n in lazy)\n"
        "star = {}\n"
        "exec('from ifam import *', star)\n"
        "print(json.dumps({'lazy': lazy, 'same': same, 'cached': cached,\n"
        "                  'star': sorted(set(star) - {'__builtins__'}),\n"
        "                  'dir': dir(ifam), 'all': ifam.__all__,\n"
        "                  'kernel': ifam.kernel.__name__}))"
    )
    assert "classify" in got["lazy"] and "verify" not in got["lazy"]
    assert got["same"] and got["cached"]
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) <= set(got["dir"])
    assert got["kernel"] == "ifam.kernel"
    with pytest.raises(AttributeError):
        ifam.no_such_name  # noqa: B018


def test_each_submodule_all_lists_what_the_package_binds_from_it():
    import ast
    import importlib
    from pathlib import Path

    tree = ast.parse(Path(ifam.__file__).read_text(encoding="utf-8"))
    bound: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound.setdefault(node.module, set()).update(a.name for a in node.names)
    for name, module in ifam._LAZY.items():
        bound.setdefault(module, set()).add(name)
    # verify declares no __all__: the package binds its three public names eagerly
    eager_verify = bound.pop("verify")
    assert eager_verify == {"STATEMENTS", "VerificationReport", "verify"}
    for module, names in bound.items():
        assert set(importlib.import_module(f"ifam.{module}").__all__) == names, module
    assert set(ifam.__all__) == eager_verify.union(*bound.values())


def test_verify_help_lists_every_statement(capsys):
    from ifam.verify import STATEMENTS

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for statement in STATEMENTS:
        assert statement in out
