import copy
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecredits.algorithms import ALGORITHM_NAMES
from timecredits.algorithms.bundles import LEDGERS
from timecredits.cli import BUILTIN_SPECS, main, trial_seed
from timecredits.algorithms.sorting import merge_sort_recurrence

from oracles import spec_to_json


def test_run_merge_sort_ok(capsys):
    code = main(["run", "merge_sort", "--sizes", "0,16", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:4] == ["n", "trial", "cost", "bound"]
    assert len(lines) == 1 + 4  # header plus 2 sizes x 2 trials
    # the n = 0 rows show the exact base cost
    zero_rows = [l for l in lines[1:] if l.startswith("0,")]
    assert all(row.split(",")[2] == "2" and row.split(",")[3] == "2" for row in zero_rows)


@pytest.mark.skipif(sys.hash_info.width != 64, reason="pins the 64-bit tuple hash")
def test_trial_seed_is_the_tuple_hash():
    # `run` used to seed each trial with hash((seed, size, trial)); the
    # explicit seed must keep those inputs
    big = 2 ** 61
    seeds = [0, 1, -1, -2, 3, -7, 12345, big - 2, big - 1, big, big + 1, -big, 2 ** 64 + 5,
             -(2 ** 70) + 3, 10 ** 30]
    for parts in itertools.product(seeds, (0, 1, 5, 17, 4096, -3), range(4)):
        assert trial_seed(*parts) == hash(parts), parts
    assert trial_seed() == hash(())


def test_run_unknown_algorithm(capsys):
    code = main(["run", "nosuch"])
    assert code == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_run_bad_sizes(capsys):
    assert main(["run", "merge_sort", "--sizes", "abc"]) == 2
    assert main(["run", "merge_sort", "--sizes", "-4"]) == 2


def test_run_rejects_vacuous_trial_counts(capsys):
    assert main(["run", "merge_sort", "--trials", "0"]) == 2
    assert main(["run", "merge_sort", "--trials", "-3"]) == 2
    assert capsys.readouterr().out == ""


def test_run_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "select", "--sizes", "64", "--trials", "3", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["run", "select", "--sizes", "64", "--trials", "3", "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_markdown_format(capsys):
    code = main(["run", "binary_search", "--sizes", "8", "--trials", "1",
                 "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("| n")
    assert "|---" in out.splitlines()[1]


def test_recurrence_builtin_karatsuba(capsys):
    code = main(["recurrence", "--builtin", "karatsuba"])
    out = capsys.readouterr().out
    assert code == 0
    p_line = next(l for l in out.splitlines() if "exponent" in l)
    assert abs(float(p_line.split("=")[1]) - 1.5849625007) < 1e-6
    assert "bottom-heavy" in out
    assert "pass" in out


def test_recurrence_builtin_merge_sort(capsys):
    code = main(["recurrence", "--builtin", "merge_sort"])
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced" in out
    assert "Theta(n ln n)" in out


def test_recurrence_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(merge_sort_recurrence())))
    code = main(["recurrence", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced" in out
    # file-loaded specs have no concrete toll; the empirical pass is skipped
    assert "skipped" in out


def test_recurrence_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["recurrence", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["recurrence", str(missing)]) == 2
    assert main(["recurrence"]) == 2


def test_recurrence_poly_toll_roundtrip(tmp_path, capsys):
    path = tmp_path / "ms.json"
    data = {
        "name": "merge_sort_time",
        "x0": 2,
        "terms": [
            {"a": "1", "b": "1/2", "round": "floor"},
            {"a": "1", "b": "1/2", "round": "ceil"},
        ],
        "g_class": [1, 0],
        "g_poly": {"1": 4, "0": 4},
        "base": {"0": 2, "1": 2},
    }
    path.write_text(json.dumps(data))
    code = main(["recurrence", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced" in out and "pass" in out


@pytest.mark.parametrize("g_class,code", [([1, 0], 0), ([2, 0], 2), ([1, 1], 2), ([0, 0], 2)])
def test_recurrence_rejects_a_class_contradicting_the_toll(tmp_path, capsys, g_class, code):
    path = tmp_path / "ms.json"
    data = {
        "x0": 2,
        "terms": [{"a": "1", "b": "1/2", "round": "floor"},
                  {"a": "1", "b": "1/2", "round": "ceil"}],
        "g_class": g_class,
        "g_poly": {"2": 0, "1": 4, "0": 4},
        "base": {"0": 2, "1": 2},
    }
    path.write_text(json.dumps(data))
    assert main(["recurrence", str(path)]) == code
    if code == 2:
        assert "contradicts g_poly" in capsys.readouterr().err


@pytest.mark.parametrize("a, case, result", [
    ("1999999/1000000", "top-heavy", "Theta(n)"),
    ("2000001/1000000", "bottom-heavy", "Theta(n^1.0000007)"),
])
def test_recurrence_case_is_decided_exactly_near_balance(tmp_path, capsys, a, case, result):
    """T(n) = a T(n div 2) + n with a within 1e-6 of 2: p lies within 1e-6
    of the toll's power 1, yet the case is decided by the exact sign of
    a / 2 - 1, not called balanced."""
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "x0": 1,
        "terms": [{"a": a, "b": "1/2", "round": "floor"}],
        "g_class": [1, 0],
        "g_poly": {"1": 1},
        "base": {"0": 1},
    }))
    assert main(["recurrence", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"case: {case}", f"result: {result}"]


def test_amortized_dynarray(capsys):
    code = main(["amortized", "dynarray", "--ops", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "per-op inequality: pass" in out
    assert "telescoped inequality: pass" in out
    assert "K = 4" in out


def test_amortized_rejects_empty_script(capsys):
    assert main(["amortized", "dynarray", "--ops", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ops" in captured.err


def test_amortized_insufficient_multiplier(capsys):
    code = main(["amortized", "splay_tree", "--ops", "200", "--seed", "1",
                 "--multiplier", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "replay" in out


def test_amortized_ledger_file(tmp_path, capsys):
    path = tmp_path / "ledger.csv"
    code = main(["amortized", "skew_heap", "--ops", "500", "--seed", "2",
                 "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "op,n,f_t,f_at,P_before,P_after,slack"
    assert len(lines) == 502


def test_report_all_pass(capsys):
    code = main(["report", "--trials", "1", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("|") and "---" not in l]
    assert len(body) == 1 + 9
    assert all("pass" in row for row in body[1:])


def test_report_fault_injection_fails(monkeypatch, capsys):
    """An off-by-one in one runtime function makes its report row fail."""
    import timecredits.cli as cli_mod
    from timecredits.algorithms import all_bundles

    def faulted_bundles():
        bundles = all_bundles()
        weak = dict(bundles["merge_sort"].consts)
        weak["base"] -= 1
        bundles["merge_sort"] = bundles["merge_sort"].with_consts(weak)
        return bundles

    monkeypatch.setattr(cli_mod, "all_bundles", faulted_bundles)
    code = main(["report", "--trials", "1", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 1
    merge_row = next(l for l in out.splitlines() if "merge_sort" in l)
    assert "FAIL" in merge_row


def test_recurrence_rejects_out_of_range_ratio(tmp_path):
    bad = tmp_path / "bad_b.json"
    bad.write_text(
        json.dumps(
            {
                "x0": 2,
                "terms": [{"a": "1", "b": "3/2", "round": "ceil"}],
                "g_class": [1, 0],
                "base": {},
            }
        )
    )
    assert main(["recurrence", str(bad)]) == 2


def test_report_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["report", "--trials", "1", "--seed", "3", "--format", "csv",
                 "--out", str(a)]) == 0
    assert main(["report", "--trials", "1", "--seed", "3", "--format", "csv",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_bytes_do_not_depend_on_the_string_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "timecredits.cli", "report", "--trials", "1",
             "--seed", "3", "--format", "csv"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# a credit term's hash mixes in its class object's, which may differ between
# processes even at one string hash seed
_MATCH_FAILURE_TEXT = (
    "from timecredits.algorithms.bundles import discharge_all, get_bundle\n"
    "bundle = get_bundle('binary_search')\n"
    "consts = dict(bundle.consts, level=bundle.consts['level'] - 1)\n"
    "print([r.detail for r in discharge_all(bundle.with_consts(consts)) if not r.success])\n"
)


@pytest.mark.parametrize("argv", [
    *(["-m", "timecredits.cli", "recurrence", "--builtin", name] for name in sorted(BUILTIN_SPECS)),
    ["-c", _MATCH_FAILURE_TEXT],
], ids=[*(f"recurrence-{name}" for name in sorted(BUILTIN_SPECS)), "match-failure"])
def test_term_outputs_do_not_depend_on_the_string_hash_seed(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
        outputs.append((done.returncode, done.stdout, done.stderr))
    assert outputs[0][1] and outputs[0] == outputs[1]
    if argv[0] == "-c":
        assert b"no match for" in outputs[0][1]


@pytest.mark.parametrize("argv", [
    ["report", "--trials", "1", "--seed", "5", "--format", "csv"],
    ["amortized", "splay_tree", "--ops", "200", "--seed", "1", "--multiplier", "1"],
], ids=lambda argv: argv[0])
def test_verdicts_do_not_depend_on_asserts(argv):
    """Under `python -O`, which drops every assert, the output and exit
    code are the pinned ones."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-m", "timecredits.cli", *argv],
                          env=env, capture_output=True, text=True)
    with open(os.path.join(root, "tests", "cli_golden.json")) as fh:
        pinned = json.load(fh)[" ".join(argv)]
    assert (done.returncode, done.stdout) == (pinned["code"], pinned["stdout"])


def test_recurrence_with_b_near_one_gives_a_verdict(tmp_path, capsys):
    # thousands of levels from 2^16 down to the base case
    path = tmp_path / "near_one.json"
    path.write_text(json.dumps({
        "x0": 1, "terms": [{"a": "1", "b": "999/1000", "round": "floor"}],
        "g_class": [0, 0], "g_poly": {"0": 1}, "base": {"0": 1},
    }))
    assert main(["recurrence", str(path)]) in (0, 1)
    assert "empirical check: ratio in" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "merge_sort", "--sizes", "4", "--trials", "1"],
    ["recurrence", "--builtin", "merge_sort"],
    ["amortized", "dynarray", "--ops", "10"],
    ["report", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_out_to_a_missing_directory_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    assert main([*argv, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not target.parent.exists()


# spec files whose shape is wrong, each with the reason it is refused;
# a JSON true or false is not a number even where Python reads it as 1 or 0
MALFORMED_SPECS = {
    "top-level-list": ("[1, 2]", "a spec must be a JSON object, got list"),
    "terms-null": ('{"x0": 2, "terms": null, "g_class": [0, 0]}', "terms not shaped"),
    "terms-string": ('{"x0": 2, "terms": "abc", "g_class": [0, 0]}', "terms not shaped"),
    "base-null": ('{"x0": 2, "terms": [{"a": "1", "b": "1/2"}], "g_class": [0, 0], "base": null}',
                  "base not shaped"),
    "x0-bool": ('{"x0": true, "terms": [{"a": "1", "b": "1/2"}], "g_class": [0, 0]}',
                "x0 not shaped"),
    "g_class-bool": ('{"x0": 2, "terms": [{"a": "1", "b": "1/2"}], "g_class": [true, 0]}',
                     "g_class not shaped"),
    "a-bool": ('{"x0": 2, "terms": [{"a": true, "b": "1/2"}], "g_class": [0, 0]}',
               "terms not shaped"),
}


@pytest.mark.parametrize("text,reason", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
def test_recurrence_malformed_spec_exits_2(tmp_path, capsys, text, reason):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["recurrence", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load spec:") and reason in err


def test_recurrence_missing_base_in_the_empirical_check_exits_2(tmp_path, capsys):
    path = tmp_path / "big_x0.json"
    path.write_text(json.dumps({
        "x0": 10 ** 6, "terms": [{"a": "1", "b": "1/2", "round": "ceil"}],
        "g_class": [0, 0], "g_poly": {"0": 1}, "base": {"0": 1},
    }))
    assert main(["recurrence", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: no base value")


_MERGE_SORT_SPEC = {
    "x0": 2,
    "terms": [{"a": "1", "b": "1/2", "round": "floor"}, {"a": "1", "b": "1/2", "round": "ceil"}],
    "g_class": [1, 0], "g_poly": {"1": 4, "0": 4}, "base": {"0": 2, "1": 2},
}

# specs whose numbers leave float range, each rejected with one line
OUT_OF_RANGE_SPECS = {
    "tiny-b": ({"terms": [{"a": "1", "b": "1/100000000000"}]},
               "error: sum of a * b^p is out of float range at p=-32"),
    "huge-a": ({"terms": [{"a": "1e400", "b": "1/2"}]},
               "error: sum of a * b^p is out of float range at p=-32"),
    "huge-power": ({"g_class": [100000, 0], "g_poly": {"100000": 1}},
                   "error: cannot load spec: a g_class power must lie in [0, 64], got 100000"),
    "largest-power": ({"g_class": [64, 0], "g_poly": {"64": 1}},
                      "error: f(65536) or its class is out of float range"),
}


@pytest.mark.parametrize("change,message", OUT_OF_RANGE_SPECS.values(), ids=OUT_OF_RANGE_SPECS)
def test_recurrence_out_of_float_range_exits_2(tmp_path, capsys, change, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_MERGE_SORT_SPEC, **change}))
    assert main(["recurrence", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("base,low", [(-8, "0"), (-80, "-12.98")], ids=["zero", "negative"])
def test_recurrence_with_f_not_positive_fails_without_a_spread(tmp_path, capsys, base, low):
    # f(2^k) = base + k, so some sampled ratio is zero or negative
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "x0": 2, "terms": [{"a": 1, "b": "1/2"}], "g_class": [0, 0], "g_poly": {"0": 1},
        "base": {"0": base, "1": base},
    }))
    assert main(["recurrence", str(path)]) == 1
    out, err = capsys.readouterr()
    last = out.splitlines()[-1]
    assert err == "" and last.startswith(f"empirical check: ratio in [{low}, ")
    assert last.endswith("], f is not positive: fail")


@pytest.mark.parametrize("change,message", [
    ({"x0": 2.9}, "x0 must be an integer, got 2.9"),
    ({"base": {"0": 2, "1": 2.5}}, "a base value must be an integer, got 2.5"),
    ({"base": {"0": 2, "1.5": 2}}, "a base key must be an integer, got '1.5'"),
    ({"g_poly": {"1.5": 4, "0": 4}}, "a g_poly power must be an integer, got '1.5'"),
    ({"g_poly": {"1": 4.5, "0": 4}}, "a g_poly coefficient must be an integer, got 4.5"),
    ({"g_class": [1.5, 0]}, "a g_class power must be an integer, got 1.5"),
], ids=["x0", "base-value", "base-key", "g_poly-power", "g_poly-coefficient", "g_class"])
def test_recurrence_rejects_a_fractional_integer_field(tmp_path, capsys, change, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_MERGE_SORT_SPEC, **change}))
    assert main(["recurrence", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load spec: {message}\n"


@pytest.mark.parametrize("g_class", [[], [1], [1, 0, 0]], ids=["empty", "one", "three"])
def test_recurrence_rejects_a_g_class_not_of_two_numbers(tmp_path, capsys, g_class):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_MERGE_SORT_SPEC, "g_class": g_class}))
    assert main(["recurrence", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot load spec: malformed spec: g_class not shaped as documented\n"
    )


def test_recurrence_loads_integral_floats(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_MERGE_SORT_SPEC))
    assert main(["recurrence", str(path)]) == 0
    expected = capsys.readouterr().out
    path.write_text(json.dumps({**_MERGE_SORT_SPEC, "x0": 2.0, "g_class": [1.0, 0],
                                "g_poly": {"1": 4.0, "0": 4}, "base": {"0": 2.0, "1": 2}}))
    assert main(["recurrence", str(path)]) == 0
    assert capsys.readouterr().out == expected


def _builtin_spec_jsons() -> list[dict]:
    """Each builtin spec as JSON, with a polynomial toll of its class so
    that the empirical check runs too."""
    out = []
    for _, make in sorted(BUILTIN_SPECS.items()):
        data = spec_to_json(make())
        out.append(data)
        power, logs = data["g_class"]
        if logs == 0:
            out.append({**data, "g_poly": {str(power): 3, "0": 1}})
    return out


_BUILTIN_SPEC_JSONS = _builtin_spec_jsons()
_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(-10, 10), st.sampled_from([10 ** 6, 10 ** 18, -(10 ** 18), 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([2.5, 0.5, 2.0, 1e300]),
    st.sampled_from(["1e400", "1/100000000000", "1/" + "9" * 400, "1/0", "nan", "3/2", "1/3"]),
    st.builds("{}/{}".format, st.integers(-9, 10 ** 12), st.integers(1, 10 ** 12)),
)
_POWERS = st.one_of(
    st.integers(-3, 70).map(str), st.sampled_from(["100000", "1.5", "2.0", "x", "1e400"])
)


@st.composite
def _mutated_specs(draw):
    """A builtin spec with one to three fields replaced: values anywhere,
    and the keys of the base table and the polynomial toll."""
    data = copy.deepcopy(draw(st.sampled_from(_BUILTIN_SPEC_JSONS)))
    for _ in range(draw(st.integers(1, 3))):
        # (container, key, whether the key itself may be replaced)
        slots = [(data, key, False) for key in ("x0", "terms", "g_class", "g_poly", "base")]
        terms, g_class = data.get("terms"), data.get("g_class")
        if isinstance(terms, list):
            slots += [(terms, i, False) for i in range(len(terms))]
            slots += [(t, key, False) for t in terms if isinstance(t, dict)
                      for key in ("a", "b", "round")]
        if isinstance(g_class, list):
            slots += [(g_class, i, False) for i in range(len(g_class))]
        for table in (data.get("base"), data.get("g_poly")):
            if isinstance(table, dict):
                slots += [(table, key, True) for key in table]
        where, key, rekey = draw(st.sampled_from(slots))
        if rekey and draw(st.booleans()):
            where[draw(_POWERS)] = where.pop(key)
        else:
            where[key] = draw(_VALUES)
    return data


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_mutated_specs())
@example({**_MERGE_SORT_SPEC, **OUT_OF_RANGE_SPECS["tiny-b"][0]})
@example({**_MERGE_SORT_SPEC, **OUT_OF_RANGE_SPECS["huge-a"][0]})
@example({**_MERGE_SORT_SPEC, **OUT_OF_RANGE_SPECS["huge-power"][0]})
@example({**_MERGE_SORT_SPEC, "x0": 2.9, "base": {"0": 2, "1": 2.5}})
def test_mutated_specs_get_an_exit_code_not_a_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["recurrence", path])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("scheme", ["dynarray", "skew_heap", "splay_tree"])
@pytest.mark.parametrize("multiplier", ["0", "-1"])
def test_amortized_rejects_a_multiplier_below_one(capsys, scheme, multiplier):
    # 0 used to mean "the default" and pass at the default multiplier
    assert main(["amortized", scheme, "--ops", "20", f"--multiplier={multiplier}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--multiplier" in captured.err


_UNWRITABLE = ("missing-dir", "a-directory")


_SPEC_PATHS = ("spec-file", "missing-file", "a-directory")


@st.composite
def _cli_argvs(draw):
    """Argument lists for `run`, `amortized`, `report` and `recurrence`:
    sizes up to 64, up to 200 operations, any seed, multipliers down to -3,
    builtin names or spec paths (a builtin spec, possibly mutated, a missing
    file or a directory), and `--out` paths that may not be writable.  A
    spec path is returned as its kind, with the spec to write for a file."""
    command = draw(st.sampled_from(["run", "amortized", "report", "recurrence"]))
    seed = draw(st.one_of(st.integers(-5, 5), st.integers(-(2 ** 70), 2 ** 70)))
    spec = None
    if command == "run":
        sizes = draw(st.lists(st.integers(-1, 64), min_size=1, max_size=3))
        argv = ["run", draw(st.sampled_from([*ALGORITHM_NAMES, "no_such_study"])),
                "--sizes=" + ",".join(map(str, sizes)),
                f"--trials={draw(st.integers(0, 3))}",
                "--format", draw(st.sampled_from(["csv", "markdown"]))]
    elif command == "amortized":
        argv = ["amortized", draw(st.sampled_from(sorted(LEDGERS))),
                f"--ops={draw(st.integers(-1, 200))}"]
        multiplier = draw(st.one_of(st.none(), st.integers(-3, 20)))
        if multiplier is not None:
            argv.append(f"--multiplier={multiplier}")
    elif command == "recurrence":
        argv = ["recurrence"]
        path = draw(st.sampled_from([None, *_SPEC_PATHS]))
        if path is not None:
            argv.append(path)
        if path == "spec-file":
            spec = draw(st.one_of(st.sampled_from(_BUILTIN_SPEC_JSONS), _mutated_specs()))
        if path is None or draw(st.booleans()):
            argv.append("--builtin=" + draw(st.sampled_from([*BUILTIN_SPECS, "no_such_spec"])))
    else:
        # a report always runs every study at its own sizes, so keep it to one trial
        argv = ["report", f"--trials={draw(st.integers(-1, 1))}"]
    if command != "recurrence":
        argv.append(f"--seed={seed}")
    out = draw(st.sampled_from([None, None, "writable", *_UNWRITABLE]))
    return argv, out, spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cli_argvs())
@example((["amortized", "dynarray", "--ops=20", "--multiplier=0"], None, None))
@example((["amortized", "dynarray", "--ops=20", "--multiplier=-1"], None, None))
def test_cli_arguments_get_an_exit_code_not_a_traceback(case):
    argv, out, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"spec-file": os.path.join(tmp, "spec.json"), "a-directory": tmp,
                 "missing-file": os.path.join(tmp, "missing.json")}
        if spec is not None:
            with open(paths["spec-file"], "w") as fh:
                json.dump(spec, fh)
        argv = [paths.get(arg, arg) for arg in argv]
        if out is not None:
            target = {"writable": os.path.join(tmp, "out.txt"), "a-directory": tmp,
                      "missing-dir": os.path.join(tmp, "missing", "out.txt")}[out]
            argv = [*argv, "--out", target]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    multiplier = next((int(a.split("=")[1]) for a in argv if a.startswith("--multiplier=")), 1)
    if multiplier < 1 or out in _UNWRITABLE:
        assert code == 2
