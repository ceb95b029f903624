import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbts import parent_ham as ph
from hbts import tensor_core as tc
from hbts.cli import main
from hbts.tensor_core import paper_lambda_path

from conftest import flip_isometry, run_capped, write_entries


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out


def run_err(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_validate_paper_fixture(tmp_path, capsys):
    out_file = str(tmp_path / "v.json")
    code, _ = run(["validate", "--isometry", paper_lambda_path(), "-o", out_file], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    assert doc["isometry"]["passed"] is True


def test_validate_bad_isometry_exits_one(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    tc.save_isometry(tc.Isometry(2, np.ones((4, 2))), bad)
    code, out = run(["validate", "--isometry", bad], capsys)
    assert code == 1
    assert json.loads(out)["isometry"]["residual"] == 4.0


def test_random_isometry_round_trip(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    code, _ = run(["random-isometry", "--d", "3", "--seed", "11", "-o", path], capsys)
    assert code == 0
    code, _ = run(["validate", "--isometry", path], capsys)
    assert code == 0


def test_thermo_report(tmp_path, capsys):
    out_file = str(tmp_path / "t.json")
    code, _ = run(["thermo", "--isometry", "paper", "--nu", "4", "-o", out_file], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    assert doc["nu"] == 4 and doc["rank"] == 12 and doc["mixing"] is True


def test_exponents_sorted_by_modulus(tmp_path, capsys):
    seeded = str(tmp_path / "r3.json")
    assert main(["random-isometry", "--d", "3", "--seed", "7", "-o", seeded]) == 0
    for isometry in ("paper", seeded):
        out_file = str(tmp_path / "e.json")
        code, _ = run(["exponents", "--isometry", isometry, "-o", out_file], capsys)
        assert code == 0
        doc = json.loads(open(out_file).read())
        mods = [e["modulus"] for e in doc["entries"]]
        assert mods == sorted(mods, reverse=True)
        assert doc["diagonalizable"] is True


def test_correlate_row_count(tmp_path, capsys):
    out_file = str(tmp_path / "c.csv")
    code, _ = run(
        ["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z",
         "--m-max", "10", "-o", out_file], capsys)
    assert code == 0
    lines = open(out_file).read().strip().splitlines()
    assert lines[0] == "delta_alpha,re,im"
    assert len(lines) == 12  # header + 11 rows
    magnitudes = [abs(float(line.split(",")[1])) for line in lines[1:]]
    assert all(a >= b for a, b in zip(magnitudes, magnitudes[1:]))


def test_finite_check(tmp_path, capsys):
    out_file = str(tmp_path / "f.json")
    code, _ = run(["finite-check", "--isometry", "paper", "--top", "diag",
                   "--n-max", "3", "-o", out_file], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    assert doc["passed"] is True and doc["max_residual"] <= 1e-10


def test_parent_matches_library(tmp_path, capsys):
    out_file = str(tmp_path / "p.json")
    code, _ = run(["parent", "--isometry", "paper", "-o", out_file], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    hs = ph.build_interaction(tc.paper_isometry())
    assert doc["nu"] == hs.nu and doc["kernel_dim"] == hs.kernel_dim
    flat = np.array(doc["h_term"])
    mat = (flat[0::2] + 1j * flat[1::2]).reshape(16, 16)
    assert np.abs(mat - hs.h_term).max() < 1e-15


def test_diag_fig_report(tmp_path, capsys):
    out_file = str(tmp_path / "d.json")
    hist = str(tmp_path / "h.csv")
    eigs = str(tmp_path / "ev.csv")
    code, _ = run(["diag", "--isometry", "paper", "--N", "8", "-o", out_file,
                   "--histogram-csv", hist, "--eigenvalues-csv", eigs], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    assert doc["degeneracy"] == 32
    assert len(doc["spectrum"]) == 256
    assert open(hist).readline().strip() == "bin_left,bin_right,count"
    assert len(open(eigs).read().strip().splitlines()) == 257


@pytest.mark.parametrize("weights", ["1e7,1,1,1", "1e12,1,1,1"])
def test_parent_takes_large_weights(weights, capsys):
    # the term's roundoff asymmetry grows with its largest weight; it is judged relative to the term
    assert run(["parent", "--isometry", "paper", "--weights", weights], capsys)[0] == 0


def test_diag_ground_tolerance_is_absolute(capsys):
    argv = ["diag", "--isometry", "paper", "--N", "8", "--weights", "1e7,1,1,1"]
    code, out = run(argv + ["--tau-gs", "1e-6"], capsys)
    assert code == 0 and json.loads(out)["degeneracy"] == 32
    code, out = run(argv + ["--tau-gs", "1e-10"], capsys)
    assert code == 0 and json.loads(out)["degeneracy"] == 1


def test_subspace_check(tmp_path, capsys):
    out_file = str(tmp_path / "s.json")
    code, _ = run(["subspace-check", "--isometry", "paper", "--N", "8", "-o", out_file], capsys)
    assert code == 0
    doc = json.loads(open(out_file).read())
    assert doc["dim_union"] == 32 and doc["unfrustrated"] is True


def test_parent_hamiltonian_reports_are_pinned(tmp_path, capsys):
    # figures of the dense complex assembly these commands used before real arithmetic;
    # a drift beyond roundoff in either command fails here
    out_file = str(tmp_path / "d.json")
    assert main(["diag", "--isometry", "paper", "--N", "8", "-o", out_file]) == 0
    doc = json.loads(open(out_file).read())
    assert doc["degeneracy"] == 32
    spectrum = doc["spectrum"]
    assert abs(doc["ground_energy"] - -3.1972960094995956e-16) < 1e-12
    assert abs(spectrum[32] - 0.031369809623281314) < 1e-12
    assert abs(spectrum[-1] - 0.7687390907274507) < 1e-12
    assert main(["subspace-check", "--isometry", "paper", "--N", "8", "-o", out_file]) == 0
    doc = json.loads(open(out_file).read())
    assert (doc["dim_grown"], doc["dim_translated"], doc["dim_union"]) == (16, 16, 32)
    assert doc["unfrustrated"] is True
    assert abs(doc["max_h_residual"] - 5.1989240931163111e-16) < 1e-12
    assert abs(doc["max_local_energy"] - 5.0749047318559832e-17) < 1e-12


def test_mera_bounds_stdout(capsys):
    code, out = run(["mera-bounds", "--topology", "ternary", "--d", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["nu"], doc["bound"], doc["max"]) == (7, 96, 128)


def test_resource_error_exits_two(capsys):
    code, _ = run(["diag", "--isometry", "paper", "--N", "20"], capsys)
    assert code == 2


def test_a_huge_ring_is_refused_on_its_budget(capsys):
    # 2^20000 has 6021 digits, more than Python converts to a string: the budget names it as a power
    code, err = run_err(["diag", "--isometry", "paper", "--N", "20000"], capsys)
    assert code == 2
    assert err == "error: a ring of 20000 sites has dimension d^N = 2^20000, budget is 4096\n"


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_thermo_of_a_non_mixing_tree_exits_one(tmp_path, capsys, nu):
    # v|0> = |11>, v|1> = |00>: the averaged descend channel has the peripheral eigenvalue -1
    v = np.zeros((4, 2))
    v[0b11, 0] = v[0b00, 1] = 1.0
    path = str(tmp_path / "swap.json")
    tc.save_isometry(tc.Isometry(2, v), path)
    code, err = run_err(["thermo", "--isometry", path, "--nu", str(nu)], capsys)
    assert code == 1
    assert err.startswith("error: averaged descend channel is not mixing") and err.count("\n") == 1


def test_out_of_memory_exits_two():
    # a 20-site ring has sector blocks of 52488 x 52488, tens of GiB each, beyond the child's 1.5 GiB
    argv = ["-m", "hbts", "diag", "--isometry", "paper", "--N", "20", "--max-dim", "2000000"]
    proc = run_capped(argv, 3 << 29)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_missing_file_exits_two(capsys):
    code, _ = run(["thermo", "--isometry", "no-such-file.json"], capsys)
    assert code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for target in (a, b):
        assert main(["diag", "--isometry", "paper", "--N", "6", "-o", target]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_bundled_file_matches_code():
    lam = tc.load_isometry(paper_lambda_path())
    assert lam.d == 2
    assert np.array_equal(lam.v, tc.paper_isometry().v)


@pytest.mark.parametrize(
    "entries, argv",
    [
        ([[0, 2, 0, 1, 0]], ["validate", "--isometry", "{}"]),
        ([[-1, 0, 0, 1, 0]], ["validate", "--isometry", "{}"]),
        ([[0, 2, 1, 0]], ["validate", "--top", "{}"]),
        ([[-1, 0, 1, 0]], ["correlate", "--isometry", "paper", "--theta", "{}", "--theta-prime", "z"]),
    ],
)
def test_out_of_range_index_exits_two(tmp_path, capsys, entries, argv):
    path = write_entries(tmp_path / "bad.json", 2, entries)
    code, err = run_err([a.format(path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_missing_kernel_exits_two(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert main(["random-isometry", "--d", "2", "--seed", "3", "-o", path]) == 0
    code, err = run_err(["parent", "--isometry", path, "--nu", "2"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("nu", ["1", "5", "x", "2.5"])
def test_bad_window_exits_two(capsys, nu):
    code, err = run_err(["parent", "--isometry", "paper", "--nu", nu], capsys)
    assert code == 2
    assert err.startswith("error: interaction window must be 2, 3, 4 or 'auto'")


def test_validate_rejects_top_of_other_dimension(tmp_path, capsys):
    path = str(tmp_path / "r3.json")
    tc.save_isometry(tc.random_isometry(3, 1), path)
    code, err = run_err(["validate", "--isometry", path, "--top", "diag", "--d", "2"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "doc",
    [
        [[0, 0, 0, 1, 0]],
        {"d": 2, "entries": None},
        {"d": 2, "entries": [[0, 0, 0, "1", 0]]},
        {"d": 2.7, "entries": [[0, 0, 0, 1, 0]]},
        {"d": 2, "entries": [[0, 0, 0, 10 ** 400, 0]]},
    ],
)
def test_malformed_entry_file_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, err = run_err(["validate", "--isometry", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "bad.json" in err


@pytest.mark.parametrize("flag", ["--isometry", "--top"])
def test_huge_d_exits_two(tmp_path, capsys, flag):
    path = write_entries(tmp_path / "huge.json", 10 ** 5, [])
    code, err = run_err(["validate", flag, path], capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, text", [("huge_d.json", '{"d": 1%s, "entries": []}' % ("0" * 5000)),
                                        ("truncated.json", '{"d": 2,\n')], ids=["huge_d", "truncated"])
def test_entry_file_json_refuses_is_named(tmp_path, capsys, name, text):
    # a d of 5001 digits exceeds the integer conversion limit of json; the other file ends inside its object
    path = tmp_path / name
    path.write_text(text)
    code, err = run_err(["thermo", "--isometry", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: %s: " % path) and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["NaN", "1e400"])
def test_non_finite_observable_exits_two(tmp_path, capsys, value):
    path = tmp_path / "theta.json"
    path.write_text('{"d": 2, "entries": [[0, 0, %s, 0]]}' % value)
    code, err = run_err(["correlate", "--isometry", "paper", "--theta", str(path), "--theta-prime", "z"], capsys)
    assert code == 2
    assert err.startswith("error:") and "theta.json" in err


@pytest.mark.parametrize("d", [1, 3])
def test_observable_of_other_dimension_exits_two(tmp_path, capsys, d):
    path = write_entries(tmp_path / "theta.json", d, [[0, 0, 1.0, 0.0]])
    code, err = run_err(["correlate", "--isometry", "paper", "--theta", path, "--theta-prime", "z"], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "d=%d" % d in err and "d=2" in err


@pytest.mark.parametrize("command", ["thermo", "parent"])
def test_one_dimensional_isometry_exits_two(tmp_path, capsys, command):
    path = write_entries(tmp_path / "d1.json", 1, [[0, 0, 0, 1.0, 0.0]])
    code, err = run_err([command, "--isometry", path], capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "d=1" in err


def test_correlate_without_a_mixing_pair_channel_exits_one(tmp_path, capsys):
    path = str(tmp_path / "flip.json")
    tc.save_isometry(flip_isometry(), path)
    code, err = run_err(["correlate", "--isometry", path, "--theta", "z", "--theta-prime", "z"], capsys)
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_overflowing_observables_exit_two(tmp_path, capsys):
    path = write_entries(tmp_path / "big.json", 2, [[0, 0, 1e200, 0.0], [1, 1, 1e200, 0.0]])
    code, err = run_err(["correlate", "--isometry", "paper", "--theta", path, "--theta-prime", path], capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_overflowing_series_exits_two(capsys, monkeypatch):
    from hbts import correlators

    series = correlators.pair_descend_series
    monkeypatch.setattr(correlators, "pair_descend_series",
                        lambda *args: ((delta, value * 1e300 * 1e300) for delta, value in series(*args)))
    code, err = run_err(["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z"], capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# Moderate integers stay small so no example allocates a large array; the
# huge ones must be refused before anything is allocated.
JSON_NUMBERS = st.sampled_from([2 ** 63, 10 ** 400, -(10 ** 400)]) | st.integers(-64, 64) | st.floats()
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(["d", "entries", "x"]), kids, max_size=3),
    max_leaves=12,
)
VALID_FILES = [
    {"d": 2, "entries": [[0, 1, 0, 1.0, 0.0], [0, 0, 1, 0.7071067811865476, 0.0], [1, 1, 1, 0.7071067811865476, 0.0]]},
    {"d": 2, "entries": [[0, 0, 0.7071067811865476, 0.0], [1, 1, 0.7071067811865476, 0.0]]},
]


@st.composite
def mutated_files(draw):
    """A valid isometry or two-index file with one key, entry or cell replaced by a fuzzed value."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_FILES)))
    value = draw(JSON_NUMBERS | st.integers(0, 3) | st.floats(-2, 2) | JSON_DOCS)
    target = draw(st.sampled_from(["d", "entries", "entry", "cell", "cell"]))  # twice: most mutants keep the shape
    if target in ("d", "entries"):
        doc[target] = value
    else:
        entry = draw(st.sampled_from(doc["entries"]))
        if target == "entry":
            doc["entries"][doc["entries"].index(entry)] = value
        else:
            entry[draw(st.integers(0, len(entry) - 1))] = value
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(doc=JSON_DOCS | mutated_files())
def test_fuzzed_entry_files_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["validate", "--isometry", path],
            ["validate", "--top", path],
            ["correlate", "--isometry", "paper", "--theta", path, "--theta-prime", "z", "--m-max", "1"],
        ):
            assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["thermo", "--isometry", "product", "--d", "0"],
        ["validate", "--top", "diag", "--d", "0"],
        ["validate", "--top", "corner", "--d", "1"],
        ["thermo", "--isometry", "paper", "--d", "3"],
        ["thermo", "--isometry", "{iso3}", "--d", "2"],
        ["validate", "--top", "{top3}", "--d", "2"],
        ["finite-check", "--isometry", "paper", "--top", "{top3}"],
    ],
)
def test_d_other_than_the_input_exits_two(tmp_path, capsys, argv):
    files = {"iso3": str(tmp_path / "iso3.json"), "top3": str(tmp_path / "top3.json")}
    tc.save_isometry(tc.random_isometry(3, 1), files["iso3"])
    tc.save_top(tc.TopTensor(3, np.eye(3) / np.sqrt(3)), files["top3"])
    code, err = run_err([a.format(**files) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["diag", "--isometry", "paper", "--N", "6", "--tau-gs", "nan"],
        ["diag", "--isometry", "paper", "--N", "6", "--tau-gs", "-1"],
        ["subspace-check", "--isometry", "paper", "--N", "6", "--tau-gs", "-1"],
        ["validate", "--isometry", "paper", "--tol", "nan"],
        ["validate", "--isometry", "paper", "--tol", "inf"],
        ["finite-check", "--isometry", "paper", "--top", "diag", "--tol", "-1"],
        ["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z", "--m-max", "-1"],
    ],
)
def test_bad_tolerance_or_size_exits_two(capsys, argv):
    code, err = run_err(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z", "--m-max", "-1"],
         "error: --m-max must be an integer >= 0, got -1"),
        (["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z", "--m-max", "1024"],
         "error: --m-max must be an integer <= 1023, got 1024"),
        (["correlate", "--isometry", "paper", "--theta", "z", "--theta-prime", "z", "--m-max", "100000000"],
         "error: --m-max must be an integer <= 1023, got 100000000"),
        (["parent", "--isometry", "paper", "--weights", "abc"],
         "error: --weights takes comma-separated positive numbers, got 'abc'"),
        (["diag", "--isometry", "paper", "--N", "6", "--weights", "1,x", "--tau-gs", "0"],
         "error: --weights takes comma-separated positive numbers, got '1,x'"),
        (["validate", "--isometry", "paper", "--tol", "nan"], "error: --tol must be a finite number >= 0, got nan"),
        (["subspace-check", "--isometry", "paper", "--N", "6", "--tau-gs", "inf"],
         "error: --tau-gs must be a finite number >= 0, got inf"),
        (["diag", "--isometry", "paper", "--N", "6", "--bins", "0"], "error: --bins must be an integer >= 1, got 0"),
        (["diag", "--isometry", "paper", "--N", "6", "--bins", "100000000"],
         "error: --bins must be an integer <= 10000, got 100000000"),
        (["diag", "--isometry", "paper", "--N", "6", "--max-dim", "0"],
         "error: --max-dim must be an integer >= 1, got 0"),
        (["subspace-check", "--isometry", "paper", "--N", "6", "--max-dim", "-1"],
         "error: --max-dim must be an integer >= 1, got -1"),
        (["finite-check", "--isometry", "paper", "--top", "diag", "--max-amplitudes", "0"],
         "error: --max-amplitudes must be an integer >= 1, got 0"),
    ],
)
def test_bad_option_is_named_in_its_message(capsys, argv, message):
    code, captured = main(argv), capsys.readouterr()
    assert code == 2 and captured.err.strip() == message
    assert captured.out == ""  # refused before any row or report is written
