"""CLI behaviour: flags, formats, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balacyc import cli, complexes, cyclo_family, sweeps

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cyclo_table_output(capsys):
    code, out, _ = run(capsys, "cyclo", "6")
    assert code == 0
    assert out == "1 -1 1\n"
    code, out, _ = run(capsys, "cyclo", "1")
    assert code == 0
    assert out == "-1 1\n"


def test_cyclo_105_contains_minus_two(capsys):
    code, out, _ = run(capsys, "cyclo", "105")
    assert code == 0
    assert out.split()[7] == "-2"


def test_cyclo_json_schema(capsys):
    code, out, _ = run(capsys, "cyclo", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["coefficients"] == ["1", "-1", "1"]


def test_malformed_n_is_usage_error(capsys):
    assert run(capsys, "cyclo", "0")[0] == 2
    assert run(capsys, "cyclo", "banana")[0] == 2
    assert run(capsys, "nonsense-command")[0] == 2


def test_homology_groups_json(capsys):
    code, out, _ = run(capsys, "homology", "--groups", "[[2],[3]]", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["homology"]["1"] == {"rank": 2, "torsion": []}
    assert data["homology"]["0"] == {"rank": 0, "torsion": []}


def test_homology_primes_subset(capsys):
    code, out, _ = run(
        capsys, "homology", "--primes", "2,3,5", "--set", "2,6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 30
    assert data["A"] == [2, 6]
    assert data["homology"]["2"] == {"rank": 2, "torsion": []}


@pytest.mark.parametrize(
    "primes, subset", [("2,3,5", "2,6"), ("2,3,5,7", "0,3,7,8,48"), ("2,3,5,7,11", "1,5,100,480"), ("3,5,7", "")]
)
def test_homology_primes_reads_only_the_free_points(capsys, monkeypatch, primes, subset):
    # the report holds the groups of the family complex, but the command
    # builds the configuration once and never enumerates the join; its
    # matrix is cut from the cycle matrix of the empty subset, assembled
    # once over every residue 0..phi(n), as verify-homology cuts it
    x = cyclo_family.build_family_complex([int(p) for p in primes.split(",")], [int(a) for a in subset.split(",") if a])
    expected = {
        "homology": {str(i): g.to_json_dict() for i, g in complexes.homology_profile(x).items()},
        "cohomology": {str(i): g.to_json_dict() for i, g in complexes.cohomology_profile(x).items()},
    }

    def refuse(*args):
        raise AssertionError("the join was enumerated")

    for module in (complexes, cyclo_family, cli):
        monkeypatch.setattr(module, "nested_elements", refuse, raising=False)
    builds = []
    build = cyclo_family.CycloComplexData.build
    monkeypatch.setattr(
        cyclo_family.CycloComplexData, "build", classmethod(lambda cls, *args: builds.append(args) or build(*args))
    )
    assembled = []
    assemble = cyclo_family._assemble_cycles
    monkeypatch.setattr(
        cyclo_family, "_assemble_cycles", lambda colors, free: assembled.append(free) or assemble(colors, free)
    )
    cyclo_family._family_cycles.cache_clear()
    code, out, _ = run(capsys, "homology", "--primes", primes, "--set", subset, "--format", "json")
    assert code == 0 and len(builds) == 1
    assert [len(free) for free in assembled] == [math.prod(int(p) - 1 for p in primes.split(",")) + 1]
    data = json.loads(out)
    assert {key: data[key] for key in expected} == expected


def test_verify_homology_assembles_one_cycle_matrix_per_tuple_of_primes(capsys, monkeypatch):
    # every item cuts its matrix from the cached one of its primes, and
    # still eliminates that matrix itself, over its rows and its columns,
    # each run handed the other side as its transpose
    assembled, eliminated = [], []
    assemble = cyclo_family._assemble_cycles
    monkeypatch.setattr(
        cyclo_family, "_assemble_cycles", lambda colors, free: assembled.append(len(colors)) or assemble(colors, free)
    )
    factors = complexes.sparse_invariant_factors
    monkeypatch.setattr(
        complexes, "sparse_invariant_factors", lambda *args: eliminated.append(len(args)) or factors(*args)
    )
    cyclo_family._family_cycles.cache_clear()
    for primes in ("2,3,5,7", "3,5,7,11", "2,3,5,7"):
        argv = ["verify-homology", "--primes", primes, "--random", "20", "--seed", "0", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["items"]) == 20
    assert assembled == [4, 4]
    assert eliminated == [2] * 120


def test_homology_needs_exactly_one_source(capsys):
    assert run(capsys, "homology")[0] == 2
    assert run(capsys, "homology", "--groups", "[[2]]", "--primes", "2,3")[0] == 2


def test_homology_groups_with_point_set(capsys):
    code, out, _ = run(
        capsys,
        "homology",
        "--groups",
        "[[2],[3]]",
        "--set",
        "[[0,0],[1,2]]",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["A"] == [[[0], [0]], [[1], [2]]]
    assert data["homology"]["0"] == {"rank": 2, "torsion": []}


def test_verify_coboundaries_single_set(capsys):
    code, out, _ = run(
        capsys,
        "verify-coboundaries",
        "--groups",
        "[[2],[3]]",
        "--set",
        "[[0,0],[1,2],[0,1]]",
    )
    assert code == 0
    assert "1/1 verified" in out


def test_verify_homology_all_subsets(capsys):
    code, out, _ = run(capsys, "verify-homology", "--primes", "2,3", "--all-subsets")
    assert code == 0
    assert "7/7 verified" in out


def test_verify_coboundaries_all_subsets(capsys):
    code, out, _ = run(
        capsys, "verify-coboundaries", "--groups", "[[2],[3]]", "--all-subsets"
    )
    assert code == 0
    assert "64/64 verified" in out


def test_verify_coboundaries_random_seeded(capsys):
    code, out, _ = run(
        capsys,
        "verify-coboundaries",
        "--groups",
        "[[2],[2],[2]]",
        "--random",
        "5",
        "--seed",
        "9",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_pullback_and_coeff(capsys):
    assert run(capsys, "verify-pullback", "--primes", "2,3", "--all-subsets")[0] == 0
    assert run(capsys, "verify-pullback", "--primes", "2,3", "--set", "")[0] == 0
    assert run(capsys, "verify-coeff-coboundary", "--primes", "2,3,5")[0] == 0


def test_verify_homology_rejects_empty_subset(capsys):
    assert run(capsys, "verify-homology", "--primes", "2,3", "--set", "")[0] == 2


def test_selection_flag_required(capsys):
    code, _, err = run(capsys, "verify-homology", "--primes", "2,3")
    assert code == 2
    assert "choose one" in err


SELECTIONS = {
    "verify-coboundaries": (("--groups", "[[2],[3]]"), "[[0,1]]"),
    "verify-pullback": (("--primes", "2,3"), "1"),
    "verify-homology": (("--primes", "2,3"), "1"),
}


@pytest.mark.parametrize(
    "flags",
    [
        ("--set", "--all-subsets"),
        ("--set", "--random"),
        ("--all-subsets", "--random"),
        ("--set", "--max-size"),
        ("--random", "--max-size"),
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("command", sorted(SELECTIONS))
def test_conflicting_selection_flags_are_refused(capsys, command, flags):
    # a second selection flag, or --max-size without --all-subsets, is a
    # usage error, never silently dropped
    family, subset = SELECTIONS[command]
    values = {"--set": (subset,), "--all-subsets": (), "--random": ("3",), "--max-size": ("1",)}
    argv = [command, *family]
    for flag in flags:
        argv += [flag, *values[flag]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_json_output_is_byte_identical(capsys):
    args = ("verify-homology", "--primes", "2,3", "--all-subsets", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "cyclo", "12", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["n"] == 12
    assert data["coefficients"] == ["1", "0", "-1", "0", "1"]


def test_mismatch_exits_one(capsys, monkeypatch):
    # force a reported mismatch to pin the exit-code contract
    monkeypatch.setitem(
        cli._DISPATCH,
        "verify-coeff-coboundary",
        lambda args: ({"schema": 1, "ok": False}, False, "forced"),
    )
    code, out, _ = run(capsys, "verify-coeff-coboundary", "--primes", "2,3")
    assert code == 1


def test_sweep_small_seeded(capsys):
    code, out, _ = run(capsys, "sweep", "--seed", "1")
    assert code == 0
    assert "all verified" in out


def test_sweep_table_counts_a_failing_item(capsys, monkeypatch):
    real = sweeps.run_coefficient_coboundary_sweep

    def one_failing(prime_tuples):
        items = real(prime_tuples)
        items[0]["ok"] = False
        return items

    monkeypatch.setattr(sweeps, "run_coefficient_coboundary_sweep", one_failing)
    code, out, _ = run(capsys, "sweep", "--seed", "0")
    assert code == 1
    assert out.splitlines() == [
        "homology_tables: 90/90 verified",
        "coboundary_lattices: 280/280 verified",
        "pullback_lattices: 41/41 verified",
        "transform_pullback: 40/40 verified",
        "presentations: 20/20 verified",
        "coefficient_coboundary: 2/3 verified",
        "MISMATCH FOUND",
    ]


def test_unwritable_out_is_a_usage_error_before_the_computation(capsys, monkeypatch, tmp_path):
    # a missing directory, a directory as the file or an empty path: exit 2
    # with one error line and empty stdout, and the command is never dispatched
    def refuse(args):
        raise AssertionError("the computation ran before --out was checked")

    monkeypatch.setitem(cli._DISPATCH, "cyclo", refuse)
    for target in (tmp_path / "missing" / "r.json", tmp_path, ""):
        code, out, err = run(capsys, "cyclo", "6", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "command, first, set_help",
    [
        ("verify-coboundaries", "--groups", "one point set as JSON"),
        ("verify-pullback", "--primes", "comma list of residues (may be empty)"),
        ("verify-homology", "--primes", "one nonempty comma list of residues"),
    ],
)
def test_selection_commands_help_is_unchanged(capsys, command, first, set_help):
    # each command's arguments declared one by one, as before they shared
    # the selection helper: the help must be the same bytes
    reference = argparse.ArgumentParser(prog=f"balacyc {command}")
    reference.add_argument(first, required=True)
    reference.add_argument("--set", dest="subset", help=set_help)
    reference.add_argument("--all-subsets", dest="exhaustive", action="store_true")
    reference.add_argument("--max-size", type=int, default=None)
    reference.add_argument("--random", type=int, metavar="N")
    reference.add_argument("--format", choices=("table", "json"), default="table")
    reference.add_argument("--out", metavar="FILE", help="write the report to FILE")
    reference.add_argument("--seed", type=int, help="seed for randomized sweeps")
    assert run(capsys, command, "--help")[:2] == (0, reference.format_help())


@pytest.mark.parametrize(
    "argv",
    [
        ["cyclo", "6"],
        ["homology", "--primes", "2,3"],
        ["homology", "--groups", "[[2],[3]]"],
        ["verify-coeff-coboundary", "--primes", "2,3"],
    ],
    ids=lambda argv: argv[0] + argv[1][1:],
)
def test_seed_is_refused_where_nothing_is_drawn(capsys, argv):
    # only sweep and the three verify-* selection commands draw anything
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--seed", "5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed" in err


@pytest.mark.parametrize("seed", [0, 37])
def test_sweep_report_bytes_match_recorded_digest(tmp_path, capsys, seed):
    digests = json.loads((ROOT / "perfbench" / "sweep_digests.json").read_text())
    target = tmp_path / "sweep.json"
    argv = ("sweep", "--seed", str(seed), "--format", "json", "--out", str(target))
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digests[str(seed)]


def test_verify_pullback_max_size_zero_on_a_large_universe(capsys):
    # n = 105 has 2^49 index subsets; only the requested sizes are built
    argv = ("verify-pullback", "--primes", "3,5,7", "--all-subsets", "--max-size", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "A=[]: ok\n1/1 verified\n"


def test_verify_homology_max_size_one_on_a_large_universe(capsys):
    argv = ("verify-homology", "--primes", "3,5,7", "--all-subsets", "--max-size", "1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert [item["A"] for item in json.loads(out)["items"]] == [[i] for i in range(49)]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-pullback", "--primes", "2,3"),
        ("verify-homology", "--primes", "2,3"),
        ("verify-coboundaries", "--groups", "[[2],[3]]"),
    ],
)
def test_negative_max_size_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--all-subsets", "--max-size", "-3")
    assert code == 2 and out == ""
    assert "argument --max-size: must be a nonnegative integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-pullback", "--primes", "2,3"),
        ("verify-homology", "--primes", "2,3"),
        ("verify-coboundaries", "--groups", "[[2],[3]]"),
    ],
)
@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_random_is_a_usage_error(capsys, argv, count):
    # the flag was given, so the error names it rather than asking for one
    code, out, err = run(capsys, *argv, "--random", count)
    assert code == 2 and out == ""
    assert "argument --random: must be a positive integer" in err
    assert "choose one" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-pullback", "--primes", "2,3,5"),
        ("verify-homology", "--primes", "2,3,5"),
        ("verify-coboundaries", "--groups", "[[2],[3],[5]]"),
    ],
)
def test_random_over_the_enumeration_limit_is_a_usage_error(capsys, argv):
    # --random draws no more sets than --all-subsets may enumerate
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--random", str(cli.MAX_ENUMERATED_SETS + 1))
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "--random" in err and str(cli.MAX_ENUMERATED_SETS) in err


def test_empty_selection_is_a_usage_error(capsys):
    # verify-homology needs nonempty sets, so --max-size 0 selects none
    argv = ("verify-homology", "--primes", "2,3", "--all-subsets", "--max-size", "0")
    expected = "error: --all-subsets selects no sets; --max-size must be at least 1\n"
    assert run(capsys, *argv) == (2, "", expected)


@pytest.mark.parametrize("groups", ["[[1],[3]]", "[[2],[]]"])
def test_trivial_colors_are_refused_alike(capsys, groups):
    expected = (2, "", "error: color groups must be nontrivial\n")
    assert run(capsys, "homology", "--groups", groups) == expected
    assert run(capsys, "verify-coboundaries", "--groups", groups, "--all-subsets") == expected


def test_exhaustive_enumeration_over_the_cap_is_refused(capsys):
    # Z2 * Z3 * Z5 has 30 points, so 2^30 point sets
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-coboundaries", "--groups", "[[2],[3],[5]]", "--all-subsets")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "1073741824" in err
    # the count covers only the sizes asked for: 1 + 49 + 1176 + 18424 + 211876
    argv = ("verify-pullback", "--primes", "3,5,7", "--all-subsets", "--max-size", "4")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "231526" in err


def test_exhaustive_refusal_on_a_large_join_counts_in_closed_form(capsys):
    # Z2 * ... * Z13 has 30030 points: 2^30030 point sets, a count of 9040
    # digits, past the int-to-str limit, and a sum of comb over every size
    # would not end in time
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-coboundaries", "--groups", "[[2],[3],[5],[7],[11],[13]]", "--all-subsets")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "about 8.53e+9039 sets" in err
    # with a max the sum stops past the limit: 1 + 30030 + 450885435 already is
    argv = ("--groups", "[[2],[3],[5],[7],[11],[13]]", "--all-subsets", "--max-size", "3")
    code, out, err = run(capsys, "verify-coboundaries", *argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "at least 450915466 sets" in err


def test_internal_failure_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "cyclo", broken)
    code, out, err = run(capsys, "cyclo", "6")
    assert code == 3 and out == ""
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-homology", "--primes", "4,6", "--set", "1"), "4 is not prime"),
        (("verify-homology", "--primes", "2,3", "--set", "0,9"), "subset must lie in 0..2"),
        (("verify-pullback", "--primes", "2,2", "--set", "1"), "primes must be distinct"),
        (
            ("verify-coboundaries", "--groups", "[[2],[3]]", "--set", "[[0,7]]"),
            "vertex (7,) is outside its color group",
        ),
        (
            ("verify-coboundaries", "--groups", "[[2],[3]]", "--set", "[[0,1],[0,1]]"),
            "duplicate top cells",
        ),
        (("homology", "--groups", "[[1],[3]]"), "color groups must be nontrivial"),
        (
            ("verify-coeff-coboundary", "--primes", "3"),
            "at least two primes required (top dimension >= 1)",
        ),
    ],
)
def test_invalid_input_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("groups", ["[[true,2],[3]]", "[[2],[false]]"])
def test_boolean_group_orders_are_a_usage_error(capsys, groups):
    expected = (2, "", "error: each color must be a list of positive cyclic orders\n")
    assert run(capsys, "homology", "--groups", groups) == expected


@pytest.mark.parametrize("points", ["[[true,2]]", "[[[0],[false]]]"])
def test_boolean_point_coordinates_are_a_usage_error(capsys, points):
    expected = (2, "", "error: vertex coordinates must be integers\n")
    assert run(capsys, "verify-coboundaries", "--groups", "[[2],[3]]", "--set", points) == expected


def test_value_error_inside_a_computation_exits_3(capsys, monkeypatch):
    def broken(primes):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "coefficient_vector_is_coboundary", broken)
    code, out, err = run(capsys, "verify-coeff-coboundary", "--primes", "2,3")
    assert code == 3 and out == ""
    assert "internal error: ValueError: boom" in err


# --- the report writer -------------------------------------------------------

# Strings with quotes, backslashes, control characters and non-ASCII text.
report_strings = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t a\u00e9\u20ac\U0001f600'), max_size=6),
)
report_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(-(2**80), 2**80), report_strings
)
report_values = st.recursive(
    report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(report_strings, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(report_values)
def test_report_writer_matches_indented_json_dumps(value):
    assert cli._report_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, [0, 2.0], {"a": {1}}, {"a": 1, 2: "b"}, {3: 4}, {(1,): 2}, {1, 2}, frozenset()])
def test_report_writer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        cli._report_json(value)


# One fast invocation per command; its JSON bytes must be what json.dumps
# writes for the parsed report.
JSON_INVOCATIONS = {
    "cyclo": ["cyclo", "105"],
    "homology": ["homology", "--groups", "[[2],[3]]"],
    "verify-coboundaries": ["verify-coboundaries", "--groups", "[[2],[3]]", "--all-subsets", "--max-size", "2"],
    "verify-pullback": ["verify-pullback", "--primes", "2,3,5", "--random", "5", "--seed", "3"],
    "verify-homology": ["verify-homology", "--primes", "2,3", "--all-subsets"],
    "verify-coeff-coboundary": ["verify-coeff-coboundary", "--primes", "2,3,5"],
    "sweep": ["sweep", "--seed", "5"],
}


def test_every_command_has_a_json_bytes_case():
    assert set(JSON_INVOCATIONS) == set(cli._DISPATCH)


@pytest.mark.parametrize("command", sorted(JSON_INVOCATIONS))
def test_json_bytes_are_those_of_json_dumps(capsys, command):
    code, out, _ = run(capsys, *JSON_INVOCATIONS[command], "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
