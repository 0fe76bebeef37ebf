"""Command-line behavior: outputs, schemas, exit codes, determinism."""

import contextlib
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ezdlab import cli, gradedring, lab
from ezdlab.cli import main
from ezdlab.exactmat import rank
from ezdlab.ezd import derived_seed

ROOT = Path(__file__).resolve().parent.parent

HILBERT_GOLDEN = textwrap.dedent(
    """\
    {
      "artinian": true,
      "artinian_within_bound": true,
      "bound": 5,
      "command": "hilbert",
      "ideal": "x1^3, x2^3",
      "nvars": 2,
      "schema_version": 1,
      "top_degree": 4,
      "values": [
        1,
        2,
        3,
        2,
        1,
        0
      ]
    }
    """
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "-n", "2", "-D", "5", "x1^3, x2^3")
    assert code == 0
    assert out.splitlines()[0] == "H(0..5): 1 2 3 2 1 0"
    assert "artinian: yes (top degree 4)" in out


def test_hilbert_three_vars(capsys):
    code, out, _ = run(capsys, "hilbert", "-n", "3", "-D", "3", "x1^2, x2^2, x2*x3, x3^2")
    assert code == 0
    assert out.splitlines()[0] == "H(0..3): 1 3 2 0"


def test_hilbert_json_golden(capsys):
    code, out, _ = run(capsys, "hilbert", "-n", "2", "-D", "5", "x1^3, x2^3", "--format", "json")
    assert code == 0
    assert out == HILBERT_GOLDEN


# (exit code, sha256 of stdout) in the table and the JSON format, for one
# case of each analysis command and each of its exits.
OUTPUT_DIGESTS = {
    'hilbert -n 2 -D 5 "x1^3, x2^3"': [
        (0, "d2da64391b28ded9e5013ad38cd129c92de0d52691bc6c496eeb4682ee21289e"),
        (0, "dc03e2aaf60d8a3943317b446d1b3e0774b75dbf8b044f2683ea00ac2ce6d34e"),
    ],
    # Artinian, but the bound stops before the ring vanishes
    'hilbert -n 2 -D 2 "x1^2, x2^2"': [
        (0, "8faebe2013511b0839138a129a0b0aaf9607fcc0d08a4bebfd1789f9745bb2cd"),
        (0, "641e5e7c5480c227d423c34b497eb04b97cb0f9bb8e87ea90d7e167162b6b559"),
    ],
    'hilbert -n 2 -D 4 "x1*x2"': [
        (0, "dcbfb7085857e473288c2d26275f96a7e29948509dc0e23f57bc96d7e312d9d9"),
        (0, "db7cc7cca97e090cad87d74716d8193ede8526f0e825a2ed34e8cedcd4d6f2f8"),
    ],
    'ezd -n 2 "x1^2, x2^2"': [
        (0, "6af84ff2a079fba32de4f099238021a09975482543cd0821824239294816defc"),
        (0, "ef7b7744435b349743843b9c0dcf30b9efed756f479f62bf2adf967a56deabea"),
    ],
    'ezd -n 2 "x1^2, x2^2" --form "x1+x2"': [
        (0, "146f44cc3fc9480c114696ea48a7f3f605df901cac237bd3c8ac167cab409cdc"),
        (0, "db2741bd32562a2da6f57303f2597e14e9654192a35a3798cb5ab58f3fa84636"),
    ],
    'ezd -n 2 "x1^2, x1*x2, x2^2"': [
        (1, "d257678ab4fc9b710b9eec7471b072d685277e6078e3d54114b4ebb2d5700db1"),
        (1, "94e0f4f710c3e7b9cd15eafe957851ae86d4c5ad285c37f40f55a7b840de52ba"),
    ],
    'ezd -n 2 "x1^2, x1*x2, x2^2" --form "x1+x2"': [
        (1, "f4e68b69454eb57100a7f4b82dd07fdafbe9f217e6de7b7be6c9eb969cc8ad89"),
        (1, "147ea9c1fc428728e65afb53397609780e83940ab913cee8aeae94fec2679544"),
    ],
    'ezd -n 3 -D 4 "x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2" --trials 2 --seed 5': [
        (1, "8713ebaa43552bfe8a1ab45b8557a83fd684007ed207fbb94ad24c67b35a8f7d"),
        (1, "5225c2f794d6ad6f63416bd20b84f12634be569b5984488198b97351b18b6f3a"),
    ],
    'wlp -n 2 -D 4 "x1^3, x2^3"': [
        (0, "0855dc0dfbe1400747d8567da68b81cc88ab87f0ec1516e46fb9d61638b9be8e"),
        (0, "b27783aa6cbe8329d839dd0ba7ad268e720485a62127b420d99843b0d634021d"),
    ],
    'wlp -n 3 -D 6 "x1^3, x2^3, x3^3, x1*x2*x3"': [
        (1, "e6b6602126ac004982d59cc10bb318ef1efc01c5e1680d37a1e08fdd7c4164f2"),
        (1, "58ea4f747a64a962417a1c7fe4c29dc0573c026ca8242c3196c20b62b1ad45b6"),
    ],
    'socle -n 2 "x1^2, x1*x2, x2^2"': [
        (0, "65d0470e6cbdd02d418727a65ec88241e13ab4e0d1f1bfad20f83de54baadf34"),
        (0, "a679ad1c65d0e92b52777208931d5523509d13b54221cdfa5108235a74758518"),
    ],
    'yoshino -n 3 "x1^2, x2^2, x2*x3, x3^2"': [
        (0, "78f93d1933a75dbb877b7e929b21185ca51f5668fdd2852602e28e94a68fa283"),
        (0, "5b7c144f438ed2f6090e55fdd252a75fe5682a2b7dbb36d7deac8328aaa7b427"),
    ],
    # Gorenstein unknown: the ring does not vanish within the bound
    'yoshino -n 2 -D 2 "x1*x2"': [
        (0, "6cca0090afff2b7871c26866b3e5df0b2b494c6a320840b0ea0bb7e26fb2eaf5"),
        (0, "a11c592a8c435c5a49097ec0a1bb12e1138016b374c968b99ea82f888b22e6fd"),
    ],
    'example -n 3 -d 2': [
        (0, "e2d923042d306473f6a19649bd1c82c60218272ceedf56598970a50c14d61d17"),
        (0, "80d0e313dc839bcfd31ce8a0256fa0ae6d3a180efe5daf19c2f744a2a8b03131"),
    ],
}


@pytest.mark.parametrize("line", sorted(OUTPUT_DIGESTS))
def test_analysis_output_digests(capsys, line):
    """Each analysis command's whole stdout and exit code, in both formats."""
    got = []
    for fmt in ("table", "json"):
        code, out, err = run(capsys, *shlex.split(line), "--format", fmt)
        assert err == ""
        got.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == OUTPUT_DIGESTS[line]


def test_hilbert_default_bound(capsys):
    code, out, _ = run(capsys, "hilbert", "-n", "2", "x1^3, x2^3")
    assert code == 0
    assert out.splitlines()[0] == "H(0..5): 1 2 3 2 1 0"


def test_malformed_input_exits_2(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "-D", "3", "x1 + ?")
    assert code == 2
    assert "error:" in err and "column" in err


def test_non_homogeneous_exits_2(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "-D", "3", "x1 + x2^2")
    assert code == 2
    assert "degree" in err


def test_missing_bound_exits_2(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "x1*x2")
    assert code == 2
    assert "-D" in err


def test_costly_elimination_exits_2(capsys):
    code, out, err = run(capsys, "hilbert", "-n", "4", "-D", "31", "x1^2 + x2*x3, x2^2 + x1*x4")
    assert (code, out) == (2, "")
    assert "estimated at 1,332,438,594,960 operations" in err
    assert "cap of 10,000,000,000" in err
    assert "Traceback" not in err


def test_ezd_generic_yes(capsys):
    code, out, _ = run(capsys, "ezd", "-n", "2", "-D", "2", "x1^2, x2^2")
    assert code == 0
    assert "decision: generically_yes (exact)" in out
    assert "witness Q: x1 - x2" in out


def test_ezd_generic_no(capsys):
    code, out, _ = run(capsys, "ezd", "-n", "2", "-D", "2", "x1^2, x1*x2, x2^2")
    assert code == 1
    assert "decision: no" in out


def test_ezd_form_exact_pair(capsys):
    code, out, _ = run(capsys, "ezd", "-n", "2", "-D", "2", "x1^2, x2^2", "--form", "x1 + x2")
    assert code == 0
    assert "verdict: exact_pair" in out
    assert "annihilator dims by degree: 0 1 1" in out


def test_ezd_form_ranks_each_degree_once(capsys, monkeypatch):
    """The annihilator dims (`map_rank`), the search for a partner
    (`ranked_map`) and the pair check share one memo entry per (form,
    degree): each degree is ranked once for the form and once for its
    partner. On a monomial ring the dims are the all-ones form's."""
    ranked = []

    def counting(rows):
        ranked.append(rows)
        return rank(rows)

    monkeypatch.setattr(gradedring, "rank", counting)
    ideal = "x1^2, x2^2, x3^3"
    code, out, _ = run(capsys, "ezd", "-n", "3", "--form", "2*x1 + 3*x2 - 5*x3", ideal, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["found"]) == (0, True)
    assert len(ranked) == 2 * len(doc["annihilator_dims"])
    monkeypatch.undo()
    ones = json.loads(run(capsys, "ezd", "-n", "3", "--form", "x1 + x2 + x3", ideal, "--format", "json")[1])
    assert doc["annihilator_dims"] == ones["annihilator_dims"] == [0, 0, 1, 2, 1]


def test_ezd_form_no_partner(capsys):
    code, out, _ = run(
        capsys, "ezd", "-n", "2", "-D", "2", "x1^2, x1*x2, x2^2", "--form", "x1 + x2"
    )
    assert code == 1
    assert "no exact partner" in out


@pytest.mark.parametrize("form", [None, "x1 + x2"])
def test_ezd_zero_form_has_no_partner(capsys, form):
    # In k[x1,x2]/(x1, x2) = k every linear form is zero, so none is an
    # exact zero divisor (its annihilator is the whole ring, spanned by 1).
    extra = [] if form is None else ["--form", form]
    code, out, _ = run(capsys, "ezd", "-n", "2", "x1, x2", *extra, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["witness"], payload["report"]) == (None, None)
    assert payload.get("decision", "no") == "no" and payload.get("found", False) is False


def test_ezd_json_schema(capsys):
    code, out, _ = run(capsys, "ezd", "-n", "2", "x1^2, x2^2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "ezd"
    assert payload["decision"] == "generically_yes"
    assert payload["witness"] == "x1 - x2"
    assert payload["report"]["verdict"] == "exact_pair"
    assert [row["dim_ring"] for row in payload["report"]["table"]] == [1, 2, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["ezd", "-n", "2", "-D", "4", "x1^2 + x2^2, x1*x2", "--trials", "0"],
        ["wlp", "-n", "2", "-D", "3", "x1^2, x2^2", "--trials", "0"],
    ],
)
def test_zero_trials_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "need at least one trial" in err


@pytest.mark.parametrize(
    "argv,count",
    [
        (["hilbert", "-n", "2", "x1^100000, x2^2"], 5000250003),  # default bound 100001
        (["hilbert", "-n", "25", "-D", "25", "x1^2"], 126410606437752),
        # counts this large are neither computed nor printed
        (["hilbert", "-n", "1000000", "-D", "1000000", "x1"], "over 2^64"),
        (["hilbert", "-n", "64", "-D", "10" + "0" * 4200, "x1"], "over 2^64"),
    ],
)
def test_oversized_ring_exits_2(capsys, argv, count):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"span {count} monomials, more than the cap of 100000" in err


def test_hilbert_in_many_variables(capsys):
    """Past the recursion limit in variables: no internal error (exit 3)."""
    code, out, err = run(capsys, "hilbert", "-n", "1000", "-D", "1", "x1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [1, 999]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-n", "20000", "-D", "1"], "span 20001 monomials of 20000 exponents each, more than "
                                     "the cap of 12,000,000 exponents"),
        (["-n", "1000000000"], "span 1000000001 monomials, more than the cap of 100000"),
        # refused by variable count alone, whatever the bound
        (["-n", "12000001", "-D", "0"], "span 12000002 monomials, more than the cap of 100000"),
    ],
)
def test_many_variables_refused_before_parsing(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "parse_ideal", lambda *a: pytest.fail("ideal parsed"))
    code, out, err = run(capsys, "hilbert", *argv, "x1")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "-n", "8", "-d", "30"],
        ["example", "-n", "10", "-d", "40"],
        ["scan", "binomial", "-n", "6"],
        ["scan", "binomial", "-n", "7", "--workers", "2"],
        ["scan", "monomial", "-n", "8", "--workers", "2"],
        ["scan", "monomial", "-n", "9"],
    ],
)
def test_set_up_tables_refused_up_front(capsys, monkeypatch, argv):
    """Each would list millions of monomials, candidates or images first."""
    monkeypatch.setattr(lab, "monomials_of_degree", lambda *a: pytest.fail("monomials listed"))
    monkeypatch.setattr(lab, "ProcessPoolExecutor", None)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "more than the cap of" in err


@pytest.mark.parametrize("nvars", ["0", "-1"])
def test_nvars_below_one_exits_2(capsys, nvars):
    code, out, err = run(capsys, "hilbert", "-n", nvars, "x1")
    assert code == 2
    assert out == ""
    assert err == "error: need at least one variable\n"


def test_hilbert_unit_ideal_is_artinian(capsys):
    code, out, _ = run(capsys, "hilbert", "-n", "2", "-D", "2", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [0, 0, 0]
    assert payload["artinian"] is True
    assert payload["artinian_within_bound"] is True


def test_hilbert_artinian_examples(capsys):
    def artinian(bound, ideal):
        code, out, _ = run(capsys, "hilbert", "-n", "2", "-D", bound, ideal, "--format", "json")
        assert code == 0
        return json.loads(out)["artinian"]

    assert artinian("3", "x1^2, x2^2") is True
    assert artinian("4", "x1*x2") is False
    assert artinian("3", "x1^2, x1*x2 + x2^2") is True
    # the unit ideal: no pure powers, but the ring vanishes from degree 0
    assert artinian("2", "3") is True


@pytest.mark.parametrize("seed", [0, 1])
def test_binomial_records_are_ezd_verdicts(capsys, seed):
    """Each examined record's decision and witness are what `ezd` prints for
    its ideal at the bound the scan builds to and the instance's seed."""
    report = lab.scan_binomial(lab.ScanConfig(3, seed=seed, workers=1))
    assert report.examined == 54
    for rec in report.instances:
        code, out, _ = run(
            capsys, "ezd", "-n", "3", "-D", "6", rec.ideal,
            "--seed", str(derived_seed(seed, rec.index)), "--format", "json",
        )
        payload = json.loads(out)
        assert (payload["decision"], payload["witness"]) == (rec.decision, rec.witness), rec.ideal
        assert code == (0 if rec.decision == "generically_yes" else 1)


def test_hilbert_unit_ideal_default_bound(capsys):
    # the bound -D 0 gives, found without -D
    assert run(capsys, "hilbert", "-n", "2", "1") == (
        0, "H(0..0): 0\nartinian: yes (top degree -1)\n", "")


MIXED_ARTINIAN = "x1^2, x2^2, x3^2, x1*x2 + x2*x3"


def test_hilbert_mixed_ideal_reads_pure_powers(capsys):
    # the bound stops before the ring vanishes, but every variable has a pure power
    code, out, _ = run(capsys, "hilbert", "-n", "3", "-D", "2", MIXED_ARTINIAN)
    assert code == 0
    assert out.splitlines() == ["H(0..2): 1 3 2", "artinian: yes"]
    code, out, _ = run(capsys, "hilbert", "-n", "3", MIXED_ARTINIAN)
    assert code == 0
    assert out.splitlines() == ["H(0..4): 1 3 2 0 0", "artinian: yes (top degree 2)"]


def test_ezd_mixed_ideal_has_default_bound(capsys):
    code, out, err = run(capsys, "ezd", "-n", "3", MIXED_ARTINIAN, "--format", "json")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["bound"] == 4
    assert payload["decision"] == "generically_yes"


def test_wlp_holds(capsys):
    code, out, _ = run(capsys, "wlp", "-n", "2", "-D", "4", "x1^3, x2^3")
    assert code == 0
    assert "weak Lefschetz property: holds" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_wlp_truncated_ring_exits_2(capsys, fmt):
    """Cut off at degree 2, x1^3, x2^3, x3^3, x1*x2*x3 has maximal rank in
    every degree shown, and fails in degree 3: the check refuses the ring."""
    code, out, err = run(capsys, "wlp", "-n", "3", "-D", "2", "x1^3, x2^3, x3^3, x1*x2*x3", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: ring does not vanish within the degree bound; raise the bound\n"
    code, out, _ = run(capsys, "wlp", "-n", "3", "x1^3, x2^3, x3^3, x1*x2*x3")
    assert code == 1
    assert "3 | 6 | 6 | 5 | no" in out
    assert "weak Lefschetz property: fails" in out


def test_socle(capsys):
    code, out, _ = run(capsys, "socle", "-n", "2", "-D", "2", "x1^2, x1*x2, x2^2")
    assert code == 0
    assert "socle dims by degree: 0 2" in out
    assert "gorenstein: no" in out


def test_yoshino(capsys):
    code, out, _ = run(capsys, "yoshino", "-n", "3", "-D", "2", "x1^2, x2^2, x2*x3, x3^2")
    assert code == 0
    assert "c1 (dim R_2 = dim R_1 - 1): ok" in out
    assert "c2 (generated in degree 2): ok" in out


def test_yoshino_complete_ring_built_below_degree_2(capsys):
    """x1, x2 vanishes from degree 1 on, so at its default bound 1 the
    answer is that at -D 2: dimensions past a complete ring's bound are 0."""
    code, out, err = run(capsys, "yoshino", "-n", "2", "x1, x2")
    assert (code, err) == (0, "")
    assert "[dim R_1 = 0, dim R_2 = 0]" in out
    assert run(capsys, "yoshino", "-n", "2", "-D", "2", "x1, x2") == (0, out, "")


def test_yoshino_refuses_an_incomplete_ring_built_below_degree_2(capsys):
    code, out, err = run(capsys, "yoshino", "-n", "2", "-D", "1", "x1^2, x2^2")
    assert (code, out) == (2, "")
    assert err == "error: need the ring built to degree 2 at least\n"


def test_scan_monomial_table(capsys):
    code, out, _ = run(capsys, "scan", "monomial", "-n", "2", "--max-deg", "2")
    assert code == 0
    assert "instances examined: 2" in out
    assert "counterexamples: 0" in out


def test_scan_json_and_worker_determinism(capsys):
    args = ["scan", "monomial", "-n", "3", "--max-deg", "3", "--seed", "7", "--format", "json", "--full"]
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    code4, out4, _ = run(capsys, *args, "--workers", "4")
    assert code1 == code4 == 0
    assert out1 == out4
    payload = json.loads(out1)
    assert payload["schema_version"] == 1
    assert payload["counterexamples"] == []
    # schema 1's config: no workers, and the two fixed settings still echoed
    assert payload["config"] == {
        "nvars": 3, "max_degree": 3, "bound": None, "symmetry_reduction": True,
        "seed": 7, "trials": 3, "require_artinian": True,
    }


def test_binomial_scan_json_and_worker_determinism(capsys):
    args = ["scan", "binomial", "-n", "3", "--seed", "5", "--trials", "2",
            "--format", "json", "--full"]
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    code2, out2, _ = run(capsys, *args, "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema_version"] == 1
    assert payload["counterexamples"] == []
    assert payload["config"] == {
        "nvars": 3, "max_degree": 2, "bound": None, "symmetry_reduction": True,
        "seed": 5, "trials": 2, "require_artinian": True,
    }


def test_scan_takes_no_bound(capsys):
    # each family fixes the degree its rings are built to
    with pytest.raises(SystemExit) as exc:
        main(["scan", "monomial", "-n", "2", "-D", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ezdlab scan ")
    assert "ezdlab scan: error: unrecognized arguments: -D 3" in captured.err


@pytest.mark.parametrize("argv,prog", [
    (["hilbert", "x1^2", "extra", "-n", "1"], "ezdlab hilbert"),
    (["ezd", "x1^2", "-n", "1", "--bogus=3"], "ezdlab ezd"),
    (["example", "-n", "2", "-d", "2", "--trials", "3"], "ezdlab example"),
    (["--bogus", "hilbert", "x1^2", "-n", "1"], "ezdlab"),
])
def test_unknown_arguments_name_their_parser(capsys, argv, prog):
    """An argument is reported by the parser it was given to, with that
    parser's usage line: a subcommand's own, or the root's before it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"{prog}: error: unrecognized arguments: " in err


def test_scan_monomial_csv(capsys):
    code, out, _ = run(capsys, "scan", "monomial", "-n", "2", "--max-deg", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[:3] == [
        "index,ideal,hilbert,decision,exact,witness_degree,witness,dim_prev,dim_at,hilbert_drop_ok",
        '0,"x1^2, x1*x2, x2^2",1 2 0 0,no,true,,,,,',
        '1,"x1^2, x2^2",1 2 1 0,generically_yes,true,1,x1 - x2,2,1,true',
    ]


def test_scan_binomial_csv(capsys):
    code, out, _ = run(capsys, "scan", "binomial", "-n", "2", "--trials", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,ideal,hilbert,r2,boundary")
    assert len(lines) > 1


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "scan", "monomial", "-n", "2", "--max-deg", "2", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert "wrote" in out
    payload = json.loads(target.read_text())
    assert payload["examined"] == 2


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_scan_unwritable_out_exits_2(tmp_path, kind):
    path = tmp_path / "absent" / "report.json" if kind == "missing-dir" else tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ezdlab", "scan", "monomial", "-n", "2", "--max-deg", "2",
         "--out", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in proc.stderr


def test_scan_out_opened_before_scan(tmp_path, capsys, monkeypatch):
    def no_scan(cfg):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr("ezdlab.lab.scan_monomial", no_scan)
    code, _, err = run(capsys, "scan", "monomial", "-n", "2", "--out", str(tmp_path / "x" / "y"))
    assert code == 2
    assert err.startswith("error: cannot write ")


def test_internal_fault_exits_3(tmp_path, capsys, monkeypatch):
    def broken_scan(cfg):
        raise RuntimeError("H(3) = 1 after H(2) = 0")

    monkeypatch.setattr("ezdlab.lab.scan_binomial", broken_scan)
    target = tmp_path / "report.json"
    target.write_text("an earlier report\n")
    code, out, err = run(capsys, "scan", "binomial", "-n", "3", "--out", str(target))
    assert code == 3
    assert out == ""
    assert err == "internal error: H(3) = 1 after H(2) = 0\n"
    assert "Traceback" not in err
    assert target.read_text() == "an earlier report\n"


def test_failed_scan_keeps_existing_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("an earlier report\n" * 1000)
    # scan_binomial refuses the option after --out is opened
    code, _, err = run(
        capsys, "scan", "binomial", "-n", "2", "--max-deg", "3", "--out", str(target)
    )
    assert code == 2
    assert "apply to the monomial family only" in err
    assert target.read_text() == "an earlier report\n" * 1000
    # a scan that succeeds replaces the whole file, however long it was
    code, _, _ = run(
        capsys, "scan", "monomial", "-n", "2", "--max-deg", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["examined"] == 2


def test_failed_scan_removes_out_it_created(tmp_path, capsys):
    target = tmp_path / "new.json"
    code, out, err = run(
        capsys, "scan", "binomial", "-n", "2", "--max-deg", "3", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert "apply to the monomial family only" in err
    assert not target.exists()


def test_scan_out_to_devnull(capsys):
    # a device cannot be truncated; the report is written to it all the same
    code, out, err = run(capsys, "scan", "monomial", "-n", "2", "--out", os.devnull)
    assert code == 0
    assert out == f"wrote {os.devnull}: 2 instances, 0 counterexamples\n"
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_scan_out_full_device_exits_2(capsys):
    # /dev/full accepts the open and fails the write with ENOSPC
    code, out, err = run(capsys, "scan", "monomial", "-n", "2", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_scan_write_failure_exits_2_and_removes_out(tmp_path, capsys, monkeypatch):
    target = tmp_path / "new.json"

    def failing_open(path, mode, **kw):
        fh = open(path, mode, **kw)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = write
        return fh

    monkeypatch.setattr("ezdlab.cli.open", failing_open, raising=False)
    code, out, err = run(capsys, "scan", "monomial", "-n", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    assert not target.exists()


@pytest.mark.parametrize("flags", [["--max-deg", "3"], ["--no-symmetry"]])
def test_scan_binomial_rejects_monomial_options(capsys, flags):
    code, out, err = run(capsys, "scan", "binomial", "-n", "2", *flags)
    assert code == 2
    assert out == ""
    assert err == "error: max_degree and symmetry_reduction apply to the monomial family only\n"


def test_scan_binomial_accepts_default_max_deg(capsys):
    explicit = run(capsys, "scan", "binomial", "-n", "2", "--max-deg", "2", "--format", "json")
    assert explicit == run(capsys, "scan", "binomial", "-n", "2", "--format", "json")
    assert explicit[0] == 0


def test_readme_commands_run(capsys):
    """Every `ezdlab` line of the README's command block runs through the
    parser to exit 0 or 1, so the examples cannot drift from the options."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith("ezdlab ")]
    assert lines
    for line in lines:
        try:
            code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        except SystemExit as exc:
            pytest.fail(f"{line!r} exits {exc.code} in the parser")
        assert code in (0, 1), (line, err)
        assert "Traceback" not in err, line


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", ""])
def test_bad_workers_env_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("EZDLAB_WORKERS", raw)
    code, out, err = run(capsys, "scan", "monomial", "-n", "2", "--max-deg", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: EZDLAB_WORKERS must be a positive integer, got {raw!r}\n"


def test_workers_env_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("EZDLAB_WORKERS", "2")
    code, out, _ = run(capsys, "scan", "monomial", "-n", "2", "--max-deg", "2")
    assert code == 0
    assert "instances examined: 2" in out


def test_example_command(capsys):
    code, out, _ = run(capsys, "example", "-n", "3", "-d", "2")
    assert code == 0
    assert "verdict: exact_pair" in out
    code, out, _ = run(capsys, "example", "-n", "2", "-d", "3")
    assert code == 0
    assert "y: x1^2 - x1*x2 + x2^2" in out


def test_example_usage_error(capsys):
    code, _, err = run(capsys, "example", "-n", "1", "-d", "2")
    assert code == 2
    assert "n >= 2" in err


def test_ideal_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("# generators\nx1^2\nx2^2\n")
    code, out, _ = run(capsys, "hilbert", "-n", "2", "-D", "3", "--file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "H(0..3): 1 2 1 0"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_file_exits_2(tmp_path, kind):
    path = tmp_path / "absent.txt" if kind == "missing" else tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ezdlab", "hilbert", "-n", "2", "--file", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_ezd_form_truncated_ring_exits_2(capsys, fmt):
    code, out, err = run(
        capsys, "ezd", "-n", "2", "-D", "3", "x1^2", "--form", "x1+x2", "--format", fmt
    )
    assert code == 2
    assert out == ""
    assert "ring does not vanish within the degree bound; raise the bound" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "command", [["ezd"], ["ezd", "--form", "x1+x2"], ["wlp"], ["socle"]], ids=["ezd", "ezd-form", "wlp", "socle"]
)
def test_a_ring_cut_off_at_its_bound_exits_2(capsys, command, fmt):
    """x1^2, x2^2 built to degree 1 may not vanish past it: every command
    whose answer speaks of all degrees refuses it with the one message."""
    code, out, err = run(capsys, *command, "-n", "2", "-D", "1", "x1^2, x2^2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: ring does not vanish within the degree bound; raise the bound\n"


def test_both_sources_rejected(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("x1^2")
    code, _, err = run(capsys, "hilbert", "-n", "2", "-D", "2", "x1^2", "--file", str(path))
    assert code == 2
    assert "not both" in err


def test_no_source_rejected(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "-D", "2")
    assert code == 2
    assert "no ideal" in err


# The characters of the ideal grammar: variables, integers, operators,
# separators, comments and whitespace.
GRAMMAR_ALPHABET = "x0123456789^*/+-,#\n\t\r "


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["hilbert", "ezd"]),
    text=st.text(alphabet=GRAMMAR_ALPHABET, max_size=40),
    nvars=st.integers(1, 3),
    bound=st.none() | st.integers(0, 4),
)
def test_no_input_gives_a_traceback(command, text, nvars, bound):
    argv = [command, "-n", str(nvars)]
    if bound is not None:
        argv += ["-D", str(bound)]
    # after "--" the text is the ideal even when it starts with "-"
    argv += ["--", text]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
