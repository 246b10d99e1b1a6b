import hashlib
import json
import os
import sys

import pytest

from braidcovers import cli
from conftest import reversed_pool

TABLE_CSV = """\
n,fixed_count,transpositions,total,orbit_count,K2,chi,c2,image_names
2,16,1,16,16,8,1,4,C2
3,80,3,240,40,7,1,5,S3
4,480,6,2880,240,6,1,6,D8
5,0,10,0,0,5,1,7,
"""

COUNT_CSV = """\
n,fixed_count,transpositions,total,orbit_count,K2,chi,c2,image_names
3,80,3,240,,7,1,5,
"""


# sha256 of `list --n 6` stdout
LIST_N6_SHA256 = (
    "a6729e30e4b8ff1cd3127659cfc7c4e3301f5861d64d0f25995b46bb8c655054")

# sha256 of `list --n 8 --confirm-long` stdout, 172,800 lines
LIST_N8_SHA256 = (
    "6bb69d749dd20fce1d167ce878fe464af4f773b366b75e915be86864a537af19")

# sha256 of the stdout of each command that writes records, in each
# --format: the padding, key order and cell spelling of every byte
FORMAT_SHA256 = {
    ("count --n 3", "text"):
        "cb9b87df3522de86b796dc9dbc3d55efc0a5c566511dca19b997dd6d474da48a",
    ("count --n 3", "csv"):
        "365af3462d0ea189c0dfab14a238a2646da9c90d0f7641ba2b0080b118ce1ff2",
    ("count --n 3", "json"):
        "fd4a84b2d418fe563736d30c83505a980657a45f6600c5024282f7ab7b6f8f49",
    ("count --n 4 --collect", "text"):
        "6bd0130b01d9fb22e8976c1640360c5f931e1f76fccad60a656848937fdc7400",
    ("count --n 4 --collect", "csv"):
        "22ae65228339519e77c0bd37a04cf092cb0b15e9a04198232721dc6a9740501e",
    ("count --n 4 --collect", "json"):
        "b21a31a8866e8473a1de3fae704bbbfd598c685d74106d646373029dd77bda65",
    ("count --n 5", "text"):
        "f25e72620a4f255b40391eb036030e325cfd907c7518db06f3e7177e4f7e04e6",
    ("count --n 5", "csv"):
        "23d1e7b75db91377489dc45bfef2f66ab55df26050e0833aef0533e06738f71b",
    ("count --n 5", "json"):
        "d0e7f8a9e301ae3914be5193b23b575b0d6b585da217a325ef7060cedf5d66c4",
    ("table --n 2..5", "text"):
        "3db260ec0dceea39d6e1c8e1cbe2e49188e234c36a99562b96af032a87e49b23",
    ("table --n 2..5", "csv"):
        "0d4bcd49cdb9a764528a9588c45b0f9303df8b5a427d80f11e82aca9f358d682",
    ("table --n 2..5", "json"):
        "32b8ca27acde3dcdf24e1dc61f28afedb0d0b41cdb5a0fa50dca5feacf512aca",
    ("table --n 2..5 --collect", "text"):
        "397222a2af7ba15efa38bacd9893c2d8f58ff9318ebadc351bec1419b7ad7f33",
    ("table --n 2..5 --collect", "csv"):
        "bae0a8118e04f195a8c76e8c09d4d6631f76829ba623d5298967d71723d25a18",
    ("table --n 2..5 --collect", "json"):
        "daf127a37246a9965667eb89acd218912de5c7a32836b6ed0fb4438095db46a9",
    ("orbits --n 3", "text"):
        "f612c7426eb1106ca4baafd393d0e0368660305f9d1d6573e8f379e7b0e5a60d",
    ("orbits --n 3", "csv"):
        "f36f8df7ab530751197df34e26196a5ca257a6fdd1a6c4e762f3abd93a8d3375",
    ("orbits --n 3", "json"):
        "28515c8e7f90a464c1a0ec3fb31eba5f17993bd3405df27a1035f8ba51ffa51c",
    ("oracle --n 3", "text"):
        "1e23081e523a30824066a06f50ed2c2680b5832ace4646b74b4667a9beefc41e",
    ("oracle --n 3", "csv"):
        "6b717e962e2f8fc32f9c43675ed4d39e79a18c181f4aeee26456e66769215bac",
    ("oracle --n 3", "json"):
        "ac29d4914654ead8611dcc6a0affe62b43caabc2ed9055ad611451cc1636d6d8",
    ("invariants --n 2..9", "text"):
        "4d976b3082ac2dbb2d08cfd41a228448e240d4776316b28fb1236d9499e30a14",
    ("invariants --n 2..9", "csv"):
        "8e1406fd3e3a08533051f5252c279e50333c595ec5ba692f8016d8622387ba32",
    ("invariants --n 2..9", "json"):
        "24a9064f91256702ddb66604326ca1351525702d16f6831da35145a8184ca186",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command,fmt", sorted(FORMAT_SHA256))
def test_output_bytes_in_every_format(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == FORMAT_SHA256[command, fmt], out


@pytest.mark.parametrize("fmt,expected", [
    ("text", "n=5: 0 solutions in 0 conjugacy classes under the sigma "
             "centralizer\n"),
    ("csv", "n,orbit,size,image,sigma,a1,a2,b1,b2\n"),
    ("json", '{\n  "fixed_count": 0,\n  "n": 5,\n  "orbit_count": 0,\n'
             '  "orbits": [],\n  "sigma": "(1,2)"\n}\n'),
])
def test_no_records_still_write_header_and_empty_list(capsys, fmt, expected):
    code, out, _ = run(capsys, "orbits", "--n", "5", "--format", fmt)
    assert code == 0
    assert out == expected


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    assert out == (
        "n=4: 480 representations with sigma=(1,2), "
        "2880 over all 6 transpositions\n"
        "surface: chi=1 K^2=6 c_2=6 (K^2 + c_2 = 12)\n"
        "n=4: 2880 representations; covers exist\n")


def test_count_nonexistent_degree(capsys):
    code, out, _ = run(capsys, "count", "--n", "5")
    assert code == 0
    assert "no degree-5 cover" in out


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == COUNT_CSV


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_count"] == 80
    assert doc["total_count"] == 240
    assert doc["sigma"] == "(1,2)"
    assert doc["surface"]["K2"] == 7
    assert doc["existence"]["exists"] is True


def test_count_collect_reports_classes(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--collect")
    assert code == 0
    assert "classes: 40 under simultaneous conjugation; images: S3 x80" in out
    assert "n=3: 240 representations in 40 conjugacy classes; covers exist" in out


def test_count_collect_json_has_orbit_fields(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--collect",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_count"] == 40
    assert doc["orbit_size_histogram"] == {"6": 40}
    assert doc["image_fingerprint_histogram"] == {"S3": 80}
    assert doc["existence"]["isomorphism_classes"] == 40


def test_table_csv_golden(capsys):
    code, out, _ = run(capsys, "table", "--n", "2..5", "--collect",
                       "--format", "csv")
    assert code == 0
    assert out == TABLE_CSV


def test_table_without_collect_leaves_blanks(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,80,3,240,,7,1,5,"


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n", "2..3", "--collect")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "fixed_count", "transpositions", "total",
                                "orbit_count", "K2", "chi", "c2", "image_names"]
    assert lines[1].split() == ["2", "16", "1", "16", "16", "8", "1", "4", "C2"]
    assert lines[2].split() == ["3", "80", "3", "240", "40", "7", "1", "5", "S3"]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n", "2..4", "--collect",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["total"] for r in rows] == [16, 240, 2880]
    assert [r["orbit_count"] for r in rows] == [16, 40, 240]
    assert [r["image_names"] for r in rows] == [["C2"], ["S3"], ["D8"]]


def test_table_totals_through_degree_six(capsys):
    code, out, _ = run(capsys, "table", "--n", "2..6", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [int(r.split(",")[3]) for r in rows] == [16, 240, 2880, 0, 43200]


def test_csv_round_trips_byte_identical(capsys):
    import csv as csv_mod
    import io

    _, out, _ = run(capsys, "table", "--n", "2..5", "--collect",
                    "--format", "csv")
    rows = list(csv_mod.reader(io.StringIO(out)))
    buf = io.StringIO()
    csv_mod.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == out


def test_json_round_trips_byte_identical(capsys):
    _, out, _ = run(capsys, "count", "--n", "4", "--format", "json")
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_byte_identical_reruns(capsys):
    first = run(capsys, "table", "--n", "2..4", "--format", "json")
    second = run(capsys, "table", "--n", "2..4", "--format", "json")
    assert first == second
    first = run(capsys, "list", "--n", "3")
    second = run(capsys, "list", "--n", "3")
    assert first == second
    # a flag's value after "=" reads as the next word does
    assert run(capsys, "count", "--n=4", "--format=csv") == run(
        capsys, "count", "--n", "4", "--format", "csv")


def test_workers_do_not_change_output(capsys):
    _, solo, _ = run(capsys, "table", "--n", "2..4", "--format", "csv")
    _, duo, _ = run(capsys, "table", "--n", "2..4", "--format", "csv",
                    "--workers", "2")
    assert solo == duo


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--n", "2..5", "--collect",
                       "--format", "csv", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == TABLE_CSV


def test_orbits_text(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n=3: 80 solutions in 40 conjugacy classes "
                        "under the sigma centralizer")
    assert len(lines) == 41
    assert lines[1] == ("  class 1: size=2 image=S3 sigma=(1,2) "
                        "a1=() a2=() b1=() b2=(1,2,3)")


def test_orbits_csv(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,orbit,size,image,sigma,a1,a2,b1,b2"
    assert len(lines) == 17
    assert lines[1] == '2,1,1,C2,"(1,2)",(),(),(),()'
    assert lines[16] == '2,16,1,C2,"(1,2)","(1,2)","(1,2)","(1,2)","(1,2)"'


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_count"] == 240
    assert len(doc["orbits"]) == 240
    assert all(o["size"] == 2 for o in doc["orbits"])
    assert all(o["representative"]["image"]["name"] == "D8"
               for o in doc["orbits"])


def test_orbits_workers_do_not_change_output(capsys):
    _, solo, _ = run(capsys, "orbits", "--n", "6", "--format", "json")
    _, duo, _ = run(capsys, "orbits", "--n", "6", "--format", "json",
                    "--workers", "2")
    assert solo == duo
    assert json.loads(solo)["orbit_count"] == 60


# sha256 of `orbits --n 8 --confirm-long --format json` stdout
ORBITS_N8_SHA256 = (
    "d9d152c427d486c5afa8b2418225afa17dd643d79bb5bbbd16434297158a3fb4")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_orbits_n8_digest(capsys, workers):
    # the 240 classes of degree 8, in process and pooled
    code, out, _ = run(capsys, "orbits", "--n", "8", "--confirm-long",
                       "--workers", workers, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBITS_N8_SHA256


@pytest.mark.parametrize("n", ["4", "6"])
def test_arrival_order_changes_no_byte(capsys, monkeypatch, n):
    # the pool's outputs are absorbed as they finish: count, orbits and
    # list write the same stdout and stderr on 1, 2 and 3 workers, and
    # when the pooled jobs finish in reverse order
    from braidcovers import pool

    def outputs(workers):
        return [run(capsys, *command, "--n", n, "--workers", workers)
                for command in (["count"], ["orbits", "--format", "json"],
                                ["list"])]

    expected = outputs("1")
    assert [code for code, _, _ in expected] == [0, 0, 0]
    for workers in ("2", "3"):
        assert outputs(workers) == expected
    monkeypatch.setattr(pool, "run_jobs", reversed_pool)
    assert outputs("2") == expected


def _fingerprint_calls(monkeypatch, capsys, *argv):
    """The groups.fingerprint calls of one command, its memo empty."""
    from braidcovers import groups

    calls = []
    fingerprint = groups.fingerprint

    def spy(generators, n):
        calls.append(generators)
        return fingerprint(generators, n)

    groups._set_fingerprint.cache_clear()
    monkeypatch.setattr(groups, "fingerprint", spy)
    assert run(capsys, *argv)[0] == 0
    return calls


def test_orbits_fingerprints_each_class_once(monkeypatch, capsys):
    # classify's summary and the rendering of the classes share the
    # generator-set memo: one call per class of degree 6
    calls = _fingerprint_calls(monkeypatch, capsys, "orbits", "--n", "6",
                               "--format", "json")
    assert len(calls) == 24
    assert len({frozenset(gens) for gens in calls}) == 24


def test_list_fingerprints_one_set_per_job_output(monkeypatch, capsys):
    # list fingerprints the job output each line comes from, not each of
    # the 288 generator sets of its 2,880 lines
    calls = _fingerprint_calls(monkeypatch, capsys, "list", "--n", "6")
    assert 0 < len(calls) <= 60


def test_table_collect_through_degree_seven(capsys):
    # classes come from the factored search, so degree 7 is quick
    code, out, _ = run(capsys, "table", "--n", "2..7", "--collect",
                       "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[:5] == TABLE_CSV.splitlines()
    assert rows[6] == "7,0,21,0,0,3,1,9,"


def test_list_streams_solutions(capsys):
    code, out, _ = run(capsys, "list", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == (
        '{"a1":"()","a2":"()","b1":"()","b2":"()",'
        '"image":{"abelian":true,"name":"C2","order":2,'
        '"order_histogram":{"1":1,"2":1},"transitive":true},'
        '"n":2,"sigma":"(1,2)"}')
    docs = [json.loads(line) for line in lines]
    assert all(d["sigma"] == "(1,2)" for d in docs)
    assert len({(d["a1"], d["a2"], d["b1"], d["b2"]) for d in docs}) == 16


def test_list_to_file(tmp_path, capsys):
    path = tmp_path / "sols.jsonl"
    code, out, _ = run(capsys, "list", "--n", "3", "--out", str(path))
    assert code == 0 and out == ""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 80
    assert all(json.loads(line)["image"]["name"] == "S3" for line in lines)


# sha256 of `list --n N` stdout at the smaller degrees with solutions:
# n = 4 pins the a2-level size rule, where |C1| is 3 |C(s b1 s)|
LIST_SHA256 = {
    "2": "22c490ffbd280af257d6a1f3d227d597613aef5cf2e76504a3d17d31a726cf9d",
    "3": "f2d361ed5b202a898e29e662f06fd07bda51b68f219aab7a89d95b89ba298746",
    "4": "000235b1e85b27a1afd6d56ccc8b13c925da8ee368a8a646b39bf5ea9107d24c",
    "6": LIST_N6_SHA256,
}


def test_list_parallel_matches_stream(tmp_path, capsys):
    # n=6 has many non-empty slices, absorbed from the pool as they
    # finish; the digest of each output pins the solution order
    for n, digest in LIST_SHA256.items():
        _, streamed, _ = run(capsys, "list", "--n", n)
        _, pooled, _ = run(capsys, "list", "--n", n, "--workers", "2")
        assert hashlib.sha256(streamed.encode()).hexdigest() == digest
        assert hashlib.sha256(pooled.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 7))
def test_list_lines_match_solution_json(capsys, n):
    # list assembles its lines itself; they must stay the rendering of
    # _solution_json that orbits uses
    from braidcovers import search

    solutions = []
    search.enumerate_fixed_sigma(
        n, sink=lambda sol, origin: solutions.append(sol))
    code, out, _ = run(capsys, "list", "--n", str(n))
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert len(lines) == len(solutions)
    cache = cli._ImageCache()
    for line, sol in zip(lines, solutions):
        doc = cli._solution_json(sol, cache)
        assert line == cli._dumps_line(doc)
        assert json.loads(line) == doc


@pytest.mark.long
@pytest.mark.parametrize("workers", ["1", "2"])
def test_list_n8_digest(tmp_path, workers):
    # the order list streams at degree 8 follows the route lists
    # search._block picks for a2 and b2, which the n=6 digest does not pin;
    # one slice, and one progress line, per factored job
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    digest = hashlib.sha256()
    with open(tmp_path / "err", "w+b") as err:
        with subprocess.Popen(
                [sys.executable, "-m", "braidcovers.cli", "list", "--n", "8",
                 "--confirm-long", "--workers", workers],
                env=env, stdout=subprocess.PIPE, stderr=err) as proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        assert proc.returncode == 0
        err.seek(0)
        progress = err.read().decode().splitlines()
    assert digest.hexdigest() == LIST_N8_SHA256
    assert progress == [f"n=8: slice {i}/4 searched" for i in range(1, 5)]


def test_oracle_match(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 0
    assert out == "MATCH: 80 = 80\n"


def test_oracle_mismatch_exits_2(capsys, monkeypatch):
    from braidcovers import search

    real = search.brute_force_oracle

    def doctored(n):
        return real(n)[:-1]

    monkeypatch.setattr(search, "brute_force_oracle", doctored)
    code, out, _ = run(capsys, "oracle", "--n", "2")
    assert code == 2
    assert out == "MISMATCH: 16 != 15 (only-engine=1 only-brute=0)\n"


def test_oracle_compares_sets(capsys, monkeypatch):
    # one solution swapped for a non-solution: the counts agree and the
    # sets do not
    from braidcovers import perm, search, words

    real = search.brute_force_oracle

    def doctored(n):
        sols = real(n)
        e = perm.identity(n)
        return [words.Assignment(n, sols[0].sigma, e, e, e, e), *sols[1:]]

    monkeypatch.setattr(search, "brute_force_oracle", doctored)
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 2
    assert out == "MISMATCH: 80 != 80 (only-engine=1 only-brute=1)\n"


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 2, "match": True, "engine_count": 16,
                   "brute_force_count": 16}


def test_invariants_csv(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "2..3", "--format", "csv")
    assert code == 0
    assert out == (
        "n,chi,K2,c2,pa_Z,Gamma2,Z2,GammaZ,R2,RZ,RR0,general_type,"
        "z_reducible_forced\n"
        "2,1,8,4,2,-8,-2,12,-2,6,0,True,False\n"
        "3,1,7,5,1,-12,-3,18,-2,6,0,True,False\n")


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "8")
    assert code == 0
    assert "K^2=2" in out and "c_2=10" in out and "pa(Z)=-4" in out


def test_invariants_need_no_search_gates(capsys):
    # pure formulas: neither --confirm-long nor the degree cap applies
    code, out, _ = run(capsys, "invariants", "--n", "13..14")
    assert code == 0
    assert "n=13" in out and "n=14" in out and "general_type=False" in out


# what the error line of some command lines must say
USAGE_MESSAGES = {
    ("count", "--n", "13"): "exceeds the cap 12",
    ("count", "--n", "4", "--conf"): "--conf",
}


@pytest.mark.parametrize("argv", [
    ("count", "--n", "nope"),
    ("count", "--n", "1"),
    ("count", "--n", "3..4"),          # count takes a single degree
    ("table", "--n", "5..3"),          # empty range
    ("table", "--n", "2..4", "--format", "yaml"),
    ("orbits", "--n", "3", "--workers", "0"),
    ("orbits", "--n", "3", "--seed", "7"),
    ("list", "--n", "9"),              # missing --confirm-long
    ("table", "--n", "2..8"),          # range reaching the long degrees
    ("count", "--n", "13", "--confirm-long"),  # above the degree cap
    ("oracle", "--n", "5"),            # oracle is capped at 4
    ("bogus", "--n", "3"),
    # flags a command does not read are not accepted
    ("list", "--n", "3", "--format", "csv"),
    ("list", "--n", "3", "--collect"),
    ("orbits", "--n", "3", "--collect"),
    ("oracle", "--n", "3", "--confirm-long"),
    ("oracle", "--n", "3", "--collect"),
    ("invariants", "--n", "3", "--workers", "2"),
    ("invariants", "--n", "3", "--confirm-long"),
    ("invariants", "--n", "3", "--collect"),
    ("invariants", "--n", "3", "--seed", "7"),
    ("count", "--n", "13"),            # above the cap, without the go-ahead
    (),                                # no command
    ("count",),                        # no --n
    ("count", "--n"),                  # a flag without its value
    ("count", "--n", "4", "--workers"),
    ("count", "--n", "4", "--workers", "two"),
    ("count", "--n", "4", "stray"),
    ("count", "--n", "4", "--conf"),   # flags match by full name only
    ("count", "--n=4", "--format=yaml"),
])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err.lower()
    assert err.count("\n") == 1
    assert USAGE_MESSAGES.get(argv, "") in err


# the flags each command's help names beside --n and --help
HELP_FLAGS = {
    "count": "--workers --format --out --confirm-long --collect",
    "table": "--workers --format --out --confirm-long --collect",
    "orbits": "--workers --format --out --confirm-long",
    "list": "--workers --out --confirm-long",
    "oracle": "--workers --format --out",
    "invariants": "--format --out",
}


@pytest.mark.parametrize("command", HELP_FLAGS)
def test_command_help_names_its_flags(capsys, command):
    import re

    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag])
        assert exc.value.code == 0
        named = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert named == {"--help", "--n", *HELP_FLAGS[command].split()}


def test_unwritable_out_path_exits_1(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, out, err = run(capsys, "invariants", "--n", "3",
                         "--out", str(missing))
    assert code == 1
    assert out == ""
    assert "cannot write output" in err


def test_unwritable_out_error_names_the_target(capsys, tmp_path):
    # the error names the path given, not the temporary file beside it
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "list", "--n", "6", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == ("braidcovers: error: cannot write output: [Errno 2] "
                   f"No such file or directory: '{target}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["missing/dir/x", "", "sub/"],
                         ids=["missing-dir", "empty", "trailing-slash"])
def test_unwritable_out_path_fails_before_search(capsys, monkeypatch,
                                                 tmp_path, path):
    # list --n 8 runs for about 10 s on one worker, so a search started
    # before the output check shows; "" and "sub/" name no file, and
    # nothing is written in the working directory or beside it
    import time
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "list", "--n", "8", "--confirm-long",
                         "--out", path)
    assert code == 1
    assert out == ""
    assert "cannot write output" in err
    assert err.count("\n") == 1
    assert time.perf_counter() - t0 < 1.0
    assert list(tmp_path.iterdir()) == [cwd]
    assert list(cwd.iterdir()) == []


def test_interrupted_out_leaves_no_file(capsys, monkeypatch, tmp_path):
    from braidcovers import search

    real = search.enumerate_fixed_sigma

    def interrupted(n, *, sink=None, **kwargs):
        written = []

        def stop_after_ten(sol, origin):
            sink(sol, origin)
            written.append(sol)
            if len(written) == 10:
                raise KeyboardInterrupt
        return real(n, sink=stop_after_ten, **kwargs)

    monkeypatch.setattr(search, "enumerate_fixed_sigma", interrupted)
    path = tmp_path / "sols.jsonl"
    code, out, err = run(capsys, "list", "--n", "6", "--out", str(path))
    assert code == 130
    assert out == ""
    assert err == "braidcovers: interrupted\n"
    assert list(tmp_path.iterdir()) == []


def test_out_to_device_writes_in_place(capsys):
    import stat

    code, out, _ = run(capsys, "invariants", "--n", "2", "--out", os.devnull)
    assert code == 0 and out == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_interrupt_exits_130(capsys, monkeypatch):
    from braidcovers import search

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(search, "enumerate_fixed_sigma", interrupted)
    code, out, err = run(capsys, "count", "--n", "4", "--workers", "2")
    assert code == 130
    assert out == ""
    assert err == "braidcovers: interrupted\n"


def _group_members(pgid):
    """(pid, parent pid) of the live processes in a process group, read
    from /proc."""
    members = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append((int(pid), int(fields[1])))
    return members


def _group_size(pgid):
    return len(_group_members(pgid))


# `braidcovers` with every search job its forked helpers run held for
# 60 s, so that they are still busy when a test signals the run, while
# the parent has walked its own jobs and waits on them
_HELD_CLI = """\
import os
import sys
import time

from braidcovers import cli, search

search_chunk = search._search_chunk
parent = os.getpid()


def held_chunk(job):
    if os.getpid() != parent:
        time.sleep(60)
    return search_chunk(job)


search._search_chunk = held_chunk
sys.exit(cli.main(sys.argv[1:]))
"""


def _pooled_list(out_path):
    """list --n 6 --out out_path on three workers, the two helpers' jobs
    held by _HELD_CLI, in a subprocess leading its own process group,
    returned once both helpers have run for a second.  The parent builds
    the factored jobs before the pool starts, so a fixed delay could come
    before any helper exists."""
    import pathlib
    import signal
    import subprocess
    import sys
    import time

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", _HELD_CLI, "list", "--n", "6",
         "--workers", "3", "--out", str(out_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    deadline = time.monotonic() + 60
    while _group_size(proc.pid) < 3 and time.monotonic() < deadline:
        time.sleep(0.05)
    time.sleep(1.0)
    return proc


def _finish(proc):
    """stdout and stderr of a pooled run; whatever of its process group
    still runs after 30 s is killed."""
    import signal
    try:
        return proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _assert_group_gone(pgid):
    import time
    for _ in range(50):
        if _group_size(pgid) == 0:
            break
        time.sleep(0.1)
    assert _group_size(pgid) == 0


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_ctrl_c_under_pool_exits_130(tmp_path):
    # SIGINT to the whole process group, as a terminal's Ctrl-C sends it,
    # once the two helpers are running; neither the target nor the
    # temporary file beside it is left
    import signal

    proc = _pooled_list(tmp_path / "sols.jsonl")
    try:
        assert proc.poll() is None
        os.killpg(proc.pid, signal.SIGINT)
    finally:
        out, err = _finish(proc)
    assert proc.returncode == 130
    assert out == b""
    assert b"Traceback" not in err
    assert err.splitlines()[-1] == b"braidcovers: interrupted"
    _assert_group_gone(proc.pid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigint_to_cli_alone_under_pool_exits_130(tmp_path):
    # SIGINT to the CLI process only, as `kill -INT <pid>` sends it: the
    # helpers get no signal, and the CLI ends them rather than
    # waiting for their running slices
    import signal
    import time

    proc = _pooled_list(tmp_path / "sols.jsonl")
    try:
        assert proc.poll() is None
        os.kill(proc.pid, signal.SIGINT)
        t0 = time.monotonic()
    finally:
        out, err = _finish(proc)
    assert time.monotonic() - t0 < 2.0
    assert proc.returncode == 130
    assert out == b""
    assert b"Traceback" not in err
    assert err.splitlines()[-1] == b"braidcovers: interrupted"
    _assert_group_gone(proc.pid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_killed_worker_exits_1(tmp_path):
    # a helper killed outright ends the run with one error line,
    # and the other helper goes with it
    import signal

    proc = _pooled_list(tmp_path / "sols.jsonl")
    try:
        assert proc.poll() is None
        workers = [pid for pid, parent in _group_members(proc.pid)
                   if parent == proc.pid]
        assert len(workers) == 2
        os.kill(workers[0], signal.SIGKILL)
    finally:
        out, err = _finish(proc)
    assert proc.returncode == 1
    assert out == b""
    assert b"Traceback" not in err
    assert err.splitlines()[-1].startswith(b"braidcovers: error:")
    _assert_group_gone(proc.pid)


def test_sigterm_removes_partial_out(tmp_path):
    # SIGTERM mid-search ends the run with 143 and one stderr line, and
    # the temporary file beside the target is removed
    import pathlib
    import signal
    import subprocess
    import sys
    import time

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    target = tmp_path / "sols.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidcovers.cli", "list", "--n", "6",
         "--out", str(target)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not list(tmp_path.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [p.name for p in tmp_path.iterdir()] == [
            f".sols.jsonl.{proc.pid}.tmp"]
        assert proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 143
    assert out == b""
    assert err == b"braidcovers: terminated\n"
    assert list(tmp_path.iterdir()) == []


def test_pool_modules_load_only_with_a_pool():
    # in a fresh interpreter, no command imports multiprocessing or
    # concurrent.futures: not the single-worker ones, and not a count
    # whose two workers are forked
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    script = (
        "import sys\n"
        "from braidcovers import cli\n"
        "assert cli.main(['invariants', '--n', '2']) == 0\n"
        "assert cli.main(['count', '--n', '6']) == 0\n"
        "def loaded():\n"
        "    print('loaded:', [m for m in ('multiprocessing',"
        " 'concurrent.futures') if m in sys.modules])\n"
        "loaded()\n"
        "assert cli.main(['count', '--n', '4', '--workers', '2']) == 0\n"
        "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("loaded: []") == 2
    after = lines[lines.index("loaded: []") + 1:]
    assert after[0].startswith("n=4: 480 representations with sigma=(1,2)")
    assert after[-1] == "loaded: []"


@pytest.mark.parametrize("call,frozen", [
    ("from braidcovers import cli; cli.main(['invariants', '--n', '2'])",
     "True"),
    ("from braidcovers import search; search.enumerate_fixed_sigma(4)",
     "False"),
], ids=["cli", "library"])
def test_only_the_cli_freezes_at_exit(call, frozen):
    # cli.main registers gc.freeze with atexit, so the process skips the
    # final collection; a handler registered before it runs after it
    # (last in, first out) and sees the frozen objects.  A library call
    # registers nothing.
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    script = ("import atexit, gc\n"
              "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
              + call + "\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == frozen


def test_cli_process_exit_codes_and_out_file(capsys, tmp_path):
    # a CLI process that freezes at exit still writes its --out file in
    # full and exits 0, and a usage error still exits 1
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    target = tmp_path / "count.txt"
    cli_argv = [sys.executable, "-m", "braidcovers.cli", "count", "--n"]
    proc = subprocess.run(
        cli_argv + ["6", "--workers", "2", "--out", str(target)],
        env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    code, out, _ = run(capsys, "count", "--n", "6")
    assert code == 0
    assert target.read_bytes() == out.encode()
    proc = subprocess.run(cli_argv + ["1"], env=env, capture_output=True,
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"braidcovers: error: --n:")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker is forked")
def test_pooled_run_leaks_nothing(capsys):
    # a CLI process skips the exit collection, which would report a
    # leaked pipe as a ResourceWarning, so a pooled run is checked here:
    # every pipe closed, every worker reaped
    import gc
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "count", "--n", "8", "--confirm-long",
                         "--workers", "2")
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("command,first_line", [
    ("count", "n=9: 0 representations"),
    ("orbits", "n=9: 0 solutions in 0 conjugacy classes"),
], ids=["count", "orbits"])
def test_count_n9_peak_rss_under_40mb(command, first_line):
    # a single-worker degree-9 count or class search lists no C1 the size
    # of S_n; the peak is read by a wrapper child, so earlier children of
    # this process do not count
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    wrapper = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], check=True); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m",
         "braidcovers.cli", command, "--n", "9", "--confirm-long"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    *out, peak_kib = proc.stdout.splitlines()
    assert out[0].startswith(first_line)
    assert int(peak_kib) < 40 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("argv,error", [
    (["table", "--n", "2..99999999999", "--confirm-long"],
     b"degree 99999999999 exceeds the cap 12"),
    (["invariants", "--n", "2..99999999999"], b"out of memory"),
], ids=["table", "invariants"])
def test_huge_degree_range_is_one_line(argv, error):
    # a searching command refuses a huge range by its top degree, and the
    # degree list of one that is not capped does not fit in a child whose
    # address space is capped at 1 GiB; the run ends in one stderr line
    import pathlib
    import subprocess

    import braidcovers

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(braidcovers.__file__).parents[1])
    capped = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from braidcovers import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", capped, *argv], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b"braidcovers: error: " + error + b"\n"


def test_out_of_memory_exits_1(capsys, monkeypatch):
    from braidcovers import search

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(search, "_search_chunk", exhausted)
    code, out, err = run(capsys, "orbits", "--n", "4")
    assert code == 1
    assert out == ""
    assert err == "braidcovers: error: out of memory in the degree-4 search\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker is forked")
def test_out_of_memory_in_worker_exits_1(capsys, monkeypatch):
    # a forked worker that runs out of memory ends the run with the
    # in-process search's one error line, and no traceback
    from braidcovers import search

    parent = os.getpid()
    chunk = search._search_chunk

    def exhausted(job):
        if os.getpid() != parent:
            raise MemoryError
        return chunk(job)

    monkeypatch.setattr(search, "_search_chunk", exhausted)
    code, out, err = run(capsys, "count", "--n", "6", "--workers", "2")
    assert code == 1
    assert out == ""
    assert err == "braidcovers: error: out of memory in the degree-6 search\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker is forked")
def test_failed_worker_exits_1(capsys, monkeypatch):
    # a forked worker whose slice raises ends the run with one error line
    # naming the exception, no traceback, and no helper left
    from braidcovers import search

    parent = os.getpid()
    chunk = search._search_chunk

    def failing(job):
        if os.getpid() != parent:
            raise ValueError("bad slice")
        return chunk(job)

    monkeypatch.setattr(search, "_search_chunk", failing)
    code, out, err = run(capsys, "count", "--n", "6", "--workers", "2")
    assert code == 1
    assert out == ""
    assert err == ("braidcovers: error: search worker failed: "
                   "ValueError('bad slice')\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker is forked")
def test_failed_worker_start_exits_1(capsys, monkeypatch, tmp_path):
    # a helper that cannot be forked, the second of a run on three
    # workers, ends the run with one error line, which names the start and
    # not the output, and leaves no --out file and no helper behind
    import errno

    fork = os.fork
    forks = []

    def failing_fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    code, out, err = run(capsys, "list", "--n", "6", "--workers", "3",
                         "--out", str(tmp_path / "sols.jsonl"))
    assert code == 1
    assert out == ""
    assert err == ("braidcovers: error: cannot start a search worker: "
                   f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gate_blocks_before_any_search(capsys):
    # degree 9 without --confirm-long must fail fast, not enumerate
    import time
    t0 = time.perf_counter()
    code, _, err = run(capsys, "count", "--n", "9")
    assert code == 1
    assert "confirm-long" in err
    assert time.perf_counter() - t0 < 1.0


def test_help_exits_zero(capsys):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in HELP_FLAGS)
