"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altset_oracle import free_runs
from qmult import altset, cli
from qmult.altset import WeylSweep, alt_set_brute, alt_set_cardinality, fibonacci
from qmult.cli import main, parse_index_set, parse_mu
from qmult.intervals import IndexSet
from qmult.multiplicity import m_q_closed_general
from qmult.poly import ZERO, QPolynomial
from qmult.roots import RootVector
from qmult.weyl import DEFAULT_BRUTE_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_index_set_grammar(self):
        assert parse_index_set("1,3-5,7", 8).members == (1, 3, 4, 5, 7)
        assert parse_index_set("2-2", 4).members == (2,)
        assert parse_index_set("3,1,3", 4).members == (1, 3)

    def test_index_set_errors(self):
        for spec in ("", "abc", "5-3", "0,3", "9", "1,,2", "1-"):
            with pytest.raises(ValueError):
                parse_index_set(spec, 8)

    def test_mu_coeff_form(self):
        assert parse_mu("coeffs:1,0,2", 3) == RootVector(3, (1, 0, 2))
        assert parse_mu("1,3", 5) == RootVector(5, (1, 0, 1, 0, 0))
        with pytest.raises(ValueError):
            parse_mu("coeffs:1,0", 3)
        with pytest.raises(ValueError):
            parse_mu("coeffs:a,b,c", 3)


class TestGrammarOnce:
    """The grammar is built on the first ``main()`` call of a process and
    shared by every later call; what one call parsed does not reach the next."""

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        built = 0
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ("partition", "--rank", "3", "--xi", "1,1,1")
        run_cli(capsys, *argv)
        built = 0
        assert run_cli(capsys, *argv) == (0, "q^3 + 2q^2 + q\n", "")
        assert built == 0

    def test_import_builds_no_parser(self):
        # a fresh process, so no earlier call has built the grammar; the
        # second count shows the wrapper sees the parsers once they are built
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import qmult.cli\n"
            "print(len(built))\n"
            "qmult.cli.build_parser()\n"
            "print(len(built))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        at_import, after_build = map(int, proc.stdout.split())
        assert at_import == 0 and after_build > 0

    def test_brute_cap_does_not_outlive_its_call(self, capsys, monkeypatch):
        monkeypatch.delenv("QMULT_BRUTE_CAP", raising=False)
        argv = ("multiplicity", "--rank", "10", "--mu", "3,7")
        code, out, _ = run_cli(capsys, *argv, "--brute-cap", "10")
        assert code == 0 and out.endswith("verdict: AGREE\n")
        assert run_cli(capsys, *argv) == (2, "", "error: rank 10 exceeds brute-force cap 9\n")

    def test_method_and_format_do_not_outlive_their_call(self, capsys, monkeypatch):
        calls = []

        def brute(*args):
            calls.append(args)
            return alt_set_brute(*args)

        monkeypatch.setattr(cli, "alt_set_brute", brute)
        argv = ("altset", "--rank", "6", "--mu", "2,5")
        code, out, _ = run_cli(capsys, *argv, "--method", "brute", "--format", "json")
        assert code == 0 and json.loads(out)["method"] == "brute"
        assert run_cli(capsys, *argv) == (
            0, "cardinality: 3\nfib_profile: 2,4,2\nelements: 1 s3 s4\n", "")
        assert len(calls) == 1

    def test_cap_variable_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.delenv("QMULT_BRUTE_CAP", raising=False)
        argv = ("multiplicity", "--rank", "4", "--mu", "1", "--method", "brute")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("QMULT_BRUTE_CAP", "3")
        assert run_cli(capsys, *argv) == (2, "", "error: rank 4 exceeds brute-force cap 3\n")


class TestPartitionCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1,1")
        assert code == 0
        assert out == "q^3 + 2q^2 + q\n"

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1,1",
                               "--format", "latex")
        assert code == 0
        assert out == "q^{3}+2q^{2}+q\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1,1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rank": 3, "xi": [1, 1, 1], "method": "dp",
                           "coeffs": [0, 1, 2, 1]}

    def test_oracle_matches_dp(self, capsys):
        _, dp_out, _ = run_cli(capsys, "partition", "--rank", "4", "--xi", "1,2,1,0")
        _, oracle_out, _ = run_cli(capsys, "partition", "--rank", "4", "--xi", "1,2,1,0",
                                   "--method", "oracle")
        assert dp_out == oracle_out

    def test_negative_coefficients_give_zero(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,-1,1")
        assert code == 0
        assert out == "0\n"

    def test_bad_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1")
        assert code == 2
        assert "error" in err

    def test_oracle_cap_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--rank", "3", "--xi", "7,7,7",
                               "--method", "oracle")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("method", ["dp", "oracle"])
    def test_large_negative_coefficient_gives_zero(self, capsys, method):
        # the oracle's cap bounds the coefficient sum of a nonnegative xi only
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi=-30,1,1",
                               "--method", method)
        assert (code, out) == (0, "0\n")

    def test_negative_first_coefficient_needs_the_equals_form(self, capsys):
        # argparse takes a separate "-1,2,1" for an option, so the README and
        # --help spell such input --xi=-1,2,1
        code, out, _ = run_cli(capsys, "partition", "--rank", "3", "--xi=-1,2,1")
        assert (code, out) == (0, "0\n")
        code, out, err = run_cli(capsys, "partition", "--rank", "3", "--xi", "-1,2,1")
        assert (code, out) == (2, "")
        assert "expected one argument" in err


class TestAltsetCommand:
    def test_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "altset", "--rank", "7", "--mu", "4")
        assert code == 0
        assert out == (
            "cardinality: 9\n"
            "fib_profile: 4,4\n"
            "elements: 1 s2 s3 s5 s6 s2*s5 s2*s6 s3*s5 s3*s6\n"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "altset", "--rank", "7", "--mu", "4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinality"] == 9
        assert payload["fib_profile"] == [4, 4]
        assert payload["elements"][0] == "1"
        assert "s3*s6" in payload["elements"]

    def test_brute_and_closed_agree(self, capsys):
        _, closed_out, _ = run_cli(capsys, "altset", "--rank", "6", "--mu", "2,5",
                                   "--format", "json")
        _, brute_out, _ = run_cli(capsys, "altset", "--rank", "6", "--mu", "2,5",
                                  "--method", "brute", "--format", "json")
        closed = json.loads(closed_out)
        brute = json.loads(brute_out)
        assert closed["elements"] == brute["elements"]
        assert closed["cardinality"] == brute["cardinality"]


class TestMultiplicityCommand:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "5", "--mu", "1,5")
        assert code == 0
        assert "brute: q^3 - q^2  [terms 720]" in out
        assert "altset: q^3 - q^2  [terms 5]" in out
        assert out.rstrip().endswith("verdict: AGREE")

    def test_altset_on_one_wide_run_finishes(self):
        # I = {1} at rank 45 leaves one free run of 43 indices and 1.1e9
        # alternation-set elements, summed in one scan of the strip
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qmult.cli", "multiplicity", "--rank", "45", "--mu", "1",
             "--method", "altset"],
            capture_output=True, text=True, timeout=10, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "q^44\n"

    def test_altset_at_rank_1500_finishes(self):
        # F(1500), about 1.4e313 elements, in 1,500 steps of the scan on
        # packed ints of about 4.5 million bits; the (|J|, n) tally it
        # replaced took about 20 s here
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qmult.cli", "multiplicity", "--rank", "1500", "--mu", "1",
             "--method", "altset", "--format", "json"],
            capture_output=True, text=True, timeout=10, env={"PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, "")
        index_set = IndexSet(1500, [1])
        [result] = json.loads(proc.stdout)["results"]
        assert result["coeffs"] == list(m_q_closed_general(index_set).coeffs)
        assert result["terms"] == alt_set_cardinality(index_set) == fibonacci(1500)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "5", "--mu", "1,5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = m_q_closed_general(IndexSet(5, [1, 5]))
        assert payload["agree"] is True
        assert len(payload["results"]) == 4
        for entry in payload["results"]:
            assert QPolynomial(entry["coeffs"]) == expected
        brute = next(e for e in payload["results"] if e["method"] == "brute")
        assert brute["terms"] == 720

    def test_single_method_latex(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "5", "--mu", "1,5",
                               "--method", "closed", "--format", "latex")
        assert code == 0
        assert out == "q^{3}-q^{2}\n"

    def test_coeff_mu_brute(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "4",
                               "--mu", "coeffs:0,1,1,0", "--method", "brute")
        assert code == 0
        assert out == "q^2\n"

    def test_indicator_coeff_mu_promoted(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "4",
                               "--mu", "coeffs:0,1,0,1", "--method", "closed")
        assert code == 0
        assert out == "q^2 - q\n"

    def test_non_indicator_mu_refused_for_closed(self, capsys):
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "4",
                               "--mu", "coeffs:0,2,0,0", "--method", "closed")
        assert code == 2
        assert "brute" in err

    def test_zero_mu(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "3",
                               "--mu", "coeffs:0,0,0", "--method", "closed")
        assert code == 0
        assert out == "q^3 + q^2 + q\n"
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "3",
                               "--mu", "coeffs:0,0,0")
        assert code == 0
        assert "verdict: AGREE" in out

    def test_zero_mu_refused_for_altset(self, capsys):
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "3",
                               "--mu", "coeffs:0,0,0", "--method", "altset")
        assert code == 2
        assert "brute" in err

    def test_brute_cap_flag(self, capsys):
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "1",
                               "--method", "brute", "--brute-cap", "3")
        assert code == 2
        assert "cap" in err

    def test_brute_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QMULT_BRUTE_CAP", "3")
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "1",
                               "--method", "brute")
        assert code == 2
        assert "cap" in err

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QMULT_BRUTE_CAP", "many")
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "1")
        assert code == 2
        assert "QMULT_BRUTE_CAP" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_brute_cap_flag_below_one_rejected(self, capsys, cap):
        code, out, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "1",
                                 "--method", "brute", f"--brute-cap={cap}")
        assert code == 2
        assert out == ""
        assert "--brute-cap" in err and "at least 1" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_brute_cap_env_below_one_rejected(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("QMULT_BRUTE_CAP", cap)
        code, out, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "1",
                                 "--method", "brute")
        assert code == 2
        assert out == ""
        assert "QMULT_BRUTE_CAP" in err and "at least 1" in err
        assert "exceeds" not in err

    def test_cap_exceeded_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "12", "--mu", "1",
                               "--method", "brute")
        assert code == 2
        assert "cap" in err

    def test_closed_methods_work_beyond_brute_cap(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "18", "--mu", "1,18",
                               "--method", "closed")
        assert code == 0
        assert out == "q^16 - q^15\n"

    def test_all_methods_stop_at_the_brute_cap(self, capsys):
        # the default --method all includes brute, so past the cap it exits 2
        # before any route prints; one scalable method or a higher cap runs
        code, out, err = run_cli(capsys, "multiplicity", "--rank", "12", "--mu", "3")
        assert (code, out, err) == (2, "", "error: rank 12 exceeds brute-force cap 9\n")
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "12", "--mu", "3",
                               "--method", "altset")
        assert (code, out) == (0, "q^11\n")
        code, out, _ = run_cli(capsys, "multiplicity", "--rank", "12", "--mu", "3",
                               "--brute-cap", "12")
        assert code == 0
        assert out.endswith("verdict: AGREE\n")


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "4")
        assert code == 0
        assert "VERIFY PASS" in out
        assert "rank 4: 15 index sets" in out

    def test_rank6_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "6")
        assert code == 0
        assert "VERIFY PASS" in out

    def test_rank7_check_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "7")
        assert code == 0
        assert out.splitlines()[-2:] == [
            "rank 7: 127 index sets (exhaustive, all methods)",
            "VERIFY PASS (1729 checks)",
        ]

    def test_brute_runs_to_rank_10_within_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "10")
        assert code == 0
        assert "rank 9: 511 index sets (exhaustive, all methods)" in out
        assert "rank 10: 1023 index sets (exhaustive, closed forms)" in out
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "10", "--brute-cap", "10")
        assert code == 0
        assert "rank 10: 1023 index sets (exhaustive, all methods)" in out
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "8", "--brute-cap", "7")
        assert code == 0
        assert "rank 8: 255 index sets (exhaustive, closed forms)" in out

    def test_one_sweep_per_brute_checked_index_set(self, capsys, monkeypatch):
        passes = 0
        iterate = WeylSweep.__iter__

        def counted(self):
            nonlocal passes
            passes += 1
            return iterate(self)

        monkeypatch.setattr(WeylSweep, "__iter__", counted)
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "6")
        assert code == 0
        assert out.splitlines()[-1] == "VERIFY PASS (840 checks)"
        # one pass per nonempty index set of ranks 1-6
        assert passes == sum(2 ** r - 1 for r in range(1, 7)) == 120

    def test_brute_checks_read_the_sweep(self, capsys, monkeypatch):
        class DropsLastRow(WeylSweep):
            def __iter__(self):
                yield from list(super().__iter__())[:-1]

        monkeypatch.setattr(cli, "WeylSweep", DropsLastRow)
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "3")
        assert code == 1
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert any(line.endswith(": alternation set closed vs brute") for line in mismatches)
        assert any(line.endswith(": brute multiplicity vs closed form") for line in mismatches)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_rejected(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--max-rank", "14",
                                 f"--samples={samples}")
        assert code == 2
        assert out == ""
        assert "--samples" in err

    def test_rank_with_no_index_sets_fails(self, capsys, monkeypatch):
        # argparse refuses --samples 0, so only a direct call draws no index
        # set at a sampled rank; rank 2 then checks nothing
        monkeypatch.setattr(cli, "_VERIFY_EXHAUSTIVE_MAX", 1)
        monkeypatch.delenv("QMULT_BRUTE_CAP", raising=False)
        args = argparse.Namespace(max_rank=2, samples=0, seed=0, brute_cap=None)
        code = cli._run_verify(args)
        out = capsys.readouterr().out
        assert code == 1
        assert "rank 2: 0 index sets (sampled, all methods)" in out
        assert out.splitlines()[-1] == (
            "VERIFY FAIL (0 of 7 checks failed, no index set checked at rank 2)")

    def test_rank_70_passes(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qmult.cli", "verify", "--max-rank", "70", "--samples", "2"],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stdout[-500:]
        assert proc.stdout.splitlines()[-1].startswith("VERIFY PASS")
        assert "rank 70: 2 index sets (sampled, closed forms)" in proc.stdout


class TestVerifySampler:
    """Past the exhaustive ranks, ``verify`` draws each index set uniformly,
    with replacement, among all 2^r - 1 nonempty index sets at rank r."""

    def test_draws_hit_every_index_set_and_no_other(self, capsys, monkeypatch):
        # 200 draws per nonempty mask of rank 6: each mask of rank r is
        # hit about 200 * 63 / (2^r - 1) times
        drawn = {r: Counter() for r in range(1, 7)}

        def record(index_set, brute_cap):
            drawn[index_set.rank][index_set.members] += 1
            return [("recorded", True)]

        monkeypatch.setattr(cli, "_VERIFY_EXHAUSTIVE_MAX", 0)
        monkeypatch.setattr(cli, "_verify_one", record)
        samples = 200 * 63
        code, _, _ = run_cli(capsys, "verify", "--max-rank", "6",
                             "--samples", str(samples), "--seed", "1")
        assert code == 0
        for r, hits in drawn.items():
            masks = range(1, 1 << r)
            assert set(hits) == {cli._from_mask(r, mask).members for mask in masks}, r
            expected = samples / len(masks)
            assert all(0.6 * expected <= n <= 1.4 * expected for n in hits.values()), r


class TestVerifyTable:
    """``_verify_one`` returns one index set's checks as (label, passed)
    pairs, in the order they run; ``verify`` counts them and lists the
    failed ones."""

    CLOSED = ["complement run count", "altset sum vs closed form",
              "rank reduction vs closed form", "term count vs Fibonacci product"]
    FACTORIZATION = ["partition factorization over runs"]
    BRUTE = ["alternation set closed vs brute", "brute multiplicity vs closed form"]

    def test_all_seven_checks_at_low_rank(self):
        checks = cli._verify_one(IndexSet(3, [2]), 9)
        assert checks == [(label, True)
                          for label in self.CLOSED + self.FACTORIZATION + self.BRUTE]

    def test_no_factorization_past_rank_8(self):
        checks = cli._verify_one(IndexSet(9, [1, 5, 9]), DEFAULT_BRUTE_CAP)
        assert checks == [(label, True) for label in self.CLOSED + self.BRUTE]

    def test_closed_forms_only_past_the_brute_range(self):
        checks = cli._verify_one(IndexSet(11, [4, 7, 8]), None)
        assert checks == [(label, True) for label in self.CLOSED]

    def test_every_check_passes_past_the_brute_range(self):
        # with the brute cap lifted to the rank, the sweep's alternation set
        # and signed sum meet the closed forms on every index set at rank 11,
        # on two seeded uniform draws per rank at ranks 13-30 and on three
        # index sets with a wide free run, where verify checks the closed
        # forms alone; the sweep has |A| leaves, so draws past 50,000 are skipped
        expected = [(label, True) for label in self.CLOSED + self.BRUTE]
        for mask in range(1, 1 << 11):
            assert cli._verify_one(cli._from_mask(11, mask), 11) == expected, mask
        rng = random.Random(1)
        for r in range(13, 31):
            for _ in range(2):
                index_set = cli._from_mask(r, rng.randrange(1, 1 << r))
                if alt_set_cardinality(index_set) <= 50_000:
                    assert cli._verify_one(index_set, r) == expected, index_set
        # a uniform draw has about r / 2 members, so none of these has a free
        # run wider than 8 indices; these have one of 11, 14 and 12 (beside one of 5)
        for index_set in (IndexSet(13, [13]), IndexSet(16, [1, 16]), IndexSet(20, [7, 20])):
            assert max(hi - lo + 1 for lo, hi in free_runs(index_set)) >= 10
            assert cli._verify_one(index_set, index_set.rank) == expected, index_set

    def test_failed_checks_are_listed_and_counted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "m_q_rank_reduction", lambda index_set: ZERO)
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "3")
        assert code == 1
        lines = out.splitlines()
        mismatches = [line for line in lines if line.startswith("MISMATCH")]
        assert len(mismatches) == 11
        assert all(line.startswith("MISMATCH rank ")
                   and line.endswith(": rank reduction vs closed form") for line in mismatches)
        assert mismatches[0] == "MISMATCH rank 1, I={1}: rank reduction vs closed form"
        assert lines[-1] == "VERIFY FAIL (11 of 77 checks failed)"


class TestBenchCommand:
    def test_csv_schema_and_term_counts(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--max-rank", "7", "--mu", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert set(rows[0]) == {"rank", "mu", "method", "terms", "micros"}
        assert {row["rank"] for row in rows} == {"4", "5", "6", "7"}
        at7 = {row["method"]: row for row in rows if row["rank"] == "7"}
        assert int(at7["brute"]["terms"]) == 40320
        assert int(at7["altset"]["terms"]) == 9
        assert all(int(row["micros"]) >= 0 for row in rows)
        assert all(row["mu"] == "4" for row in rows)

    def test_mu_with_commas_survives_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--max-rank", "6", "--mu", "1,3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(row["mu"] == "1,3" for row in rows)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        for argv in (
            ("multiplicity", "--rank", "6", "--mu", "2,5", "--format", "json"),
            ("altset", "--rank", "7", "--mu", "4"),
            ("partition", "--rank", "4", "--xi", "1,2,1,0", "--format", "latex"),
            ("verify", "--max-rank", "3"),
        ):
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_method(self, capsys):
        code, _, _ = run_cli(capsys, "multiplicity", "--rank", "3", "--mu", "1",
                             "--method", "magic")
        assert code == 2

    def test_rank_below_one(self, capsys):
        code, _, _ = run_cli(capsys, "partition", "--rank", "0", "--xi", "")
        assert code == 2

    def test_bad_mu(self, capsys):
        code, _, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "0,2")
        assert code == 2
        assert "index set" in err

    @pytest.mark.parametrize("spec", ["1-10000000000", "1-20000000", "1-1000",
                                      "1-" + "9" * 9998])
    def test_range_past_rank_is_refused_before_expansion(self, capsys, spec):
        # the range is checked against the rank before it is expanded, and
        # the error names the item, at most its first 32 characters, instead
        # of echoing every member
        code, out, err = run_cli(capsys, "altset", "--rank", "5", "--mu", spec)
        assert code == 2
        assert out == ""
        assert spec[:32] in err and len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ("partition", "--rank", "3", "--xi"),
        ("multiplicity", "--rank", "3", "--method", "brute", "--mu"),
    ])
    def test_malformed_coefficient_is_named_alone(self, capsys, argv):
        # one bad entry among 5,000: the error names it, at most its first 32
        # characters, and its position instead of echoing the whole list
        for bad in ("x", "x" * 10_000):
            body = ",".join(["1"] * 4999 + [bad])
            if argv[-1] == "--mu":
                body = "coeffs:" + body
            code, out, err = run_cli(capsys, *argv, body)
            assert code == 2
            assert out == ""
            shown = repr(bad[:32]) + ("..." if len(bad) > 32 else "")
            assert f"{shown} at position 5000" in err and len(err.encode()) < 200

    @pytest.mark.parametrize("env, argv, bad", [
        (None, ("partition", "--rank", "2", "--xi", "1,1_0"), "1_0"),
        (None, ("partition", "--rank", "2", "--xi", "\u0661,1"), "\u0661"),
        (None, ("multiplicity", "--rank", "10", "--mu", "1_0"), "1_0"),
        (None, ("multiplicity", "--rank", "10", "--mu", "2-1_0"), "2-1_0"),
        (None, ("multiplicity", "--rank", "3", "--mu", "coeffs:1,0_1,0"), "0_1"),
        (None, ("altset", "--rank", "5", "--mu", "\uff12"), "\uff12"),
        (None, ("bench", "--max-rank", "3", "--mu", "1_0"), "1_0"),
        (None, ("partition", "--rank", "1_0", "--xi", "1"), "1_0"),
        (None, ("verify", "--max-rank", "\u0663"), "\u0663"),
        (None, ("verify", "--max-rank", "2", "--samples", "2_5"), "2_5"),
        (None, ("verify", "--max-rank", "2", "--seed", "1_0"), "1_0"),
        (None, ("verify", "--max-rank", "2", "--seed", "\u0661"), "\u0661"),
        (None, ("verify", "--max-rank", "2", "--brute-cap", "0_9"), "0_9"),
        ("0_9", ("multiplicity", "--rank", "3", "--mu", "1", "--method", "brute"), "0_9"),
    ])
    def test_an_integer_is_a_sign_and_ascii_digits(self, capsys, monkeypatch, env, argv, bad):
        # int() alone reads 1_0 as 10 and other scripts' digits as ASCII ones
        if env is not None:
            monkeypatch.setenv("QMULT_BRUTE_CAP", env)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert repr(bad) in err

    def test_an_integer_keeps_its_sign_and_surrounding_whitespace(self, capsys):
        assert run_cli(capsys, "partition", "--rank", "3", "--xi", " +1, 1 ,1\t") == \
            run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1,1")
        assert run_cli(capsys, "partition", "--rank", "2", "--xi=-1, 2")[:2] == (0, "0\n")
        assert run_cli(capsys, "altset", "--rank", "5", "--mu", " 2 - +4 ") == \
            run_cli(capsys, "altset", "--rank", "5", "--mu", "2-4")
        assert run_cli(capsys, "verify", "--max-rank", " 2 ", "--seed", " -3 ") == \
            run_cli(capsys, "verify", "--max-rank", "2", "--seed", "-3")

    def test_out_of_memory_is_exit_2(self):
        # a huge rank asks the closed form for a 1e9-coefficient polynomial;
        # the child caps its own address space at 1 GiB so the request fails
        # fast instead of taking the machine's memory
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qmult.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, "multiplicity", "--rank", "1000000000",
             "--mu", "1", "--method", "closed"],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: out of memory\n"


class TestCertificateFaults:
    # a failed internal certificate is the program's fault: exit 1 and one
    # stderr line, not the exit 2 of bad input and not a traceback

    def test_a_miscounted_alternation_set_is_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(altset, "alt_set_cardinality", lambda index_set: 4)
        code, out, err = run_cli(capsys, "altset", "--rank", "5", "--mu", "2")
        assert (code, out, err) == (1, "", "error: 3 elements but Fibonacci profile gives 4\n")

    def test_a_sweep_that_misses_elements_is_exit_1(self, capsys, monkeypatch):
        # only the total 5! is off, not the subtree sizes the sweep adds up
        monkeypatch.setattr(altset, "factorial", lambda k: math.factorial(k) + (k == 5))
        code, out, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "2",
                                 "--method", "brute")
        assert (code, out, err) == (1, "", "error: sweep accounted for 120 of 5! elements\n")

    def test_the_recursion_limit_stays_exit_2(self, capsys, monkeypatch):
        # RecursionError is a RuntimeError, but a limit of the interpreter
        def deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "m_q_closed_general", deep)
        code, out, err = run_cli(capsys, "multiplicity", "--rank", "4", "--mu", "2",
                                 "--method", "closed")
        assert (code, out, err) == (2, "", "error: maximum recursion depth exceeded\n")


class TestClosedPipe:
    def test_a_reader_that_closes_early_gives_exit_2_and_no_traceback(self, tmp_path):
        # the listing is about 120 KB, more than a pipe buffer holds, so the
        # writer is still writing when the reader closes after 50 bytes
        src = str(Path(cli.__file__).resolve().parents[1])
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qmult.cli", "altset", "--rank", "22", "--mu", "21"],
                stdout=subprocess.PIPE, stderr=err, env={"PYTHONPATH": src})
            head = proc.stdout.read(50)
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err.seek(0)
            assert (code, err.read()) == (2, b"")
        assert head.startswith(b"cardinality: 10946\nfib_profile: 21,2\n")

    def test_a_redirected_stdout_leaves_descriptor_1_alone(self):
        # the golden replay and perfbench run main under a StringIO stdout
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        before = os.fstat(1)
        with contextlib.redirect_stdout(Closed()):
            assert main(["multiplicity", "--rank", "3", "--mu", "2"]) == 2
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


class TestDeepSweep:
    @pytest.mark.parametrize("argv, want", [
        (("multiplicity", "--mu", "1-1000", "--method", "brute"), "1\n"),
        (("multiplicity", "--mu", "1-1000", "--method", "all"),
         f"brute: 1  [terms {math.factorial(1001)}]\naltset: 1  [terms 1]\n"
         "rank_reduction: 1\nclosed: 1\nverdict: AGREE\n"),
        (("altset", "--mu", "1-1000", "--method", "brute"),
         "cardinality: 1\nfib_profile: 1,1\nelements: 1\n"),
    ], ids=["multiplicity-brute", "multiplicity-all", "altset-brute"])
    def test_rank_1000_brute_is_exit_0(self, argv, want):
        # with the cap raised, the sweep at rank 1000 walks one leaf and
        # 500,500 pruned subtrees in one loop, far from the interpreter's
        # recursion limit that a generator per position used to reach
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qmult.cli", *argv, "--rank", "1000", "--brute-cap", "5000"],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


class TestBruteCapScope:
    def test_partition_ignores_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("QMULT_BRUTE_CAP", "-3")
        code, out, err = run_cli(capsys, "partition", "--rank", "3", "--xi", "1,1,1")
        assert (code, out, err) == (0, "q^3 + 2q^2 + q\n", "")

    @pytest.mark.parametrize("argv", [
        ("altset", "--rank", "5", "--mu", "2"),
        ("multiplicity", "--rank", "5", "--mu", "2", "--method", "closed"),
        ("verify", "--max-rank", "2"),
        ("bench", "--max-rank", "3", "--mu", "2"),
    ])
    def test_brute_subcommands_reject_a_bad_value(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QMULT_BRUTE_CAP", "-3")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "QMULT_BRUTE_CAP must be at least 1" in err


# Index-set specs, coefficient lists and junk in between.
mu_specs = st.text(alphabet="0123456789,-:coefs ", max_size=24) | st.builds(
    lambda body: "coeffs:" + body, st.text(alphabet="0123456789,- ", max_size=16))


class TestMuFuzz:
    @given(mu_specs)
    def test_any_mu_gives_an_exit_code(self, spec):
        for argv in (["altset", "--rank", "6", "--mu", spec],
                     ["multiplicity", "--rank", "6", "--mu", spec, "--method", "closed"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue()
