"""Command-line behavior: exit codes, text/machine parity, flags."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import sys
from math import gcd

import pytest

import naive
from mechwords import (
    AdmissibilityQuery, admissibility, canonical_rotation, cli, constructions, oracle, words)
from mechwords.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


def test_plan_impossible(capsys):
    code, out, _ = run(capsys, "plan", "10", "3", "6", "2")
    assert code == 2
    assert "IMPOSSIBLE: nt = 20 > ks = 18" in out


def test_plan_admissible(capsys):
    code, out, _ = run(capsys, "plan", "7", "3", "5", "2")
    assert code == 0
    assert "ADMISSIBLE: nt = 14 <= ks = 15" in out
    assert "arrangement: ABABABB" in out
    assert "min window: start 1, weight 2" in out


def test_plan_zero_quota_is_trivial(capsys):
    code, out, _ = run(capsys, "plan", "7", "3", "5", "0")
    assert code == 0
    assert "ADMISSIBLE" in out


def test_plan_rejects_bad_bounds(capsys):
    for argv in (["plan", "4", "5", "2", "1"], ["plan", "4", "2", "5", "1"],
                 ["plan", "4", "0", "2", "1"], ["plan", "4", "2", "0", "1"],
                 ["plan", "4", "2", "2", "-1"], ["plan", "0", "1", "1", "0"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
    # k == n and s == n are inside the domain
    code, out, _ = run(capsys, "plan", "4", "4", "2", "1")
    assert (code, out.splitlines()[1]) == (0, "arrangement: AAAA")
    code, out, _ = run(capsys, "plan", "4", "2", "4", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["arrangement: ABAB", "window weights (s=4): 2 2 2 2",
                                    "min window: start 0, weight 2"]


def test_plan_text_and_machine_carry_same_numbers(capsys):
    code, record, _ = machine(capsys, "plan", "7", "3", "5", "2")
    assert code == 0
    _, out, _ = run(capsys, "plan", "7", "3", "5", "2")
    nt, ks = map(int, re.search(r"nt = (\d+) <= ks = (\d+)", out).groups())
    assert (nt, ks) == (record["nt"], record["ks"]) == (14, 15)
    assert re.search(r"arrangement: (\w+)", out).group(1) == record["word"]
    start, w = map(int, re.search(r"min window: start (\d+), weight (\d+)", out).groups())
    assert (start, w) == (record["witness_start"], record["witness_weight"])
    profile = [int(x) for x in
               re.search(r"window weights \(s=5\): ([\d ]+)", out).group(1).split()]
    assert profile == record["profile"]


def test_generate_euclid_golden(capsys):
    code, out, _ = run(capsys, "generate", "23", "10", "--method", "euclid")
    assert code == 0
    assert out.strip() == "ABBABABABABBABABABBABAB"


def test_generate_mechanical_golden(capsys):
    code, out, _ = run(capsys, "generate", "23", "10", "--method", "mechanical")
    assert code == 0
    assert out.strip() == "ABABABABBABABABBABABABB"


def test_generate_is_deterministic(capsys):
    first = run(capsys, "generate", "200", "87")
    second = run(capsys, "generate", "200", "87")
    assert first == second


def test_generate_smith_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "generate", "6", "3", "--method", "smith")
    assert code == 1
    assert "n and k not coprime (gcd 3)" in err


def test_generate_smith_produces_arrangement(capsys):
    code, record, _ = machine(capsys, "generate", "23", "10", "--method", "smith")
    assert code == 0
    assert record["word"] == "BABABABBABABABBABABABBA"
    assert len(record["word"]) == 23 and record["word"].count("A") == 10


def test_generate_verbose_euclid_shows_trace_and_stages(capsys):
    code, out, _ = run(capsys, "generate", "23", "10", "--method", "euclid",
                       "--verbose")
    assert code == 0
    assert "trace: 23 = 2*10 + 3; 10 = 3*3 + 1; 3 = 3*1 + 0" in out
    assert "[+,-,-]" in out
    assert "[+,-,+,+]" in out
    assert "[+,-,-,-,+,-,-,+,-,-]" in out


def test_generate_verbose_smith_shows_ladder(capsys):
    code, out, _ = run(capsys, "generate", "23", "10", "--method", "smith",
                       "--verbose")
    assert code == 0
    assert "S_1 = BA" in out
    assert "S_2 = BABABAB" in out
    assert "S_3 = BABABABBABABABBABABABBA" in out


def test_generate_verbose_smith_ladder_uses_alphabet(capsys):
    # the ladder is rendered like the word, so its last entry is the word shown
    for alphabet in ("AB", "01"):
        argv = ["generate", "7", "3", "--method", "smith", "--verbose",
                "--alphabet", alphabet]
        code, out, _ = run(capsys, *argv)
        *ladder, word = out.splitlines()
        assert code == 0 and ladder[-1] == f"S_{len(ladder)} = {word}"
        code, record, _ = machine(capsys, *argv)
        assert code == 0 and record["ladder"][-1] == record["word"] == word
    assert word == "0101010" and ladder[0] == "S_1 = 01"


def test_generate_canonical_and_bits(capsys):
    code, out, _ = run(capsys, "generate", "4", "3", "--canonical")
    assert code == 0
    assert out.strip() == "AAAB"
    code, out, _ = run(capsys, "generate", "4", "3", "--alphabet", "01")
    assert code == 0
    assert out.strip() == "1110"


def test_bits_rendering_does_not_revalidate_words(capsys, monkeypatch):
    # check validates its word in one pass of words._check_word, the check
    # behind parse_word and to_bits, inside the to_bits call that opens
    # admissibility._check_windows; --alphabet 01 renders words the command
    # has checked or built, so it adds no pass to check and none at all to
    # generate
    calls = []
    check_word = words._check_word

    def counting(text):
        calls.append(text)
        return check_word(text)

    word = words.mechanical_word(30, 11)
    bits = words.to_bits(word)
    monkeypatch.setattr(words, "_check_word", counting)
    passes = []
    for alphabet in ("AB", "01"):
        code, out, _ = run(capsys, "check", word, "7", "2", "--alphabet", alphabet)
        assert code == 0 and "ADMISSIBLE" in out
        passes.append(len(calls))
        calls.clear()
    assert passes == [1, 1]
    code, out, _ = run(capsys, "generate", "30", "11", "--method", "smith",
                       "--verbose", "--alphabet", "01")
    shown = out.splitlines()[-1]
    assert code == 0 and len(shown) == 30 and shown in bits + bits
    assert calls == []


def test_generate_builds_the_mechanical_word_once(capsys, monkeypatch):
    calls = []
    build = cli.mechanical_word

    def counting(n, k, **kwargs):
        calls.append((n, k))
        return build(n, k, **kwargs)

    monkeypatch.setattr(cli, "mechanical_word", counting)
    for flags in ([], ["--canonical"]):
        code, out, _ = run(capsys, "generate", "23", "10", *flags)
        assert (code, out) == (0, "ABABABABBABABABBABABABB\n")
        assert calls == [(23, 10)], flags
        calls.clear()


def test_generate_canonical_builds_no_discarded_word(capsys, monkeypatch):
    # --canonical prints mechanical_word, so arrange never runs under it and
    # smith_ladder runs only to print the --verbose ladder
    calls = []

    def counting(name, build):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)
        return wrapped

    for name in ("arrange", "smith_ladder"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    expected = {
        ("euclid",): ["arrange"], ("euclid", "--canonical"): [],
        ("euclid", "--canonical", "--verbose"): [],
        ("smith",): ["smith_ladder"], ("smith", "--canonical"): [],
        ("smith", "--canonical", "--verbose"): ["smith_ladder"],
    }
    for (method, *flags), built in expected.items():
        code, out, _ = run(capsys, "generate", "23", "10", "--method", method, *flags)
        assert code == 0 and calls == built, (method, flags)
        calls.clear()
    # smith still rejects a non-coprime pair under --canonical
    code, _, err = run(capsys, "generate", "12", "4", "--method", "smith", "--canonical")
    assert code == 1 and "not coprime" in err and calls == []


# sha256 over every generate request below, computed with the builds that
# --canonical discarded still in place; an intended output change updates it
GENERATE_DIGEST = "eedeaeba437af831e8b436b30865653df9c239376e0e8e5ae2d0f885a3019e6d"


def test_generate_output_is_pinned():
    # every n in 1..39, k in 0..n+1, method and flag combination, handled
    # without the parser so the corpus stays cheap
    digest = hashlib.sha256()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for n in range(1, 40):
            for k in range(0, n + 2):
                for method, canonical, verbose, alphabet, fmt in itertools.product(
                        ("mechanical", "euclid", "smith"), (False, True), (False, True),
                        ("AB", "01"), ("text", "machine")):
                    args = argparse.Namespace(
                        n=n, k=k, method=method, canonical=canonical, verbose=verbose,
                        alphabet=alphabet, format=fmt)
                    try:
                        code = cli.cmd_generate(args)
                    except ValueError as exc:
                        code = f"error: {exc}"
                    digest.update(repr((vars(args), code, out.getvalue())).encode())
                    out.seek(0)
                    out.truncate()
    assert digest.hexdigest() == GENERATE_DIGEST


def test_generate_canonical_matches_brute_force(capsys):
    # --canonical prints the mechanical word without rotating anything; it
    # must be the least rotation of what each method builds
    for n in range(2, 121):
        for k in range(1, n):
            methods = ["mechanical", "euclid"] + (["smith"] if gcd(n, k) == 1 else [])
            for method in methods:
                argv = ["generate", str(n), str(k), "--method", method]
                code, word, _ = run(capsys, *argv)
                assert code == 0
                code, canonical, _ = run(capsys, *argv, "--canonical")
                assert code == 0
                assert canonical == naive.min_rotation(word.strip())[0] + "\n", argv


def test_plan_canonical_is_least_rotation(capsys):
    for n in range(2, 41):
        for k in range(1, n):
            for s in {1, n // 2, n - 1}:
                argv = ["plan", str(n), str(k), str(s), str(k * s // n),
                        "--format", "machine"]
                code, plain, _ = run(capsys, *argv)
                assert code == 0
                code, canonical, _ = run(capsys, *argv, "--canonical")
                assert code == 0
                assert canonical == plain
                word = json.loads(canonical)["word"]
                assert word == canonical_rotation(word)[0], argv


def test_generate_rejects_bad_pair(capsys):
    for n, k in (("4", "5"), ("4", "0"), ("0", "1")):
        code, _, err = run(capsys, "generate", n, k)
        assert code == 1 and "0 < k <= n" in err
    assert run(capsys, "generate", "4", "4") == (0, "AAAA\n", "")
    code, _, err = run(capsys, "generate", "x", "4")
    assert code == 1 and "invalid int" in err


def test_check_admissible(capsys):
    code, out, _ = run(capsys, "check", "ABABABB", "5", "2")
    assert code == 0
    assert "ADMISSIBLE" in out


def test_check_not_admissible(capsys):
    code, record, _ = machine(capsys, "check", "AAABBBBBBB", "6", "2")
    assert code == 2
    assert record["verdict"] == "not-admissible"
    assert record["witness_start"] == 3 and record["witness_weight"] == 0


def test_check_window_too_long(capsys):
    code, _, err = run(capsys, "check", "ABAB", "9", "1")
    assert code == 1
    assert "s must be in 1..4" in err


def test_check_rejects_foreign_letters(capsys):
    code, _, err = run(capsys, "check", "ABXA", "2", "1")
    assert code == 1
    assert "invalid letter" in err


def test_check_witness_is_first_minimum_window(capsys):
    # ties between windows go to the smallest start
    for n in range(1, 9):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                code, record, _ = machine(capsys, "check", word, str(s), "0")
                witness = (record["witness_start"], record["witness_weight"])
                assert code == 0 and witness == naive.lightest_window(word, s), (word, s)


def test_check_witness_matches_prefix_sums_at_1e4(capsys):
    # words the parity kernel refuses: random, and mechanical with a few
    # letters A and B exchanged; the verdict both ways around the minimum
    rng = random.Random(29)
    n = 10**4
    cases = []
    for _ in range(3):
        cases.append("".join(rng.choice("AB") for _ in range(n)))
        word = list(words.mechanical_word(n, rng.randint(4, n - 4)))
        spots = [[i for i, c in enumerate(word) if c == letter] for letter in "AB"]
        swaps = rng.randint(1, 4)
        for i, j in zip(rng.sample(spots[0], swaps), rng.sample(spots[1], swaps)):
            word[i], word[j] = "B", "A"
        cases.append("".join(word))
    for word in cases:
        for s in (rng.randint(1, n), rng.randint(1, n)):
            start, weight = naive.lightest_window_by_prefix_sums(word, s)
            for t in (weight, weight + 1):
                code, record, _ = machine(capsys, "check", word, str(s), str(t))
                assert code == (0 if t == weight else 2)
                assert (record["witness_start"], record["witness_weight"]) == (start, weight)


def test_check_verbose_profile_matches_machine(capsys):
    code, record, _ = machine(capsys, "check", "AAABBBBBBB", "6", "2", "--verbose")
    assert code == 2
    assert record["profile"] == [3, 2, 1, 0, 0, 1, 2, 3, 3, 3]
    _, out, _ = run(capsys, "check", "AAABBBBBBB", "6", "2", "--verbose")
    profile = [int(x) for x in
               re.search(r"window weights \(s=6\): ([\d ]+)", out).group(1).split()]
    assert profile == record["profile"]


def test_check_machine_record_is_json_dumps_of_its_fields(capsys):
    # the raw line of check --verbose --format machine, profile spliced in as
    # text: every word with n <= 6, then mechanical words with one A and one
    # B exchanged or not, whose weights cross 9 to 10 on both the two-valued
    # and the general path
    cases = [(word, s) for n in range(1, 7) for word in naive.all_words(n)
             for s in range(1, n + 1)]
    for n in (20, 29):
        for k in range(1, n + 1):
            word = words.mechanical_word(n, k)
            i, j = word.find("A"), word.rfind("B")
            swapped = word if j < 0 else word[:i] + "B" + word[i + 1:j] + "A" + word[j + 1:]
            cases += [(w, s) for w in (word, swapped) for s in (n // 2, n - 1, n)]
    for word, s in cases:
        n, k = len(word), word.count("A")
        t = k * s // n
        weights = naive.windows(word, s)
        start, weight = naive.lightest_window(word, s)
        argv = ["check", word, str(s), str(t), "--verbose", "--format", "machine"]
        code, out, _ = run(capsys, *argv)
        assert code == (0 if weight >= t else 2), argv
        assert out == json.dumps({
            "command": "check", "word": word, "n": n, "k": k, "s": s, "t": t,
            "verdict": "admissible" if weight >= t else "not-admissible",
            "witness_start": start, "witness_weight": weight,
            "profile": weights}) + "\n", argv


def test_check_verbose_on_every_small_word(capsys):
    # every word with n <= 10 and every s, against profiles summed by
    # slicing; the requests take text and machine format and both alphabets
    # in turn, so each word with n >= 4 meets all four
    flags = itertools.cycle(itertools.product(("text", "machine"), ("AB", "01")))
    for n in range(1, 11):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                weights = naive.windows(word, s)
                start, weight = naive.lightest_window(word, s)
                t = weight + s % 2
                fmt, alphabet = next(flags)
                argv = ["check", word, str(s), str(t), "--verbose",
                        "--format", fmt, "--alphabet", alphabet]
                code, out, _ = run(capsys, *argv)
                assert code == (0 if weight >= t else 2)
                if fmt == "text":
                    assert out.splitlines()[1:] == [
                        f"min window: start {start}, weight {weight}",
                        f"window weights (s={s}): {' '.join(map(str, weights))}"], argv
                    continue
                shown = word if alphabet == "AB" else word.replace("A", "1").replace("B", "0")
                assert out == json.dumps({
                    "command": "check", "word": shown, "n": n, "k": word.count("A"),
                    "s": s, "t": t, "verdict": "admissible" if weight >= t else "not-admissible",
                    "witness_start": start, "witness_weight": weight,
                    "profile": weights}) + "\n", argv


def test_check_verbose_wide_profiles_match_prefix_sums(capsys, monkeypatch):
    # profiles of one to four bands of 256 levels and past them: runs
    # A^a B^a at s = a, whose windows weigh 0 to a, with a random tail so the
    # lightest window does not start at a block, and random words at about
    # 10**5. Each request calls the block kernel once, for its witness, top
    # and levels, and only the runs past its cap, where it gives no levels,
    # sum the window list
    summed, results = [], []
    monkeypatch.setattr(admissibility, "_window_weights",
                        lambda word, s: summed.append(s) or words._window_weights(word, s))

    def recording(*args):
        results.append(words._lightest_window(*args))
        return results[-1]

    monkeypatch.setattr(admissibility, "_lightest_window", recording)
    rng = random.Random(31)
    cases = []
    for span in (255, 256, 511, 512, 1023, 1024, 1500):
        tail = "".join(rng.choice("AB") for _ in range(rng.randint(1, 9)))
        cases.append(("A" * span + "B" * span + tail, span))
    for n in (10**5, 10**5 - 3):
        cases.append(("".join(rng.choice("AB") for _ in range(n)), n // 2 + rng.randint(0, 9)))
    for word, s in cases:
        weights = naive.windows_by_prefix_sums(word, s)
        start, weight = int(weights.argmin()), int(weights.min())
        code, out, _ = run(capsys, "check", word, str(s), str(weight), "--verbose")
        assert code == 0 and out.splitlines()[1:] == [
            f"min window: start {start}, weight {weight}",
            f"window weights (s={s}): {' '.join(map(str, weights.tolist()))}"], (len(word), s)
        code, record, _ = machine(capsys, "check", word, str(s), str(weight + 1), "--verbose")
        assert code == 2 and record["profile"] == weights.tolist(), (len(word), s)
        assert (record["witness_start"], record["witness_weight"]) == (start, weight)
        top = int(weights.max()) - weight
        assert [result[:3] for result in results] == [(start, weight, top)] * 2, (len(word), s)
        assert [result[3] is None for result in results] == [top > 1023] * 2, (len(word), s)
        results.clear()
    assert summed == [1024, 1024, 1500, 1500]


def test_check_verbose_profile_spans_zero_to_s(capsys):
    # a run of s letters B and a run of s letters A: the weights reach both
    # ends of 0..s, the first and the last value the line renders
    for n in range(2, 11):
        for s in range(1, n // 2 + 1):
            for rest in naive.all_words(n - 2 * s):
                base = "A" * s + "B" * s + rest
                for word in (base, base[1:] + base[0], base[-1] + base[:-1]):
                    weights = naive.windows(word, s)
                    assert min(weights) == 0 and max(weights) == s
                    code, out, _ = run(capsys, "check", word, str(s), "1", "--verbose")
                    assert code == 2 and out.splitlines()[-1] == (
                        f"window weights (s={s}): {' '.join(map(str, weights))}"), (word, s)
                    code, record, _ = machine(capsys, "check", word, str(s), "1", "--verbose")
                    assert code == 2 and record["profile"] == weights, (word, s)


def test_verify_small(capsys):
    code, record, _ = machine(capsys, "verify", "8")
    assert code == 0
    assert record["verdict"] == "pass"
    assert record["equivalence_pairs"] == 21   # coprime pairs with n <= 8
    assert record["oracle_cells"] > 0 and record["balance_checks"] > 0


def test_verify_checks_mechanical_word_against_ceiling_formula(capsys, monkeypatch):
    # a mechanical word rotated to another A...B rotation, with the recursion's
    # word rotated to close up to it, passes every rotation and balance check;
    # only the ceiling formula catches it
    mechanical_word, smith_ladder = oracle.mechanical_word, oracle.smith_ladder

    def rotated(word):
        j = word.find("BA") + 1
        return word[j:] + word[:j]

    def rotated_ladder(quotients):
        ladder = smith_ladder(quotients)
        word = rotated("A" + ladder[-1][:-2] + "B")
        return ladder[:-1] + [word[1:] + word[:1]]

    monkeypatch.setattr(oracle, "mechanical_word",
                        lambda n, k: rotated(mechanical_word(n, k)))
    monkeypatch.setattr(oracle, "smith_ladder", rotated_ladder)
    code, record, _ = machine(capsys, "verify", "8")
    assert code == 2
    assert record["verdict"] == "fail"
    assert record["failures"]
    assert all(f.startswith("equivalence") for f in record["failures"])


def test_verify_checks_closed_recursion_word_against_ceiling_formula(capsys, monkeypatch):
    # the recursion's word rotated by one letter is still a rotation of the
    # other two words, and the mechanical word is untouched, so only the
    # closing clause can catch it: wherever the rotated word closes up to
    # another word than the ceiling formula's, and nowhere else
    smith_ladder = oracle.smith_ladder

    def rotated_ladder(quotients):
        ladder = smith_ladder(quotients)
        return ladder[:-1] + [ladder[-1][1:] + ladder[-1][:1]]

    monkeypatch.setattr(oracle, "smith_ladder", rotated_ladder)
    code, record, _ = machine(capsys, "verify", "8")
    expected = []
    for n in range(2, 9):
        for k in range(1, n):
            if gcd(n, k) == 1:
                closed = "A" + rotated_ladder(constructions.smith_quotients(n, k))[-1][:-2] + "B"
                if closed != naive.ceiling_word(n, k):
                    expected.append(f"equivalence n={n} k={k}")
    assert expected and code == 2 and record["verdict"] == "fail"
    assert [f.split(":")[0] for f in record["failures"]] == expected


def test_verify_reports_unbalanced_word_through_check_balance(capsys, monkeypatch):
    # AAABBB has the weight of the (6, 3) mechanical word but is unbalanced;
    # (6, 3) is not coprime, so only the balance sweep sees it, and every
    # failing length is reported with check_balance's first bad window
    mechanical_word = oracle.mechanical_word
    monkeypatch.setattr(oracle, "mechanical_word",
                        lambda n, k: "AAABBB" if (n, k) == (6, 3) else mechanical_word(n, k))
    code, record, _ = machine(capsys, "verify", "8")
    assert code == 2 and record["verdict"] == "fail"
    assert all(f.startswith("balance n=6 k=3 m=") for f in record["failures"])
    failing = [m for m in range(1, 13) if not words.check_balance("AAABBB", m)]
    assert [int(re.match(r"balance n=6 k=3 m=(\d+):", f).group(1))
            for f in record["failures"]] == failing
    m, start, weight, low, high = map(int, re.fullmatch(
        r"balance n=6 k=3 m=(\d+): window at start (\d+) has weight (\d+), "
        r"bounds \[(\d+), (\d+)\]", record["failures"][0]).groups())
    assert words.check_balance("AAABBB", m) == (False, start, weight, low, high)


def test_verify_reports_words_breaking_one_balance_bound(capsys, monkeypatch):
    # AABBBB in place of the (6, 2) mechanical word breaks only the upper
    # bound at m = 2 and 8, only the lower bound at m = 4 and 10, and both at
    # m = 3 and 9, so a sweep one too wide on either side misses a length
    mechanical_word = oracle.mechanical_word
    monkeypatch.setattr(oracle, "mechanical_word",
                        lambda n, k: "AABBBB" if (n, k) == (6, 2) else mechanical_word(n, k))
    code, record, _ = machine(capsys, "verify", "8")
    assert code == 2 and record["verdict"] == "fail"
    reported = [tuple(map(int, re.fullmatch(
        r"balance n=6 k=2 m=(\d+): window at start (\d+) has weight (\d+), "
        r"bounds \[(\d+), (\d+)\]", f).groups())) for f in record["failures"]]
    assert [m for m, *_ in reported] == [2, 3, 4, 8, 9, 10]
    for m, start, weight, low, high in reported:
        assert words.check_balance("AABBBB", m) == (False, start, weight, low, high)


def test_verify_reports_failures_in_sweep_order(capsys, monkeypatch):
    # one broken coprime pair, one flipped grid cell and one unbalanced word:
    # each sweep reports its own, equivalence first, then grid, then balance,
    # although the grid runs first
    arrange, criterion, mechanical_word = oracle.arrange, oracle.criterion, oracle.mechanical_word
    monkeypatch.setattr(oracle, "arrange",
                        lambda n, k: "AABBB" if (n, k) == (5, 2) else arrange(n, k))
    monkeypatch.setattr(oracle, "criterion",
                        lambda q: criterion(q) != (q == AdmissibilityQuery(7, 3, 5, 2)))
    monkeypatch.setattr(oracle, "mechanical_word",
                        lambda n, k: "AAABBB" if (n, k) == (6, 3) else mechanical_word(n, k))
    code, record, _ = machine(capsys, "verify", "8")
    assert code == 2 and record["verdict"] == "fail"
    failures = record["failures"]
    assert failures[0] == "equivalence n=5 k=2: arrange=AABBB recursion=BABAB mechanical=ABABB"
    assert failures[1] == "criterion n=7 k=3 s=5 t=2"
    assert failures[2:] and all(f.startswith("balance n=6 k=3 m=") for f in failures[2:])
    code, out, _ = run(capsys, "verify", "8")
    assert code == 2 and out.splitlines() == [f"FAIL: {f}" for f in failures]


def test_verify_range_errors_come_from_library(capsys):
    # the library owns n_max >= 1; the CLI reports its message unchanged
    for argv in (["0"], ["-1"], ["--n-max", "0"]):
        code, out, err = run(capsys, "verify", *argv)
        n_max = argv[-1]
        assert (code, out, err) == (1, "", f"error: n_max must be positive, got {n_max}\n")


def test_verify_counts_follow_closed_forms(capsys):
    # one check per coprime pair, per grid cell (n <= 12) and per (n, k, m)
    for n_max in range(1, 31):
        code, record, _ = machine(capsys, "verify", str(n_max))
        assert code == 0 and record["verdict"] == "pass"
        assert record["equivalence_pairs"] == sum(naive.totient(n) for n in range(2, n_max + 1))
        assert record["oracle_cells"] == sum(
            min(k, s) + 1 for n in range(2, min(n_max, 12) + 1)
            for k in range(1, n) for s in range(1, n))
        assert record["balance_checks"] == n_max * (n_max + 1) * (2 * n_max + 1) // 3


def test_plan_and_check_scan_windows_once(capsys, monkeypatch):
    calls = []

    def counting(word, m):
        calls.append(m)
        return words._window_weights(word, m)

    monkeypatch.setattr(admissibility, "_window_weights", counting)
    # plan scans no window at all: its profile comes from the parity kernel
    code, record, _ = machine(capsys, "plan", "1000", "382", "17", "6")
    assert code == 0 and record["witness_weight"] == 6
    assert record["profile"] == naive.windows(words.mechanical_word(1000, 382), 17)
    assert calls == []
    # neither does check on a word whose windows weigh 2 or 3
    code, record, _ = machine(capsys, "check", "ABABABB", "5", "2", "--verbose")
    assert code == 0 and record["profile"] == naive.windows("ABABABB", 5)
    assert calls == []
    # weights 0 to 3: the parity kernel refuses the word, and check renders
    # it from the levels kernel, again with no window summed
    code, record, _ = machine(capsys, "check", "AAABBBBBBB", "6", "2", "--verbose")
    assert code == 2 and record["profile"] == naive.windows("AAABBBBBBB", 6)
    assert calls == []
    # weights 0 to 1024, past the levels kernel: check scans the word once
    word = "A" * 1024 + "B" * 1024
    code, record, _ = machine(capsys, "check", word, "1024", "0", "--verbose")
    assert code == 0 and record["profile"] == naive.windows(word, 1024)
    assert calls == [1024]


def test_plan_in_digits_translates_no_word(capsys, monkeypatch):
    # plan builds its kernel's digits and its printed word, so it translates
    # no word in either alphabet; check translates its word once, for both
    # kernels. to_bits is counted in every module that binds it
    translated = []
    to_bits = words.to_bits
    for module in (words, admissibility):
        monkeypatch.setattr(module, "to_bits",
                            lambda word: translated.append(word) or to_bits(word))
    for n, k, s in ((7, 3, 5), (12, 12, 5), (1000, 382, 17), (1001, 1, 1000)):
        word = naive.ceiling_word(n, k)
        weights = naive.windows(word, s)
        for alphabet, shown in (("AB", word), ("01", to_bits(word))):
            argv = ["plan", str(n), str(k), str(s), str(min(weights)), "--alphabet", alphabet]
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.splitlines()[1:3] == [
                f"arrangement: {shown}",
                f"window weights (s={s}): {' '.join(map(str, weights))}"], argv
            code, record, _ = machine(capsys, *argv)
            assert code == 0 and record["profile"] == weights, argv
            assert record["word"] == shown, argv
    assert translated == []
    for alphabet in ("AB", "01"):
        assert run(capsys, "check", "ABABABB", "5", "2", "--alphabet", alphabet)[0] == 0
        assert translated == ["ABABABB"]
        translated.clear()


def test_plan_stops_on_a_profile_the_kernel_refuses(capsys, monkeypatch):
    # a mechanical word whose profile the kernel did not certify is a fault of
    # the program, not of the input: it raises rather than exiting 1
    monkeypatch.setattr(admissibility, "_two_valued", lambda bits, k, s, head: None)
    message = r"^the length-3 window profile of mechanical_word\(10, 4\) is not two-valued$"
    with pytest.raises(RuntimeError, match=message):
        main(["plan", "10", "4", "3", "1"])
    assert capsys.readouterr() == ("", "")


def test_check_refuses_negative_quota_before_any_scan(capsys, monkeypatch):
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(admissibility, "_window_weights", counting("scan", words._window_weights))
    monkeypatch.setattr(admissibility, "_two_valued",
                        counting("kernel", admissibility._two_valued))
    monkeypatch.setattr(admissibility, "_lightest_window",
                        counting("lightest", words._lightest_window))
    rng = random.Random(27)
    word = "".join(rng.choice("AB") for _ in range(10**5))
    assert run(capsys, "check", word, "500", "-1") == (1, "", "error: t must be non-negative\n")
    assert calls == []
    # the counters see both paths when t is valid: the mechanical word stops
    # at the parity kernel, the random word goes on to the lightest-window
    # kernel, and neither sums its windows without --verbose
    for word in (words.mechanical_word(10**5, 38197), word):
        assert run(capsys, "check", word, "500", "0")[0] == 0
    assert calls == ["kernel", "kernel", "lightest"]


def test_plan_profile_matches_enumeration(capsys):
    # the text line and the machine field, plain, under --alphabet 01 and
    # --canonical; every cell with n <= 18, and four whose windows weigh 99 or
    # 100 (999 or 1000), so the heavy token is a digit longer than the light one
    cells = [(n, k, s) for n in range(1, 19) for k in range(1, n + 1) for s in range(1, n + 1)]
    cells += [(200, 100, 199), (250, 149, 167), (300, 101, 295), (2000, 1000, 1999)]
    for n, k, s in cells:
        weights = naive.windows(words.mechanical_word(n, k), s)
        assert n <= 18 or {min(weights), max(weights)} in ({99, 100}, {999, 1000})
        argv = ["plan", str(n), str(k), str(s), str(min(weights))]
        for flags in ([], ["--alphabet", "01"], ["--canonical"]):
            code, out, _ = run(capsys, *argv, *flags)
            assert code == 0
            assert out.splitlines()[2] == (
                f"window weights (s={s}): {' '.join(map(str, weights))}"), argv
            code, record, _ = machine(capsys, *argv, *flags)
            assert code == 0 and record["profile"] == weights, argv


def test_weights_at_every_carry_shape():
    # low + 1 gains a digit at 9, 99, 999, 99999; otherwise the carry changes
    # one column at 0, 8, 10, 100, two at 19, 129 and three at 1099; both
    # separators, and excess of one byte, all light, all heavy and seeded-random
    rng = random.Random(26)
    for low in (0, 8, 9, 10, 19, 99, 100, 129, 999, 1099, 99999):
        for sep in (" ", ", "):
            for excess in (b"\x00", b"\x01", bytes(40), b"\x01" * 40,
                           bytes(rng.getrandbits(1) for _ in range(rng.randint(2, 300)))):
                assert cli._weights(low, 1, excess, sep) == sep.join(
                    str(low + e) for e in excess), (low, sep, excess)


def test_weights_on_many_levels():
    # level bytes of one band (top < 256) and of two to four (two bytes a
    # window, band first), each level from 0 to top present, top at and
    # around each band edge; low where the tokens gain a digit inside the
    # profile (9, 99, 999, 9999) and where they do not (0, 5, 1000, 31415)
    rng = random.Random(30)
    for top in (2, 9, 10, 100, 254, 255, 256, 257, 300, 511, 512, 513, 767, 768, 1000, 1023):
        for low in (0, 5, 9, 99, 999, 1000, 9999, 31415):
            levels = list(range(top + 1))
            levels += [rng.randint(0, top) for _ in range(rng.randint(0, 600))]
            rng.shuffle(levels)
            if top < 256:
                packed = bytes(levels)
            else:
                packed = b"".join(level.to_bytes(2, "big") for level in levels)
            for sep in (" ", ", "):
                assert cli._weights(low, top, packed, sep) == sep.join(
                    str(low + level) for level in levels), (top, low, sep)


def test_plan_machine_record_is_json_dumps_of_its_fields(capsys):
    # the raw line, not its json.loads: key order, separators, both brackets
    # and the newline; k = n gives every window s letters A, k * s < n gives 0
    for n in range(1, 25):
        for k in range(1, n + 1):
            word = words.mechanical_word(n, k)
            for s in sorted({1, n // 2 or 1, n}):
                t = k * s // n
                weights = naive.windows(word, s)
                start, weight = naive.lightest_window(word, s)
                bits = word.replace("A", "1").replace("B", "0")
                for flags, shown in ((["--alphabet", "01"], bits), (["--canonical"], word)):
                    argv = ["plan", str(n), str(k), str(s), str(t), *flags]
                    code, out, _ = run(capsys, *argv, "--format", "machine")
                    assert code == 0
                    assert out == json.dumps({
                        "command": "plan", "n": n, "k": k, "s": s, "t": t,
                        "nt": n * t, "ks": k * s, "verdict": "admissible", "word": shown,
                        "profile": weights, "witness_start": start,
                        "witness_weight": weight}) + "\n", argv


def test_verify_smallest_range(capsys):
    code, record, _ = machine(capsys, "verify", "2")
    assert code == 0
    assert record["equivalence_pairs"] == 1    # just (2, 1)


def test_verify_flag_spelling(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "coprime pairs OK" in out


def test_verify_rejects_bad_range(capsys):
    code, _, err = run(capsys, "verify", "0")
    assert code == 1 and "must be positive" in err
    code, _, err = run(capsys, "verify")
    assert code == 1 and "n_max is required" in err
    code, _, err = run(capsys, "verify", "4", "--n-max", "5")
    assert code == 1 and "not both" in err
    code, _, err = run(capsys, "verify", "201")
    assert code == 1 and "cap" in err


def test_discrepancy_golden(capsys):
    code, record, _ = machine(capsys, "discrepancy", "23", "10", "7")
    assert code == 0
    assert record["discrepancy"] == 1 and record["bound"] == 1
    assert record["bound_applies"] is True
    _, out, _ = run(capsys, "discrepancy", "23", "10", "7")
    assert "discrepancy: 1" in out and "7 - 2*3 = 1" in out
    assert "bound applies" in out


def test_discrepancy_even_split(capsys):
    code, record, _ = machine(capsys, "discrepancy", "4", "2", "2")
    assert code == 0
    assert record["discrepancy"] == 0 and record["bound"] == 0


def test_discrepancy_heavy_words_are_flagged(capsys):
    code, record, _ = machine(capsys, "discrepancy", "4", "3", "4")
    assert code == 0
    assert record["discrepancy"] == 2 and record["bound"] == -2
    assert record["bound_applies"] is False
    _, out, _ = run(capsys, "discrepancy", "4", "3", "4")
    assert "not asserted for k > n/2" in out


def test_discrepancy_builds_no_word(capsys, monkeypatch):
    def refuse(n, k):
        raise AssertionError("discrepancy must not build a word")

    monkeypatch.setattr(cli, "mechanical_word", refuse)
    code, out, _ = run(capsys, "discrepancy", "23", "10", "7")
    assert code == 0
    assert out == ("discrepancy: 1\nbound: m - 2*floor(m*k/n) = 7 - 2*3 = 1\n"
                   "bound applies (k <= n/2)\n")


def test_discrepancy_matches_window_scan(capsys):
    for n in range(2, 25):
        for k in range(1, n):
            word = words.mechanical_word(n, k)
            for m in range(1, n + 1):
                code, record, _ = machine(capsys, "discrepancy", str(n), str(k), str(m))
                assert code == 0
                expected = max(abs(2 * w - m) for w in naive.windows(word, m))
                assert record["discrepancy"] == expected, (n, k, m)


def test_discrepancy_at_huge_n(capsys):
    n, k, m = 10**18, 381966011250105151, 333333333333333333
    code, record, _ = machine(capsys, "discrepancy", str(n), str(k), str(m))
    assert code == 0
    low, high = k * m // n, -(-k * m // n)
    assert record["discrepancy"] == max(abs(2 * low - m), abs(2 * high - m))
    assert record["bound"] == m - 2 * low


def test_plan_witness_is_first_minimum_window(capsys):
    for n in range(2, 24):
        for k in range(1, n):
            for s in range(1, n):
                for t in range(k * s // n + 1):
                    code, record, _ = machine(capsys, "plan", str(n), str(k), str(s), str(t))
                    assert code == 0
                    weights = naive.windows(record["word"], s)
                    low = min(weights)
                    assert (record["witness_start"], record["witness_weight"]) == (
                        weights.index(low), low), (n, k, s, t)


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    # main parses every request with one shared parser; each flag comes just
    # before the same request without it, and an input error before a good
    # request, so a default or error that stuck would change a later answer
    assert cli.build_parser() is cli.build_parser()
    requests = [
        "generate 12 5 --method smith --verbose --canonical --alphabet 01 --format machine",
        "generate 12 5",
        "check ABABB 2 1 --verbose",
        "check ABABB 2 1",
        "verify --n-max 5",
        "verify 5",
        "plan 4 5 2 1",
        "plan 7 3 5 2",
        "generate 12",
        "frobnicate",
        "plan 7 3 5 2 --canonical --format machine",
        "plan 10 3 6 2",
        "discrepancy 23 10 7 --format machine",
        "discrepancy 23 10 7",
    ]

    def answers():
        return [(main(argv.split()), *capsys.readouterr()) for argv in requests]

    shared = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert answers() == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0]


def test_word_building_commands_stop_at_the_cap(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no word may be built above the cap")

    for module, name in ((cli, "mechanical_word"), (cli, "arrange"), (cli, "smith_ladder"),
                         (admissibility, "mechanical_word")):
        monkeypatch.setattr(module, name, refuse)
    n = 10**12
    for argv in (["generate", str(n), "381966011251"],
                 ["generate", str(n), "381966011251", "--method", "euclid", "--verbose"],
                 ["generate", str(n), "381966011251", "--method", "smith"],
                 ["plan", str(n), "381966011251", "333333333333", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: n = {n} is above the word cap {cli.WORD_CAP}\n"
    # verdicts that need no word stay uncapped
    code, out, _ = run(capsys, "plan", str(n), "3", "1000", "1")
    assert code == 2 and out.startswith("IMPOSSIBLE")
    code, record, _ = machine(capsys, "discrepancy", str(n), "3", "1000")
    assert code == 0 and record["discrepancy"] == 1000
    # the benchmark's sizes, up to 1e6, sit far below the cap
    assert cli.WORD_CAP >= 10 * 10**6


def test_check_stops_at_the_cap(capsys, monkeypatch):
    # a word one letter above the cap is refused before any pass over it
    def refuse(*args):
        raise AssertionError("no word above the cap may be checked")

    monkeypatch.setattr(cli, "_check_windows", refuse)
    n = cli.WORD_CAP + 1
    code, out, err = run(capsys, "check", "A" * n, str(n), "0", "--verbose")
    assert (code, out) == (1, "")
    assert err == f"error: n = {n} is above the word cap {cli.WORD_CAP}\n"


def test_discrepancy_rejects_bad_window(capsys):
    code, _, err = run(capsys, "discrepancy", "4", "2", "5")
    assert code == 1 and "m must be in 1..4" in err


def test_number_too_long_to_print_is_input_error(capsys):
    # nt has 6,000 digits, above Python's int-to-str limit; the verdict is
    # never printed, and main reports the limit as one error line
    nines = "9" * 3000
    limit = sys.get_int_max_str_digits()
    for flags in ([], ["--format", "machine"]):
        code, out, err = run(capsys, "plan", nines, "1", "1", nines, *flags)
        assert (code, out) == (1, ""), flags
        assert err.startswith("error: ") and f"({limit} digits)" in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit


def test_unknown_command_is_input_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err


def test_machine_records_are_single_lines(capsys):
    for argv in (["plan", "7", "3", "5", "2"], ["generate", "23", "10"],
                 ["check", "ABAB", "2", "1"], ["verify", "3"],
                 ["discrepancy", "23", "10", "7"]):
        _, out, _ = run(capsys, *argv, "--format", "machine")
        assert len(out.strip().splitlines()) == 1
        record = json.loads(out)
        assert record["command"] == argv[0]
