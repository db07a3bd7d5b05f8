import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flagcalc
from flagcalc import trees
from flagcalc.cli import (
    MAX_SWEEP_SAMPLES,
    Session,
    main,
    run_command,
    run_script,
)
from flagcalc.words import MINUS, PLUS, GeneratorSet

DATA = Path(__file__).parent / "data"


def run(session: Session, line: str):
    return run_command(session, line.split())


def fresh() -> Session:
    session = Session()
    run(session, "gens a b c")
    return session


def script_output(text: str) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    code = run_script(text, out=out, err=err)
    return out.getvalue(), err.getvalue(), code


class TestWordCommands:
    def test_gens_reports_names(self):
        session = Session()
        _, out, err, code = run(session, "gens a b c")
        assert (out, err, code) == ("generators: a b c", None, 0)

    def test_inv(self):
        _, out, _, code = run(fresh(), "inv a+ b+")
        assert (out, code) == ("b- a-", 0)

    def test_class_output_shape(self):
        _, out, _, code = run(fresh(), "class b- a-")
        assert out == "canonical: a+ b+\nanti: b- a-\ndegenerate: false"
        assert code == 0

    def test_degenerate_class(self):
        _, out, _, _ = run(fresh(), "class a+ a-")
        assert out.endswith("degenerate: true")

    def test_pair(self):
        _, out, _, _ = run(fresh(), "pair +- a+ b+")
        assert out == "a+ b+"

    def test_eval_and_word2tree(self):
        session = fresh()
        _, tree_text, _, _ = run(session, "word2tree a+ b+")
        _, out, _, code = run_command(session, ["eval", tree_text])
        assert (out, code) == ("a+ b+", 0)

    def test_orbit_lists_sorted_members(self):
        _, out, _, _ = run(fresh(), "orbit [+ (pair +- leaf:a leaf:b)]")
        lines = out.splitlines()
        assert lines[0] == "orbit size: 4"
        assert lines[1:] == sorted(lines[1:])

    def test_orbit_reads_the_minus_minus_sign_pair(self):
        _, out, err, code = run(fresh(), "orbit [+ (pair -- leaf:a leaf:b)]")
        assert code == 0, err
        assert out.splitlines()[0] == "orbit size: 4"

    def test_orbit_cap_is_a_domain_error(self):
        _, out, err, code = run(fresh(), "orbit [+ (pair +- leaf:a leaf:b)] --cap 1")
        assert out is None
        assert code == 1

    def test_ms_and_ab(self):
        session = fresh()
        _, out, _, _ = run(session, "ms a+ b- a+")
        assert out == "{a+:2, a-:0, b+:0, b-:1, c+:0, c-:0}"
        _, out, _, _ = run(session, "ab a+ b- a+")
        assert out == "(2, -1, 0)"

    def test_words_need_declared_generators(self):
        _, out, err, code = run(Session(), "inv a+")
        assert code == 1
        assert "gens" in err


def random_tree(rng: random.Random, n_leaves: int, n_gens: int) -> trees.PairingTree:
    if n_leaves == 1:
        return trees.Leaf(rng.randrange(n_gens))
    left = rng.randint(1, n_leaves - 1)
    return trees.Node(
        rng.choice((PLUS, MINUS)),
        rng.choice((PLUS, MINUS)),
        random_tree(rng, left, n_gens),
        random_tree(rng, n_leaves - left, n_gens),
    )


class TestOrbitOutput:
    """``orbit`` prints the orbit's size, then the literals of all its members, sorted."""

    GENS = GeneratorSet.of("a", "b")

    def assert_prints_its_closure(self, starts):
        session = Session()
        run(session, "gens a b")
        printed: dict[frozenset, str] = {}  # by orbit, as every member prints the same
        count = 0
        for start in starts:
            orbit = trees.move_closure(start)
            if orbit not in printed:
                literals = sorted(trees.format_tree(m, self.GENS) for m in orbit)
                printed[orbit] = "\n".join([f"orbit size: {len(orbit)}"] + literals)
            line = ["orbit", trees.format_tree(start, self.GENS)]
            _, out, err, code = run_command(session, line)
            assert (out, err, code) == (printed[orbit], None, 0)
            count += 1
        return count

    def test_every_start_up_to_four_leaves(self):
        starts = (r for n in range(1, 5) for r in trees.iter_rooted(n, len(self.GENS)))
        assert self.assert_prints_its_closure(starts) == 10_788

    def test_five_leaf_starts_at_minus_with_every_root_sign_pair(self):
        starts = []
        for seed in range(12):
            tree = random_tree(random.Random(seed), 5, len(self.GENS))
            for sigma in (PLUS, MINUS):
                for tau in (PLUS, MINUS):
                    root = trees.Node(sigma, tau, tree.left, tree.right)
                    starts.append(trees.RootedPresentation(root, MINUS))
        assert self.assert_prints_its_closure(starts) == 48

    def test_a_leaf_orbit_counts_both_root_signs_against_the_cap(self):
        out, err, code = script_output("gens a b\norbit leaf:a --cap 1\norbit leaf:a --cap 2\n")
        assert out == "generators: a b\norbit size: 2\n[+ leaf:a]\n[- leaf:a]\n"
        assert (err, code) == ("error: move closure exceeded cap of 1 presentations\n", 1)

    def test_the_search_calls_neighbors_through_the_module(self, monkeypatch):
        # ``bench/layers.py`` counts closure neighbours by patching ``trees.neighbors``.
        start = trees.parse_tree("[+ (pair +- leaf:a leaf:b)]", self.GENS)
        found = sorted({m.tree for m in trees.move_closure(start)})
        calls = []
        search = trees.neighbors

        def counting(tree):
            calls.append(tree)
            return search(tree)

        monkeypatch.setattr(trees, "neighbors", counting)
        session = Session()
        run(session, "gens a b")
        _, out, _, code = run_command(session, ["orbit", "[+ (pair +- leaf:a leaf:b)]"])
        assert (out.splitlines()[0], code) == ("orbit size: 4", 0)
        assert sorted(calls) == found


class TestErrorCodes:
    def test_unknown_command_is_syntax(self):
        _, out, err, code = run(Session(), "frobnicate")
        assert code == 2
        assert "unknown command" in err

    def test_unknown_generator_is_syntax(self):
        _, _, err, code = run(fresh(), "inv q+")
        assert code == 2
        assert "q" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("coset (1, 2)", "dimension"),
            ("wind loop1", "no plane loaded"),
            ("fgword loop1", "no plane loaded"),
            ("orbit --cap 0 leaf:a", "closure cap must be positive"),
            ("save no/such/dir/s.txt", "cannot write no/such/dir/s.txt"),
        ],
        ids=["coset", "wind", "fgword", "orbit", "save"],
    )
    def test_domain_errors_exit_one(self, tmp_path, monkeypatch, line, message):
        monkeypatch.chdir(tmp_path)
        Path("dim3.lat").write_text("2 0 0\n")
        _, err, code = script_output(f"gens a b c\nlattice load dim3.lat\n{line}\n")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_bad_lattice_entry_reports_its_own_column(self, tmp_path):
        # The bad '-' also occurs at column 1, inside the entry '-3'.
        lat = tmp_path / "bad.lat"
        lat.write_text("-3 -\n")
        _, _, err, code = run(Session(), f"lattice load {lat}")
        assert (err, code) == (
            "1:4: bad integer '-' in lattice row (expected integer)",
            2,
        )

    def test_bad_vector_entry_reports_its_own_column(self):
        # The column counts in the joined line: the literal starts at column 7.
        for argv, token in [(["coset", "(-3,", "-)"], "-"), (["coset", " (1, x)"], "x")]:
            _, _, err, code = run_command(Session(), argv)
            assert (err, code) == (
                f"1:12: bad integer {token!r} in vector literal (expected integer)",
                2,
            )

    @pytest.mark.parametrize(
        "line, error",
        [
            (
                "eval [+ (pair ++ leaf:a leaf:b)",
                "2:32: unexpected end of tree literal (expected ']')",
            ),
            (
                "eval [+ (pair ++ leaf:a leaf:b",
                "2:31: unexpected end of tree literal (expected ')')",
            ),
            (
                "eval [+ (pair ++ leaf:a",
                "2:24: unexpected end of tree literal (expected 'leaf:<name>' or '(pair ...')",
            ),
            ("eval [x (pair ++ leaf:a leaf:b)]", "2:7: bad root sign 'x' (expected '+' or '-')"),
            ("eval [+ leaf:a leaf:b]", "2:16: expected ']', got 'leaf:b' (expected ']')"),
            ("eval [+ leaf:a] leaf:b", "2:17: trailing input 'leaf:b' (expected end of literal)"),
            ("eval leaf:a )", "2:13: trailing input ')' (expected end of literal)"),
            ("eval (pear ++ leaf:a leaf:b)", "2:7: expected 'pair', got 'pear' (expected 'pair')"),
            (
                "eval (pair ++ leaf:a blob)",
                "2:22: bad tree token 'blob' (expected 'leaf:<name>' or '(pair <st> <tree> <tree>)')",
            ),
            (
                "eval (pair ++ leaf:a leaf:b leaf:a)",
                "2:29: expected ')', got 'leaf:a' (expected ')')",
            ),
            (
                "eval (pair +x leaf:a leaf:b)",
                "2:12: bad sign pair '+x' (expected two signs like '+-')",
            ),
            ("coset 1, 2", "2:7: vector literal must be parenthesized (expected '(n1, n2, ...)')"),
            (
                "coset (1, 2",
                "2:7: vector literal must be parenthesized (expected '(n1, n2, ...)')",
            ),
            ("coset ()", "2:8: vector literal needs at least one entry"),
            ("coset (  )", "2:8: vector literal needs at least one entry"),
        ],
    )
    def test_literal_errors_name_their_line_and_column(self, line, error):
        _, err, code = script_output(f"gens a b\n{line}\n")
        assert (err, code) == (f"error: {error}\n", 2)

    @pytest.mark.parametrize(
        "base, error",
        [
            ("1,2", "2:27: bad point '1,2' (expected '(x,y)' with rational coordinates)"),
            ("(1,x)", "2:27: bad rational coordinate in '(1,x)'"),
            (" (1/0,2)", "2:28: bad rational coordinate in '(1/0,2)'"),
        ],
    )
    def test_a_bad_base_point_names_its_column(self, base, error):
        script = f"plane load {DATA / 'loops.plane'}\nsum +- loop1 loop2 --base {base}\n"
        _, err, code = script_output(script)
        assert (err, code) == (f"error: {error}\n", 2)

    @pytest.mark.parametrize(
        "command, text, error",
        [
            ("lattice load", "1 0\n# c\n2 0 0\n", "3:1: row has 3 entries, expected 2"),
            ("lattice load", "  1 0 0\n\n1 2\n", "3:1: row has 2 entries, expected 3"),
            ("load", "canon a+\ngens a\n", "1:1: 'canon' line before any 'gens' line"),
            ("load", "gens a\nbind w\n", "2:1: usage: bind <name> <word|tree|loop> <literal>"),
            ("load", "gens a\nbind 9w word a+\n", "2:1: bad binding name '9w'"),
            (
                "load",
                "gens a\nbind w word a+\nbind w word a-\n", "3:1: duplicate binding name 'w'",
            ),
            (
                "load",
                "gens a\nbind w blob a+\n",
                "2:1: unknown binding kind 'blob' (expected word or tree or loop)",
            ),
            ("load", "bind w word a+\ngens a\n", "1:1: word binding before any 'gens' line"),
            (
                "load",
                "bind l loop 0 F (1,1) (2,2) (3,1)\n",
                "1:1: loop binding before any 'punctures:' line",
            ),
            # An error about a whole literal names column 1 of its line.
            (
                "load",
                "punctures: (0,0)\nbind l loop 9 F (1,1) (2,2) (3,1)\n",
                "2:1: flag vertex 9 out of range for 3 vertices",
            ),
            (
                "load",
                "punctures: (0,0)\nbind l loop 0 F (1,1) (2,2)\n",
                "2:1: loop literal needs at least three vertices",
            ),
        ],
    )
    def test_file_errors_name_their_line_and_column(self, tmp_path, command, text, error):
        path = tmp_path / "file"
        path.write_text(text)
        _, _, err, code = run(Session(), f"{command} {path}")
        assert (err, code) == (error, 2)

    def test_missing_file_is_domain_error(self):
        _, _, err, code = run(Session(), "lattice load /nonexistent.lat")
        assert code == 1

    def test_empty_line_is_a_no_op(self):
        _, out, err, code = run_command(Session(), [])
        assert (out, err, code) == (None, None, 0)


class TestGeometryCommands:
    def test_plane_load_binds_loops(self):
        session = Session()
        _, out, _, code = run(session, f"plane load {DATA / 'loops.plane'}")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "plane: 2 puncture(s)"
        assert lines[1].startswith("loop1 = loop 0 F (1,-1)")
        assert set(session.bindings) == {"loop1", "loop2"}

    def test_wind_and_fgword(self):
        session = Session()
        run(session, f"plane load {DATA / 'loops.plane'}")
        _, out, _, _ = run(session, "wind loop1")
        assert out == "(1, 0)"
        _, out, _, _ = run(session, "fgword loop2")
        assert out == "x2"

    def test_fgword_reads_a_vertex_on_a_ray(self, tmp_path):
        path = tmp_path / "diamond.plane"
        path.write_text("punctures: (0,0)\nloop 0 F (0,-1) (1,0) (0,1) (-1,0)\n")
        out, err, code = script_output(f"plane load {path}\nfgword loop1\n")
        assert (err, code) == ("", 0)
        assert out.splitlines()[-1] == "x1"

    def test_sum_binds_the_next_loop_name(self):
        session = Session()
        run(session, f"plane load {DATA / 'loops.plane'}")
        _, out, _, code = run(session, "sum +- loop1 loop2 --base (1/3,-12)")
        assert code == 0
        assert out.startswith("loop3 = loop 0 F (1/3,-12)")
        _, out, _, _ = run(session, "wind loop3")
        assert out == "(1, 1)"

    def test_minus_minus_sum(self):
        session = Session()
        run(session, f"plane load {DATA / 'loops.plane'}")
        assert run(session, "wind loop1")[1] == "(1, 0)"
        assert run(session, "wind loop2")[1] == "(0, 1)"
        _, out, err, code = run(session, "sum -- loop1 loop2 --base (1/3,-12)")
        assert code == 0, err
        assert out.startswith("loop3 = loop 0 F (1/3,-12)")
        # (-,-) adds -w1 + w2.
        assert run(session, "wind loop3")[1] == "(-1, 1)"

    def test_unknown_loop_is_domain_error(self):
        session = Session()
        run(session, f"plane load {DATA / 'loops.plane'}")
        _, _, err, code = run(session, "wind loop9")
        assert code == 1

    def test_oracle_sweep_defaults_to_one_puncture(self):
        _, out, _, code = run(Session(), "oracle sweep --samples 4 --seed 2")
        assert code == 0
        assert out.splitlines()[0] == "oracle sweep: samples=4 seed=2"
        assert out.splitlines()[-1] == "result: PASS"

    def test_oracle_sweep_runs_on_the_loaded_plane(self):
        out, err, code = script_output(
            f"plane load {DATA / 'loops.plane'}\noracle sweep --samples 5 --seed 1\n"
        )
        assert (err, code) == ("", 0)
        lines = out.splitlines()
        assert lines[3:] == [
            "oracle sweep: samples=5 seed=1",
            "addition: PASS (5 cases)",
            "identity: PASS (10 cases)",
            "inverse: PASS (5 cases)",
            "associativity: PASS (5 cases)",
            "result: PASS",
        ]

    def test_oracle_sweep_samples_are_capped(self):
        line = f"oracle sweep --samples {MAX_SWEEP_SAMPLES + 1} --seed 2"
        _, out, err, code = run(Session(), line)
        assert (out, code) == (None, 1)
        assert f"at most {MAX_SWEEP_SAMPLES} samples" in err

    def test_oracle_sweep_needs_seed(self):
        _, _, err, code = run(Session(), "oracle sweep --samples 4")
        assert code == 2


class TestCheckCommand:
    def test_single_suite(self):
        _, out, _, code = run(Session(), "check assoc")
        assert code == 0
        assert out == "assoc: PASS (27 checks)\nall checks passed"

    def test_unknown_suite(self):
        _, _, err, code = run(Session(), "check nope")
        assert code == 2


# A square around the origin whose first edge runs through (1,0).
SQUARE = "loop 0 F (1,-1) (1,1) (-1,1) (-1,-1)"


class TestSessionPersistence:
    def test_save_load_save_is_lossless(self, tmp_path):
        session = Session()
        for line in [
            "gens a b",
            f"lattice load {DATA / 'fixtures.lat'}",
            f"plane load {DATA / 'loops.plane'}",
            "sum ++ loop1 loop2 --base (2/7,-14)",
        ]:
            _, _, err, code = run(session, line)
            assert code == 0, err
        first = tmp_path / "one.session"
        second = tmp_path / "two.session"
        run(session, f"save {first}")
        run(session, f"load {first}")
        run(session, f"save {second}")
        assert first.read_bytes() == second.read_bytes()

    def test_word_and_tree_bindings_round_trip(self, tmp_path):
        path = tmp_path / "bound.session"
        path.write_text(
            "gens a b\n"
            "policy lex\n"
            "bind w1 word a+ b+\n"
            "bind t1 tree [- (pair +- leaf:a leaf:b)]\n"
        )
        session = Session()
        _, _, err, code = run(session, f"load {path}")
        assert code == 0, err
        _, out, _, _ = run(session, "inv w1")
        assert out == "b- a-"
        _, out, _, _ = run(session, "eval t1")
        assert out == "b- a-"

    def test_canon_lines_round_trip(self, tmp_path):
        path = tmp_path / "canon.session"
        path.write_text("gens a b\ncanon b- a-\n")
        session = Session()
        run(session, f"load {path}")
        _, out, _, _ = run(session, "class a+ b+")
        assert out.splitlines()[0] == "canonical: b- a-"
        out_path = tmp_path / "resaved.session"
        run(session, f"save {out_path}")
        assert out_path.read_text() == "gens a b\ncanon b- a-\n"

    @pytest.mark.parametrize(
        "policy", ["policy lex\n", "policy explicit\n"], ids=["lex", "explicit"]
    )
    @pytest.mark.parametrize("canon", ["", "canon b- a-\n"], ids=["none", "canon"])
    def test_an_older_policy_line_is_read_and_dropped(self, tmp_path, policy, canon):
        path, saved = tmp_path / "in.session", tmp_path / "out.session"
        path.write_text(f"gens a b\n{policy}{canon}")
        out, err, code = script_output(f"load {path}\nclass a+ b+\nsave {saved}\n")
        assert (err, code) == ("", 0)
        chosen = "b- a-" if canon else "a+ b+"
        assert out.splitlines()[1] == f"canonical: {chosen}"
        assert saved.read_text() == f"gens a b\n{canon}"

    def test_an_unknown_policy_is_refused(self, tmp_path):
        path = tmp_path / "policy.session"
        path.write_text("gens a b\npolicy fancy\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("2:1: unknown policy 'fancy' (expected lex or explicit)", 2)

    def test_canon_lines_choose_the_printed_member_until_gens(self, tmp_path):
        path = tmp_path / "canon.session"
        path.write_text("gens a b\ncanon b- a-\ncanon b-\n")
        out, err, code = script_output(
            f"load {path}\nclass a+ b+\npair +- 'a+ b+' b-\n"
            "gens a b\nclass a+ b+\npair +- 'a+ b+' b-\n"
        )
        assert (err, code) == ("", 0)
        lines = out.splitlines()
        assert lines[1] == "canonical: b- a-" and lines[4] == "b- a- b-"
        assert lines[6] == "canonical: a+ b+" and lines[9] == "a+ b+ b+"

    @pytest.mark.parametrize(
        "text",
        [
            "gens a b\nbind w word b+ a-\ngens x\n",
            f"punctures: (0,0)\nbind l {SQUARE}\npunctures: (1,0)\n",
            "policy lex\ngens a\npolicy explicit\n",
            "lattice 0 2\ngens a\nlattice 1 1\n3\n",
        ],
    )
    def test_a_second_header_line_is_refused(self, tmp_path, text):
        # Loading the first two would keep a binding the second line breaks:
        # the word's 'b' under 'gens x', the square through the puncture (1,0).
        path = tmp_path / "twice.session"
        path.write_text(text)
        _, _, err, code = run(Session(), f"load {path}")
        head = text.splitlines()[2].split()[0]
        assert (err, code) == (f"3:1: duplicate {head!r} line", 2)

    def test_gens_drops_the_words_it_breaks(self, tmp_path):
        path, saved = tmp_path / "in.session", tmp_path / "out.session"
        path.write_text("gens a b\nbind w word b+ a-\n")
        out, err, code = script_output(
            f"load {path}\ngens x\nsave {saved}\nload {saved}\n"
        )
        assert (err, code) == ("", 0)
        assert saved.read_text() == "gens x\n"

    @pytest.mark.parametrize(
        "session_text, command, file_text, error",
        [
            ("punctures:\n", "plane load", "punctures:\n", "1:1: no punctures declared"),
            (
                f"punctures: (1,0)\nbind l {SQUARE}\n",
                "plane load",
                f"punctures: (1,0)\n{SQUARE}\n",
                "2:1: loop edge 0 passes through puncture 1",
            ),
            (
                "lattice 1 2\n1 x\n",
                "lattice load",
                "# rows\n1 x\n",
                "2:3: bad integer 'x' in lattice row (expected integer)",
            ),
        ],
    )
    def test_session_errors_match_the_standalone_readers(
        self, tmp_path, session_text, command, file_text, error
    ):
        session_path, other_path = tmp_path / "in.session", tmp_path / "other"
        session_path.write_text(session_text)
        other_path.write_text(file_text)
        _, _, session_err, session_code = run(Session(), f"load {session_path}")
        _, _, other_err, other_code = run(Session(), f"{command} {other_path}")
        assert (session_err, session_code) == (other_err, other_code) == (error, 2)

    @pytest.mark.parametrize(
        "first, second, error",
        [
            ("gens a b", "bind w word b+ q+", "2:16: unknown generator 'q'"),
            ("gens a b", "canon a+ z+", "2:10: unknown generator 'z'"),
            ("gens a b", "  canon a+ z+", "2:12: unknown generator 'z'"),
            ("gens a b", "bind t tree [+ (pair ++ leaf:a leaf:q)]", "2:32: unknown generator 'q'"),
            (
                "punctures: (0,0)",
                "bind l loop 0 F (1,1) (2,x) (3,1)",
                "2:23: bad rational coordinate in '(2,x)'",
            ),
        ],
    )
    def test_payload_errors_name_their_column_in_the_line(self, tmp_path, first, second, error):
        path = tmp_path / "payload.session"
        path.write_text(f"{first}\n{second}\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert code == 2
        assert err.startswith(error)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on reading integers"
    )
    def test_a_loop_name_past_the_digit_limit_fails_one_line(self, tmp_path):
        # The next loop name counts on from the highest 'loop<n>' binding.
        path = tmp_path / "huge.session"
        digits = "9" * (sys.get_int_max_str_digits() + 100)
        path.write_text(
            f"gens a b\npunctures: (0,0)\nbind loop{digits} word a+\nbind sq {SQUARE}\n"
        )
        plane = DATA / "loops.plane"
        for command in (f"plane load {plane}", "sum +- sq sq --base (1/3,-12)"):
            out, err, code = script_output(f"load {path}\n{command}\nab a+\n")
            assert (out, code) == (f"loaded {path}\n(1, 0)\n", 1)
            assert err.startswith("error: number ") and err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on reading integers"
    )
    def test_plane_load_changes_nothing_when_a_loop_name_fails(self, tmp_path):
        # The first new name, loop1 and then as many zeros as the limit allows,
        # can be read; the second would leave no room for the name after it.
        path = tmp_path / "nines.session"
        name = "loop" + "9" * (sys.get_int_max_str_digits() - 1)
        path.write_text(f"gens a\nbind {name} word a+\n")
        session, out, err = Session(), io.StringIO(), io.StringIO()
        script = f"load {path}\nplane load {DATA / 'loops.plane'}\nab a+\n"
        code = run_script(script, session, out=out, err=err)
        assert (out.getvalue(), code) == (f"loaded {path}\n(1)\n", 1)
        assert err.getvalue().startswith("error: number ") and err.getvalue().count("\n") == 1
        assert session.plane is None
        assert list(session.bindings) == [name]

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "commented.session"
        path.write_text("# a session\n\ngens a b\n   \n  # words\nbind w word a+ b-  # a word\n")
        out, err, code = script_output(f"load {path}\ninv w\n")
        assert (out, err, code) == (f"loaded {path}\nb+ a-\n", "", 0)

    def test_negative_lattice_row_count_is_refused(self, tmp_path):
        path = tmp_path / "negative.session"
        path.write_text("gens a\nlattice -2 2\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("2:1: negative lattice row count -2", 2)

    @pytest.mark.parametrize(
        "text,error",
        [
            (
                "gens a b\nlattice x 2\n",
                "2:9: bad integer 'x' in lattice header (expected integer)",
            ),
            (
                "gens a b\n  lattice 1 2x  # rows\n2 0\n",
                "2:13: bad integer '2x' in lattice header (expected integer)",
            ),
            (
                "gens a b\nlattice 2 3\n1 0 0\n2 0\n",
                "4:1: lattice row (2, 0) does not have dimension 3",
            ),
            ("gens a\nlattice 2\n", "2:1: lattice header needs row count and dimension"),
            ("gens a\nlattice 2 1 0\n", "2:1: lattice header needs row count and dimension"),
            (
                "gens a\nlattice 2 1\n3\n",
                "2:1: lattice header promises more rows than the file has",
            ),
            (
                "gens a\nlattice 3 1  # rows\n3\n4\n",
                "2:1: lattice header promises more rows than the file has",
            ),
        ],
    )
    def test_lattice_errors_name_their_token_and_line(self, tmp_path, text, error):
        path = tmp_path / "bad.session"
        path.write_text(text)
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == (error, 2)

    def test_a_row_count_past_any_file_is_refused(self, tmp_path):
        path = tmp_path / "many.session"
        path.write_text(f"gens a\nlattice {sys.maxsize + 1} 1\n3\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("2:1: lattice header promises more rows than the file has", 2)

    def test_lattice_rows_are_read_as_lines_of_the_file(self, tmp_path):
        # The rows are not directives, and what follows them is.
        path = tmp_path / "rows.session"
        path.write_text("lattice 2 2  # rows\n1 0\n0 2\ngens a\ncanon a+ q+\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("5:10: unknown generator 'q' (expected declared generator name)", 2)
        path.write_text("gens a\nlattice 3 2\n1 0\n0 1\n  0 x  # last\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("5:5: bad integer 'x' in lattice row (expected integer)", 2)
        # A blank line below the header is a row, with no entries.
        path.write_text("gens a\nlattice 3 2\n1 0\n\n0 1\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("4:1: lattice row () does not have dimension 2", 2)
        path.write_text("gens a\nlattice 0 -1\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert (err, code) == ("2:1: lattice dimension must be an int >= 1, not -1", 2)

    def test_bad_session_directive_is_syntax_error(self, tmp_path):
        path = tmp_path / "bad.session"
        path.write_text("gens a\nwibble 3\n")
        _, _, err, code = run(Session(), f"load {path}")
        assert code == 2
        assert "line 2" in err or "2:" in err


class TestScriptRunner:
    def test_continues_after_errors_and_reports_first_code(self):
        out, err, code = script_output("gens a b\nfrobnicate\ninv a+\n")
        assert code == 2
        assert out == "generators: a b\na-\n"
        assert "unknown command" in err

    def test_comments_and_blank_lines_are_skipped(self):
        out, err, code = script_output("# heading\n\ngens a b  # trailing\n")
        assert (out, err, code) == ("generators: a b\n", "", 0)

    def test_errors_name_their_script_line_and_column(self):
        out, err, code = script_output(
            "gens a b\neval [+ (pair ++ leaf:a   leaf:z)]\ninv a+ b+ q+\n"
        )
        assert (out, code) == ("generators: a b\n", 2)
        assert err == (
            "error: 2:27: unknown generator 'z' (expected declared generator name)\n"
            "error: 3:11: unknown generator 'q' (expected declared generator name)\n"
        )

    def test_errors_script_matches_golden(self, monkeypatch):
        script = (DATA / "errors_script.txt").read_text(encoding="utf-8")
        monkeypatch.chdir(DATA)  # the script loads errors.session from there
        out, err, code = script_output(script)
        assert (out, code) == ("generators: a b\n", 2)
        assert err == (DATA / "errors_golden.txt").read_text(encoding="utf-8")

    def test_a_file_error_keeps_its_place_in_the_file(self, tmp_path):
        lat = tmp_path / "bad.lat"
        lat.write_text("1 0\n-3 -\n")
        out, err, code = script_output(f"gens a b\n\nlattice load {lat}\n")
        assert (err, code) == ("error: 2:4: bad integer '-' in lattice row (expected integer)\n", 2)

    def test_deterministic_output(self):
        text = (
            "gens a b c\n"
            "class b- a-\n"
            "orbit [+ (pair +- leaf:a leaf:b)]\n"
            "oracle sweep --samples 3 --seed 5\n"
        )
        assert script_output(text) == script_output(text)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on reading integers"
)
class TestDigitLimit:
    """A number longer than the interpreter reads is a resource error, not a bad token."""

    @staticmethod
    def long_number() -> str:
        return "9" * (sys.get_int_max_str_digits() + 1)

    def assert_refused(self, err: str | None, code: int) -> None:
        limit = sys.get_int_max_str_digits()
        assert code == 1
        assert f"longer than {limit} digits" in err
        assert len(err) < 200

    def test_vector_entry(self):
        _, _, err, code = run(Session(), f"coset ({self.long_number()}, 1)")
        self.assert_refused(err, code)

    def test_option_value(self):
        line = f"oracle sweep --samples 1 --seed {self.long_number()}"
        _, _, err, code = run(Session(), line)
        self.assert_refused(err, code)

    def test_lattice_row_and_header(self, tmp_path):
        lat = tmp_path / "long.lat"
        lat.write_text(f"1 {self.long_number()}\n")
        self.assert_refused(*run(Session(), f"lattice load {lat}")[2:])
        session_file = tmp_path / "long.session"
        session_file.write_text(f"gens a\nlattice {self.long_number()} 1\n")
        self.assert_refused(*run(Session(), f"load {session_file}")[2:])

    def test_coordinate_and_flag_index(self, tmp_path):
        for loop in (
            f"loop 0 F (1/{self.long_number()},1) (2,2) (3,1)",
            f"loop {self.long_number()} F (1,1) (2,2) (3,1)",
        ):
            path = tmp_path / "long.plane"
            path.write_text(f"punctures: (0,0)\n{loop}\n")
            self.assert_refused(*run(Session(), f"plane load {path}")[2:])

    def assert_fails_alone(self, session, line, next_line, next_out):
        """``line`` fails with one error line and changes nothing; ``next_line`` still runs."""
        before = {**vars(session), "bindings": dict(session.bindings)}
        out, err = io.StringIO(), io.StringIO()
        code = run_script(f"{line}\n{next_line}\n", session, out=out, err=err)
        assert (out.getvalue(), code) == (next_out, 1)
        limit = sys.get_int_max_str_digits()
        assert err.getvalue() == (
            f"error: result has a number longer than {limit} digits, the interpreter's limit on "
            "writing an integer (sys.get_int_max_str_digits())\n"
        )
        assert {**vars(session), "bindings": dict(session.bindings)} == before

    def test_a_sum_too_long_to_write_binds_nothing(self, tmp_path):
        # Each coordinate can be read, but the sum's are over a longer denominator.
        den = "1" + "0" * (sys.get_int_max_str_digits() - 2) + "1"
        plane = tmp_path / "long.plane"
        long_loop = f"loop 0 F (1,-1/{den}) (1,1) (-1,1) (-1,-1)"
        plane.write_text(f"punctures: (0,0)\n{long_loop}\n{SQUARE}\n")
        session, saved = Session(), tmp_path / "after.session"
        assert run(session, f"plane load {plane}")[3] == 0
        line = "sum +- loop1 loop2 --base (1/3,-12)"
        self.assert_fails_alone(session, line, f"save {saved}", f"saved {saved}\n")
        bound = f"bind loop1 {long_loop}\nbind loop2 {SQUARE}\n"
        assert saved.read_text() == f"punctures: (0,0)\n{bound}"

    def test_a_coset_too_long_to_write(self, tmp_path):
        nines = "9" * sys.get_int_max_str_digits()
        lat = tmp_path / "long.lat"
        lat.write_text(f"2 {nines}\n")
        session = Session()
        assert run(session, f"lattice load {lat}")[3] == 0
        self.assert_fails_alone(session, f"coset ({nines}, 0)", "coset (0, 5)", "(0, 5)\n")

    def test_a_long_bad_token_is_echoed_in_part(self):
        _, _, err, code = run(Session(), f"coset ({'9' * 100}x, 1)")
        assert (err, code) == (
            f"1:8: bad integer {'9' * 40!r}... (101 characters) in vector literal"
            " (expected integer)",
            2,
        )


# Spellings that int() or Fraction() read but flagcalc does not.
REFUSED_INTEGERS = ["1.5", "2e1", "1_0", "١٢", "１２", "0x10", "1/2"]
REFUSED_IDS = ["decimal", "exponent", "underscore", "arabic-indic", "full-width", "hex", "ratio"]


class TestAsciiIntegers:
    """Every integer is read as ASCII ``[+-]?[0-9]+``, with the spaces around it kept."""

    @pytest.mark.parametrize("token", REFUSED_INTEGERS, ids=REFUSED_IDS)
    def test_vector_entry(self, token):
        _, _, err, code = run(Session(), f"coset (3, {token})")
        assert (err, code) == (
            f"1:11: bad integer {token!r} in vector literal (expected integer)",
            2,
        )

    @pytest.mark.parametrize("token", REFUSED_INTEGERS, ids=REFUSED_IDS)
    def test_lattice_row(self, tmp_path, token):
        lat = tmp_path / "bad.lat"
        lat.write_text(f"1 0\n-3 {token} # note\n")
        _, _, err, code = run(Session(), f"lattice load {lat}")
        assert (err, code) == (f"2:4: bad integer {token!r} in lattice row (expected integer)", 2)

    @pytest.mark.parametrize("token", REFUSED_INTEGERS, ids=REFUSED_IDS)
    def test_option_value(self, token):
        _, _, err, code = run(Session(), f"oracle sweep --samples {token} --seed 7")
        assert (err, code) == ("1:24: option --samples needs an integer", 2)

    @pytest.mark.parametrize("space", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_what_str_strip_removes_is_a_space_everywhere(self, space):
        # int() keeps these characters that str.strip removes; both readers strip first.
        assert run_command(Session(), ["coset", f"({space}5,{space}2{space})"])[1:] == (
            "(5, 2)", None, 0
        )
        argv = ["oracle", "sweep", "--samples", f"{space}2{space}", "--seed", f"{space}7"]
        _, out, err, code = run_command(Session(), argv)
        assert (err, code) == (None, 0)
        assert out.startswith("oracle sweep: samples=2 seed=7\n")

    def test_signs_leading_zeros_and_spaces_stay(self, tmp_path):
        for argv in (["coset", "( +1 ,\t-02 )"], ["coset", "(\xa0+1,-02\u3000)"]):
            assert run_command(Session(), argv)[1:] == ("(1, -2)", None, 0)
        lat = tmp_path / "ok.lat"
        lat.write_text("+2 -0\t007\n0 3 0 \xa0 # rows\n")
        session = Session()
        assert run(session, f"lattice load {lat}")[3] == 0
        assert session.lattice.rows == ((2, 0, 7), (0, 3, 0))
        _, out, _, code = run(Session(), "oracle sweep --samples +02 --seed 007")
        assert code == 0 and out.startswith("oracle sweep: samples=2 seed=7")


def deep_word(n: int = 10_000) -> list[str]:
    rng = random.Random(4)
    return [rng.choice(("a+", "a-", "b+", "b-")) for _ in range(n)]


def left_comb(letters: list[str]) -> str:
    """The literal ``word2tree`` prints, built from the word's text."""
    names = [letter[:-1] for letter in letters]
    neg = {"+": "-", "-": "+"}
    signs = [letter[-1] for letter in letters]
    inner = f"(pair {signs[0]}{neg[signs[1]]} leaf:{names[0]} leaf:{names[1]})"
    opened = "".join(f"(pair +{neg[s]} " for s in reversed(signs[2:]))
    closed = "".join(f" leaf:{name})" for name in names[2:])
    return f"[+ {opened}{inner}{closed}]"


class TestDeepTrees:
    """A 10^4-letter word makes a left comb 10^4 levels deep."""

    def test_word2tree_and_eval(self):
        letters = deep_word()
        word, literal = " ".join(letters), left_comb(letters)
        out, err, code = script_output(f"gens a b\nword2tree {word}\nab a+\n")
        assert (out, err, code) == (f"generators: a b\n{literal}\n(1, 0)\n", "", 0)
        out, err, code = script_output(f"gens a b\neval {literal}\n")
        assert (out, err, code) == (f"generators: a b\n{word}\n", "", 0)

    def test_orbit_fails_with_one_error_line_and_the_batch_goes_on(self):
        literal = left_comb(deep_word())
        out, err, code = script_output(f"gens a b\norbit {literal}\nab a+\n")
        assert (out, code) == ("generators: a b\n(1, 0)\n", 1)
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deep_closure_is_refused_not_crashed(self):
        # A tuple's hash recurses in C with no depth guard; in a subprocess a
        # crash fails this test instead of killing pytest.
        package_root = str(Path(flagcalc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": package_root}
        program = (
            "from flagcalc.trees import move_closure, word_to_tree\n"
            "from flagcalc.words import GeneratorSet, parse_word\n"
            "word = parse_word('a+ b-', GeneratorSet.of('a', 'b'))\n"
            "for _ in range(19):\n"
            "    word = word.concat(word)\n"  # 2**20 letters
            "try:\n"
            "    move_closure(word_to_tree(word))\n"
            "except RecursionError:\n"
            "    print('refused')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", program],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "refused\n", "")
        literal = left_comb(deep_word(1_500))
        proc = subprocess.run(
            [sys.executable, "-m", "flagcalc"],
            input=f"gens a b\norbit {literal}\n",
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "generators: a b\n",
            "error: input nested too deeply for this command\n",
        )

    def test_session_save_load_save(self, tmp_path):
        letters = deep_word()
        word, literal = " ".join(letters), left_comb(letters)
        path = tmp_path / "deep.session"
        path.write_text(
            f"gens a b\nbind t tree {literal}\nbind w word {word}\n"
        )
        first, second = tmp_path / "one.session", tmp_path / "two.session"
        out, err, code = script_output(
            f"load {path}\nsave {first}\nload {first}\nsave {second}\neval t\n"
        )
        assert (err, code) == ("", 0)
        assert out.endswith(f"saved {second}\n{word}\n")
        assert first.read_bytes() == second.read_bytes() == path.read_bytes()


# Well-formed lines that ``fuzz_lines`` mutates with loose atoms.  ``check``
# is left out to keep each example fast, and ``--samples`` stays <= 50.
SEED_LINES = (
    "gens a b", "gens a a", "inv a+ b-", "inv", "class a+ a-", "ms a+ b- a+",
    "ab b+ b+ a-", "pair +- a+ b-", "pair -- 'a+ b+' b-", "word2tree a+ b- a+",
    "eval [+ (pair +- leaf:a leaf:b)]", "eval (pair -+ leaf:b leaf:b)",
    "orbit [- (pair -- leaf:b (pair ++ leaf:a leaf:a))] --cap 50",
    "coset (1, 2)", "coset (4, -3, 2)", "lattice load fixtures.lat",
    "plane load loops.plane", "wind loop1", "fgword loop2",
    "sum +- loop1 loop2 --base (1/3,-12)", "sum -- loop2 loop1 --base (2/7,-14)",
    "oracle sweep --samples 3 --seed 1", "oracle sweep --samples 20 --seed 7",
    "save out.session", "load out.session", "load missing.lat", "nope",
)
ATOMS = (
    "a b+ c+ q- + - -- +- ++ [+ [- ( (pair ) ] (0,0) (1/0,1) loop3 w load "
    "sweep --cap --base --samples --seed --nope 0 1 -1 50 ' \" #"
).split()


@st.composite
def fuzz_lines(draw) -> str:
    tokens = draw(st.sampled_from(SEED_LINES)).split()
    for atom in draw(st.lists(st.sampled_from(ATOMS), max_size=3)):
        tokens.insert(draw(st.integers(0, len(tokens))), atom)
    if draw(st.booleans()):
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return " ".join(tokens)


@st.composite
def rectangles(draw) -> str:
    """A loop literal whose corners sit at odd halves, clear of integer points."""
    half = st.sampled_from([f"{k}/2" for k in range(-9, 10, 2)])
    x1, x2 = draw(st.lists(half, min_size=2, max_size=2, unique=True))
    y1, y2 = draw(st.lists(half, min_size=2, max_size=2, unique=True))
    flag, way = draw(st.integers(0, 3)), draw(st.sampled_from("FB"))
    return f"loop {flag} {way} ({x1},{y1}) ({x2},{y1}) ({x2},{y2}) ({x1},{y2})"


@st.composite
def session_files(draw) -> str:
    gens = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    letters = st.sampled_from([g + s for g in gens for s in "+-"])
    word = st.lists(letters, max_size=4).map(" ".join)
    signs = st.sampled_from(["++", "+-", "-+", "--"])
    tree = st.recursive(
        st.sampled_from([f"leaf:{g}" for g in gens]),
        lambda kids: st.builds("(pair {} {} {})".format, signs, kids, kids),
        max_leaves=5,
    )
    root = st.sampled_from(["tree [+ {}]", "tree [- {}]", "tree {}"])
    value = st.one_of(
        word.map("word {}".format), st.builds(str.format, root, tree), rectangles()
    )
    # Older files carry a 'policy' line, which load reads and save drops.
    policy = draw(st.sampled_from([[], ["policy lex"], ["policy explicit"]]))
    lines = ["gens " + " ".join(gens), *policy]
    lines += [f"canon {w}" for w in draw(st.lists(word, max_size=3))]
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, max_size=3))
    comment = st.sampled_from(["", "  # a comment"])
    lines.append(f"lattice {len(rows)} {dim}")
    lines += [" ".join(map(str, r)) + draw(comment) for r in rows]
    xs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    points = [f"({x},{draw(st.integers(-2, 2))})" for x in xs]
    lines.append("punctures: " + " ".join(points))
    values = draw(st.lists(value, max_size=8))
    lines += [f"bind v{i} {v}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name in ("fixtures.lat", "loops.plane"):
        shutil.copy(DATA / name, path / name)
    return path


class TestFuzz:
    @given(st.booleans(), st.lists(fuzz_lines(), min_size=1, max_size=8))
    def test_every_line_ends_with_a_code_and_at_most_one_error_line(
        self, workdir, with_plane, lines
    ):
        session, quiet = Session(), io.StringIO()
        preamble = "gens a b\nplane load loops.plane" if with_plane else "gens a b"
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(workdir)  # a mutated ``save`` writes here
            assert run_script(preamble, session, out=quiet, err=quiet) == 0
            for line in lines:
                err = io.StringIO()
                assert run_script(line, session, out=quiet, err=err) in (0, 1, 2), line
                assert re.fullmatch(r"(error: [^\n]*\n)?", err.getvalue()), line

    @given(session_files())
    def test_session_save_load_save_is_byte_identical(self, workdir, text):
        # A fresh directory per example: rewriting files in place waits on disk.
        fresh = Path(tempfile.mkdtemp(dir=workdir))
        path, one, two = (fresh / name for name in ("in", "one", "two"))
        path.write_text(text)
        _, err, code = script_output(f"load {path}\nsave {one}\nload {one}\nsave {two}")
        assert (err, code) == ("", 0)
        assert one.read_bytes() == two.read_bytes()


class TestMain:
    def test_single_command_flag(self, capsys):
        assert main(["-c", "gens a b"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "generators: a b\n"
        assert captured.err == ""

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("gens a b\ninv a+ b+\n")
        assert main([str(script)]) == 0
        assert capsys.readouterr().out == "generators: a b\nb- a-\n"

    def test_missing_script_file(self, capsys):
        assert main(["/no/such/script.txt"]) == 1
        assert "cannot read" in capsys.readouterr().err
