import random

import pytest

from szzvc.errors import ConfigError
from szzvc.evaluate import (
    EvalRow,
    ScoreGroup,
    Verdict,
    format_table,
    load_verdicts,
    score,
)


def _group(fix, candidates, language="pure-data"):
    return ScoreGroup(fixing_commit=fix, language=language,
                      candidates=tuple(candidates))


def test_row_formula():
    groups = [_group("f1", ["a", "b", "c"])]
    verdicts = [
        Verdict("f1", "a", "TP"),
        Verdict("f1", "b", "FP"),
        Verdict("f1", "c", "U"),
    ]
    report = score(groups, verdicts, method="szz-vc-max")
    row = report.rows[0]
    assert (row.tp, row.fp, row.u, row.tdic) == (1, 1, 1, 3)
    assert row.precision == 0.5
    assert report.averages["overall"] == 0.5


def test_perfect_row_matches_published_shape():
    report = score([_group("ac27153", ["x"])], [Verdict("ac27153", "x", "TP")])
    assert report.rows[0].precision == 1.0
    assert report.rows[0].tdic == 1


def test_zero_candidates_contribute_precision_zero():
    groups = [_group("f1", ["a"]), _group("f2", [])]
    report = score(groups, [Verdict("f1", "a", "TP")])
    assert [row.precision for row in report.rows] == [1.0, 0.0]
    assert report.averages["overall"] == 0.5


def test_zero_denominator_precision_is_zero():
    report = score([_group("f1", ["a"])], [Verdict("f1", "a", "U")])
    assert report.rows[0].precision == 0.0
    assert report.rows[0].tdic == 1


def test_language_group_averages():
    groups = [
        _group("f1", ["a"], language="pure-data"),
        _group("f2", ["b"], language="max-msp"),
        _group("f3", ["c"], language="max-msp"),
    ]
    verdicts = [
        Verdict("f1", "a", "TP"),
        Verdict("f2", "b", "FP"),
        Verdict("f3", "c", "TP"),
    ]
    report = score(groups, verdicts)
    assert report.averages["pure-data"] == 1.0
    assert report.averages["max-msp"] == 0.5
    assert report.averages["overall"] == pytest.approx(2 / 3)


def test_verdict_order_never_matters():
    groups = [_group("f1", ["a", "b"]), _group("f2", ["c", "d"])]
    verdicts = [
        Verdict("f1", "a", "TP"),
        Verdict("f1", "b", "FP"),
        Verdict("f2", "c", "U"),
        Verdict("f2", "d", "TP"),
    ]
    baseline = score(groups, verdicts)
    for seed in range(5):
        shuffled = verdicts[:]
        random.Random(seed).shuffle(shuffled)
        assert score(groups, shuffled) == baseline


def test_unknown_candidate_verdict_is_error():
    with pytest.raises(ConfigError, match="unknown candidates"):
        score([_group("f1", ["a"])],
              [Verdict("f1", "a", "TP"), Verdict("f1", "ghost", "FP")])


def test_missing_verdict_aborts_unless_partial():
    groups = [_group("f1", ["a", "b"])]
    verdicts = [Verdict("f1", "a", "TP")]
    with pytest.raises(ConfigError, match="without a verdict"):
        score(groups, verdicts)
    report = score(groups, verdicts, allow_partial=True)
    assert report.rows[0].tdic == 1
    assert report.unjudged == (("f1", "b"),)


def test_bad_label_rejected():
    with pytest.raises(ConfigError, match="label"):
        Verdict("f", "i", "MAYBE")


def test_load_verdicts_jsonl(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(
        '{"fixing_commit": "f", "inducing_commit": "i", "label": "TP", '
        '"note": "clear cause", "reviewer": "r1"}\n'
        "\n"
        '{"fixing_commit": "f", "inducing_commit": "j", "label": "U"}\n'
    )
    verdicts = load_verdicts(str(path))
    assert len(verdicts) == 2
    assert verdicts[0].note == "clear cause"

    dup = tmp_path / "dup.jsonl"
    dup.write_text(
        '{"fixing_commit": "f", "inducing_commit": "i", "label": "TP"}\n'
        '{"fixing_commit": "f", "inducing_commit": "i", "label": "FP"}\n'
    )
    with pytest.raises(ConfigError, match="duplicate verdict"):
        load_verdicts(str(dup))

    broken = tmp_path / "broken.jsonl"
    broken.write_text("not json\n")
    with pytest.raises(ConfigError, match="malformed verdict"):
        load_verdicts(str(broken))


def test_a_bad_label_names_its_line(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(
        '{"fixing_commit": "f", "inducing_commit": "i", "label": "TP"}\n'
        '{"fixing_commit": "f", "inducing_commit": "j", "label": "MAYBE"}\n'
    )
    with pytest.raises(ConfigError,
                       match="malformed verdict at line 2: verdict label must be one of"):
        load_verdicts(str(path))


def test_table_columns():
    report = score([_group("f1", ["a"])], [Verdict("f1", "a", "TP")],
                   method="textual")
    table = format_table(report)
    header = table.splitlines()[1].split()
    assert header == ["Commit", "TP", "FP", "U", "TDIC", "Pr"]
    assert "f1" in table
    assert "1.00" in table
