"""OP/HP/MP/S evaluation and summary tables."""

import csv
import io
import json

import pytest

from precfix import engine, corpus, evaluator
from precfix import mpfloat as mp

CFG = engine.EngineConfig()


@pytest.fixture(scope="module")
def exp_rows():
    k = corpus.get_kernel("exp_kernel")
    xs = corpus.grid("-1", "1", 60)
    rows, skipped = evaluator.evaluate(k, xs, CFG, frozenset({3}))
    return rows, skipped


def test_row_values_make_sense(exp_rows):
    rows, skipped = exp_rows
    assert skipped == 0
    assert len(rows) == 60
    for err_op, err_hp, err_mp in rows[::7]:
        assert err_op.to_float() < 1e-12
        assert err_mp.to_float() < 1e-12


def test_error_ordering_mp_best(exp_rows):
    rows, _ = exp_rows
    better = sum(1 for _, err_hp, err_mp in rows
                 if mp.cmp(err_mp, err_hp) is not None
                 and mp.cmp(err_mp, err_hp) <= 0)
    assert better == len(rows)


def test_summary_percentages(exp_rows):
    rows, skipped = exp_rows
    t = evaluator.summarize("exp_kernel", rows, skipped)
    assert t.pct["M>=H"] == 100.0
    assert t.pct["M>=L"] == 100.0
    assert t.pct["H>=L"] < 50.0
    assert 0 <= t.pct["M>H"] <= 100.0
    avg_hp = t.avg["HP"].to_float()
    avg_mp = t.avg["MP"].to_float()
    assert avg_hp > 1e3 * avg_mp


def test_averages_at_oracle_precision(exp_rows):
    rows, _ = exp_rows
    t = evaluator.summarize("exp_kernel", rows)
    assert t.avg["MP"].prec == 256


def test_summarize_rejects_empty():
    with pytest.raises(evaluator.EvaluationError):
        evaluator.summarize("x", [])


def test_evaluate_needs_reference_function():
    k = corpus.get_kernel("round_kernel")
    with pytest.raises(evaluator.EvaluationError):
        evaluator.evaluate(k, corpus.grid("0", "1", 3))
    k2 = corpus.get_kernel("exp_kernel")
    with pytest.raises(evaluator.EvaluationError):
        evaluator.evaluate(k2, [])


def test_infinite_errors_excluded_from_average():
    inf = mp.inf()
    z = mp.zero()
    half = mp.from_decimal_string("0.5", 256)
    rows = [(half, inf, z), (half, half, z)]
    t = evaluator.summarize("synthetic", rows)
    assert t.inf_counts["HP"] == 1
    assert t.avg["HP"].to_float() == 0.5  # the finite sample only
    assert t.avg["OP"].to_float() == 0.5
    assert t.avg["MP"].cls == mp.ZERO


def test_json_report_round_trips(exp_rows):
    rows, skipped = exp_rows
    t = evaluator.summarize("exp_kernel", rows, skipped)
    payload = json.loads(evaluator.report(t, "json"))
    assert payload[0]["kernel"] == "exp_kernel"
    assert payload[0]["rows"] == 60
    assert set(payload[0]["percentages"]) \
        == {"M>=L", "M>L", "M>=H", "M>H", "H>=L", "H>L"}
    assert payload[0]["average_error"]["MP"].endswith(
        tuple("0123456789"))


def test_csv_report(exp_rows):
    rows, skipped = exp_rows
    t = evaluator.summarize("exp_kernel", rows, skipped)
    text = evaluator.report(t, "csv")
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0][0] == "kernel"
    assert parsed[1][0] == "exp_kernel"
    assert len(parsed) == 2


def test_text_report(exp_rows):
    rows, skipped = exp_rows
    t = evaluator.summarize("exp_kernel", rows, skipped)
    text = evaluator.report(t, "text")
    assert "exp_kernel" in text
    assert "avg MP" in text


def test_unknown_format_rejected(exp_rows):
    rows, _ = exp_rows
    t = evaluator.summarize("exp_kernel", rows)
    with pytest.raises(ValueError):
        evaluator.report(t, "yaml")


def test_skipped_counts_domain_errors():
    # ln of a grid crossing zero: negative inputs are skipped
    k = corpus.get_kernel("exp_kernel")
    log_kernel = corpus.Kernel("fake_log", k.source, "log", ("-1", "1", 4))
    xs = corpus.grid("-1", "1", 4)
    rows, skipped = evaluator.evaluate(log_kernel, xs, CFG)
    assert skipped == 3  # -1, -0.5, 0 are outside the log domain
    assert len(rows) == 1


def test_mp_lane_is_the_hp_run_without_barriers(exp_rows):
    """With no barriers the MP error is the HP error object, not a second
    run of the same function on the same row; with barriers it is a run
    of its own."""
    k = corpus.get_kernel("exp_kernel")
    rows, _ = evaluator.evaluate(k, corpus.grid("-1", "1", 5), CFG)
    assert len(rows) == 5
    for _, err_hp, err_mp in rows:
        assert err_mp is err_hp
    assert all(err_mp is not err_hp for _, err_hp, err_mp in exp_rows[0])
