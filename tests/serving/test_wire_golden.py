"""The wire, pinned: a scripted server transcript and a serve-replay
compare record for record with the goldens under ``tests/golden/``
(see :mod:`tests.serving.wire_golden` for the comparison rule)."""

from __future__ import annotations

import pytest

from repro._env import REGISTERED_ENV_VARS
from repro.cli import main as repro_main
from tests.serving import wire_golden


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # The goldens hold the default engine, executor and cache settings.
    for name in REGISTERED_ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def assert_matches(actual, golden_path):
    diffs = list(wire_golden.differences(actual, wire_golden.read_jsonl(golden_path)))
    assert not diffs, "\n".join(diffs[:5])


def test_server_transcript_matches_golden():
    assert_matches(wire_golden.run_transcript(), wire_golden.TRANSCRIPT_GOLDEN)


def test_serve_replay_matches_golden(tmp_path, capsys):
    out = tmp_path / "replay.jsonl"
    assert repro_main([*wire_golden.REPLAY_ARGS, "--output", str(out)]) == 0
    assert_matches(wire_golden.read_jsonl(out), wire_golden.REPLAY_GOLDEN)


def test_comparison_rule():
    golden = [{"model": "quadratic", "n": 3, "sse": 0.1234567890123}]
    last_bits = [{"model": "quadratic", "n": 3, "sse": 0.1234567890124}]
    assert not list(wire_golden.differences(last_bits, golden))
    for changed in (
        {"model": "quadratic", "n": 3, "sse": 0.12345},
        {"model": "quadratic", "n": 3.0, "sse": 0.1234567890123},
        {"model": "wei-exp", "n": 3, "sse": 0.1234567890123},
        {"model": "quadratic", "sse": 0.1234567890123},
    ):
        assert list(wire_golden.differences([changed], golden)), changed
    assert list(wire_golden.differences([], golden))


def test_compare_cli_exit_codes(tmp_path, capsys):
    golden = str(wire_golden.REPLAY_GOLDEN)
    actual = tmp_path / "replay.jsonl"
    records = wire_golden.read_jsonl(golden)
    wire_golden.write_jsonl(actual, records)
    assert wire_golden.main(["compare", str(actual), golden]) == 0
    records[0]["model"] = "competing_risks"
    wire_golden.write_jsonl(actual, records)
    assert wire_golden.main(["compare", str(actual), golden]) == 1
