"""Tests of the shared JSONL journal format and its torn-tail contract.

The run ledger, the sweep checkpoint and the request journal all read and
append through :mod:`repro.obs.journal`.  A crash mid-append leaves a torn
fragment after the last newline; every later load must skip it and every
later append must cut it off, so no complete record is ever lost or glued
onto the fragment.  A last line that is a whole JSON object without its
newline is a complete record, not a torn one, and is kept.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.journal import append_jsonl, read_jsonl
from repro.runtime.resilience import SweepCheckpoint
from repro.service.admission import RequestJournal
from repro.service.protocol import normalise_request


def _checkpoint_append(path, name):
    SweepCheckpoint.load(path).record(site="chunk", index=0, key=name, digest=name)


def _checkpoint_names(path):
    checkpoint = SweepCheckpoint.load(path)
    return [name for name in ("p0", "p1", "p2") if checkpoint.matches(name, name)]


def _journal_append(path, name):
    RequestJournal(path).accept(
        normalise_request({"command": "transient", "scenario": name})
    )


def _journal_names(path):
    return [request["scenario"] for _, request in RequestJournal(path).pending()]


def _ledger_append(path, name):
    obs.append_record(str(path), obs.make_record(command="sweep", target=name, wall_s=1.0))


def _ledger_names(path):
    return [record["target"] for record in obs.read_ledger(str(path))]


@pytest.mark.parametrize(
    "append, names",
    [
        (_checkpoint_append, _checkpoint_names),
        (_journal_append, _journal_names),
        (_ledger_append, _ledger_names),
    ],
    ids=["checkpoint", "request-journal", "ledger"],
)
def test_torn_tail_survives_reload_append_reload(tmp_path, append, names):
    path = tmp_path / "log.jsonl"
    append(path, "p0")
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "accept", "id": 9, "key": "tor')  # interrupted append
    assert names(path) == ["p0"]
    append(path, "p1")
    append(path, "p2")
    assert names(path) == ["p0", "p1", "p2"]


@pytest.mark.parametrize(
    "append, names",
    [
        (_checkpoint_append, _checkpoint_names),
        (_journal_append, _journal_names),
        (_ledger_append, _ledger_names),
    ],
    ids=["checkpoint", "request-journal", "ledger"],
)
def test_unterminated_complete_last_record_is_kept(tmp_path, append, names):
    """A whole last record that lacks only its newline is not a torn tail."""
    path = tmp_path / "log.jsonl"
    append(path, "p0")
    path.write_bytes(path.read_bytes().rstrip(b"\n"))  # e.g. a hand-edited file
    assert names(path) == ["p0"]
    append(path, "p1")
    assert names(path) == ["p0", "p1"]
    assert path.read_bytes().endswith(b"\n")


def test_unterminated_record_alone_gets_no_second_header(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"schema": "x", "schema_version": 1}', encoding="utf-8")
    assert read_jsonl(path) == [(1, {"schema": "x", "schema_version": 1})]
    append_jsonl(path, [{"n": 1}], header={"schema": "x", "schema_version": 1})
    assert read_jsonl(path) == [(1, {"schema": "x", "schema_version": 1}), (2, {"n": 1})]


def test_torn_header_is_replaced_by_a_fresh_one(tmp_path):
    """A crash inside the very first append leaves a file that starts over."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"schema": "x", "schema_ver', encoding="utf-8")
    assert read_jsonl(path) == []
    append_jsonl(path, [{"n": 1}], header={"schema": "x", "schema_version": 1})
    assert read_jsonl(path) == [(1, {"schema": "x", "schema_version": 1}), (2, {"n": 1})]


def test_non_object_line_is_a_value_error(tmp_path):
    path = tmp_path / "checkpoint.jsonl"
    _checkpoint_append(path, "p0")
    with path.open("a", encoding="utf-8") as handle:
        handle.write("[1, 2]\n")
    with pytest.raises(ValueError, match=":3: not a JSON object"):
        SweepCheckpoint.load(path)
