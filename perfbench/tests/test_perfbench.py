"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (WORKLOADS, CertificateLedger, check_certificate,  # noqa: E402
                       pass_order)

LOCUS_P5 = ("locus", "--S", "3", "--p", "5")


def test_self_time_of_nested_spans():
    spans = [
        ("cli.command", 0.0, 10.0, -1),
        ("loci.roots", 1.0, 4.0, 0),
        ("loci.roots", 2.0, 3.0, 1),     # recursion: nested span of the same name
        ("polylog.disk_table", 5.0, 9.0, 0),
        ("loci.other", 9.0, 9.5, 0),     # catch-all: reported, never covered
        ("cli.emit", 10.0, 10.5, -1),
    ]
    assert tracer.self_times(spans) == [2.5, 2.0, 1.0, 4.0, 0.5, 0.5]
    record = {"wall": 11.0, "spans": spans, "counts": {"padic.mul_ops": 7}}
    metrics, fired = tracer.layer_metrics([record, record])
    assert metrics["cli.command_self_s"] == 5.0
    assert metrics["loci.other_s"] == 1.0
    assert metrics["loci.roots_s"] == 6.0
    assert metrics["loci.root_searches"] == 4
    assert metrics["polylog.disk_table_calls"] == 2
    assert metrics["padic.mul_ops"] == 14
    # of each 11 s, the handler's own 2.5 s, the 0.5 s of loci.other and
    # the 0.5 s outside any span are not attributed to a layer
    assert metrics["trace.coverage"] == pytest.approx(7.5 / 11.0)
    assert fired == {"cli.command", "loci.roots", "polylog.disk_table", "loci.other",
                     "cli.emit"}
    assert set(metrics) == set(tracer.PER_LAYER) - {"trace.overhead_s"}


def test_series_sizes_merge_by_max():
    recs = [{"wall": 1.0, "spans": [], "counts": {"polylog.series_degree_max": d}}
            for d in (426, 2034, 300)]
    metrics, _ = tracer.layer_metrics(recs)
    assert metrics["polylog.series_degree_max"] == 2034


def _locus_doc(guesses, certified=True):
    return json.dumps({"zeros": [{"rationalGuess": g, "certified": certified}
                                 for g in guesses]}).encode()


def test_content_checks():
    assert check_certificate(LOCUS_P5, 0, _locus_doc(["-1/1"])) is None
    assert "zeros" in check_certificate(LOCUS_P5, 0, _locus_doc(["-1/1", "2/1"]))
    assert "uncertified" in check_certificate(LOCUS_P5, 0, _locus_doc(["-1/1"], False))
    assert "exit status" in check_certificate(LOCUS_P5, 1, _locus_doc(["-1/1"]))
    assert "not JSON" in check_certificate(LOCUS_P5, 0, b"{")
    sym = ("locus", "--S", "3", "--p", "7", "--symmetrize")
    assert check_certificate(sym, 0, _locus_doc([])) is None
    s2 = ("locus", "--S", "2", "--p", "5")
    assert check_certificate(s2, 0, _locus_doc(["1/2", "-1/1", "2/1"])) is None
    verify = json.dumps({"suites": {"hopf": [{"check": "x", "passed": False}]}}).encode()
    assert "failed rows" in check_certificate(("verify", "hopf"), 0, verify)


def test_certificate_must_repeat_byte_for_byte():
    ledger = CertificateLedger()
    doc = _locus_doc(["-1/1"])
    assert ledger.check(LOCUS_P5, 0, doc) is None
    assert ledger.check(LOCUS_P5, 0, doc) is None
    # same content, other bytes
    assert "differs" in ledger.check(LOCUS_P5, 0, doc.replace(b": [", b":  ["))


def test_tampered_certificate_is_counted_failed(tmp_path):
    ledger = CertificateLedger()
    # a first certificate with one digit changed: the real one must not match it
    real = run.run_command(LOCUS_P5, run.child_env(), tmp_path, CertificateLedger())
    assert real.failure is None
    ledger.first[LOCUS_P5] = real.stdout.replace(b"4,", b"3,", 1)
    runs, _, _ = run.run_pass([LOCUS_P5], run.child_env(), tmp_path, ledger)
    assert [r.failure for r in runs] == ["certificate differs from its first run"]


def test_seed_permutes_order_but_never_the_set():
    for wl in WORKLOADS.values():
        orders = set()
        for seed in range(20):
            order = pass_order(wl.commands, random.Random(seed))
            assert sorted(order) == sorted(wl.commands)
            assert order == pass_order(wl.commands, random.Random(seed))
            orders.add(tuple(order))
        assert len(orders) > 1


def test_child_environment_is_cold_and_writes_no_bytecode(monkeypatch, tmp_path):
    monkeypatch.setenv("CKPOLYLOG_CACHE", str(tmp_path))
    env = run.child_env()
    assert "CKPOLYLOG_CACHE" not in env
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"


def test_traced_counts_repeat_exactly(tmp_path):
    commands = [("locus", "--S", "3", "--p", "7"), LOCUS_P5]
    keys = ("padic.mul_ops", "padic.add_ops", "padic.div_ops",
            "polylog.series_degree_max", "loci.disks_scanned")
    seen = []
    for _ in range(2):
        ledger = CertificateLedger()
        runs, _, records = run.run_pass(commands, run.child_env(), tmp_path, ledger,
                                        traced=True)
        assert [r.failure for r in runs] == [None, None]
        metrics, _ = tracer.layer_metrics(records)
        seen.append({k: metrics[k] for k in keys})
    assert seen[0] == seen[1]
    assert all(seen[0][k] > 0 for k in keys)
    assert seen[0]["loci.disks_scanned"] == 2 * (7 - 2) + 2 * (5 - 2)


def test_traced_certificate_equals_untraced(tmp_path):
    ledger = CertificateLedger()
    plain = run.run_command(LOCUS_P5, run.child_env(), tmp_path, ledger)
    traced = run.run_command(LOCUS_P5, run.child_env(), tmp_path, ledger,
                             spans_file=tmp_path / "spans.json")
    assert plain.failure is None and traced.failure is None
    assert plain.stdout == traced.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
