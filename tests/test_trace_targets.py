"""The benchmark's traced pass must find every name it wraps.

perfbench/tracer.py wraps its SPAN_TARGETS and COUNT_TARGETS by module
attribute, and a traced pass exits 3 when an expected span never fires.  A
rename or a move in src/ must therefore keep every target resolving, and
every span a workload expects must be one the tracer installs.  Both files
are loaded by path and left unchanged.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckpolylog.galois as galois

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH, SRC = ROOT / "perfbench", ROOT / "src"


def _load(name):
    """Import perfbench/NAME.py under another name, writing no bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name,short,path", tracer.SPAN_TARGETS + tracer.COUNT_TARGETS)
def test_trace_target_resolves(name, short, path):
    module = importlib.import_module("ckpolylog." + short)
    owner, attr, fn = tracer._resolve(module, path)
    assert callable(fn), (name, short, path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_expected_spans_are_installed(workload):
    # galois.resolve wraps the closure numeric_primitive_resolver returns
    installed = {name for name, _, _ in tracer.SPAN_TARGETS} | {"galois.resolve"}
    missing = set(workloads.WORKLOADS[workload].expected_spans) - installed
    assert not missing, missing


def test_every_tabled_builder_is_a_table_build_target():
    # the builders are looked up by name, so the wrapped module attribute runs
    targets = {path for name, short, path in tracer.SPAN_TARGETS
               if (name, short) == ("galois.table_build", "galois")}
    assert set(galois.TABLED.values()) <= targets


def _fired_spans(tmp_path, *argv):
    """The span names a traced run of one command fires."""
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    run = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans_file), "0",
                          "--"] + list(argv), capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return {span[0] for span in json.loads(spans_file.read_text())["spans"]}


def test_traced_ideal_fires_the_table_spans(tmp_path):
    # what a traced certify-small pass needs of `ideal`: cli.main dispatches
    # to the wrapped cmd_ideal, and the builder and the resolver run wrapped,
    # so their spans fire
    fired = _fired_spans(tmp_path, "ideal", "--S", "2")
    assert {"cli.command", "galois.table_build", "galois.resolve",
            "galois.f_sigma_tau"} <= fired


def test_traced_verify_hopf_fires_the_coproduct_spans(tmp_path):
    # the tables no longer take Goncharov's coproduct; verify hopf checks their
    # rows against it, so a traced certify-small pass still sees these spans
    fired = _fired_spans(tmp_path, "verify", "hopf", "--p", "5")
    assert {"symbols.reduced_coproduct", "words.cobar_square", "galois.table_build"} <= fired


def test_traced_locus_fires_the_locus_spans(tmp_path):
    # what a traced locus-large-p pass needs, on its smallest prime's command
    fired = _fired_spans(tmp_path, "locus", "--S", "3", "--p", "5")
    assert set(workloads.WORKLOADS["locus-large-p"].expected_spans) <= fired
