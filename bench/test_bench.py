"""Tests of the benchmark harness: the smoke mode end to end, the refusal to
run without sources, the oracles and the comparison rules."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import oracle
import tracing
from qcusp import modular

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_traced_and_compared(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"correct": True}
    assert "verdict" in proc.stdout
    for side, trace in (("a", 0), ("b", 1)):
        results = [json.loads(p.read_text()) for p in (tmp_path / "smoke" / side).glob("*.json")]
        assert sorted(r["provenance"]["workload"] for r in results) == sorted(w["name"] for w in SPEC["workloads"])
        for r in results:
            assert r["trace"] == trace and r["failed"] == 0 and r["sample_count"] >= 10
            assert set(r["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
            assert {m["name"] for m in SPEC["per_layer"]} <= set(r["per_layer"])
            assert r["probe"]["attempted"] > 0
    assert len(list((tmp_path / "smoke" / "b").glob("*.spans.tsv"))) == len(SPEC["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "modular-int", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_lists_every_per_layer_metric():
    names, _ = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert [m["name"] for m in SPEC["per_layer"]] == list(names)


def test_j_oracle_agrees_with_the_library_and_inverts():
    J = oracle.IntegerJ()
    assert J.j(2)[:4] == list(oracle.J_LEADING)
    assert J.j(60) == modular.j_coefficients(60)
    assert J.reversion(25) == modular.j_inverse_coefficients(25)  # reversion() also checks (1/j)(q(w)) = w


def test_cyclotomic_reduction():
    for p, s in ((2, 4), (3, 2), (5, 1)):
        order = p**s
        phi = oracle.phi_of(p, s)
        assert oracle.reduce_cyclo([0] * order + [1], p, s) == [1] + [0] * (phi - 1)  # x^(p^s) = 1
        cyclo = [1 if i % p ** (s - 1) == 0 else 0 for i in range(phi + 1)]
        assert oracle.reduce_cyclo(cyclo, p, s) == [0] * phi  # Phi_{p^s}(x) = 0


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in a]
    assert compare.verdict(a, faster, list(zip(a, faster)), True, 0.1) == "improved"
    slower = [x * 1.3 for x in a]
    assert compare.verdict(a, slower, list(zip(a, slower)), True, 0.1) == "worse"
    assert compare.verdict(a, a, list(zip(a, a)), True, 0.1) == "no-worse"
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), True, 0.1) == "unresolved"
    assert compare.verdict(a, faster[:3], list(zip(a, faster[:3])), True, 0.1) == "no-worse"  # too few pairs to claim
