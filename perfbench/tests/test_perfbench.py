"""Fast tests of the benchmark itself: oracle tables, smoke-size workloads,
traced/untraced agreement and repeatable per-layer counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle as o  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Malformed CLI inputs that the library mishandles today, per query-mix block.
KNOWN_FAULTS_PER_BLOCK = (sum(1 for _, fault in workloads.MALFORMED if fault)
                          * workloads.PER_KIND // len(workloads.MALFORMED))


def worker(workload, trace, hash_seed="0", seed=5):
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_textbook_weyl_orders():
    assert o.weyl_order(o.EXPONENTS["F4"]) == 1152
    assert o.weyl_order(o.EXPONENTS["D4"]) == 192
    assert sum(o.poincare(o.EXPONENTS["F4"])) == 1152


def test_affine_a2_ball_sizes():
    assert o.bott_series(o.EXPONENTS["A2"], 4) == [1, 3, 6, 9, 12]


@pytest.mark.parametrize("label", sorted(o.CARTAN))
def test_exponents_match_root_heights(label):
    rs = o.system(label)
    assert rs.exponents(rs.index_set) == o.EXPONENTS[label]
    assert 2 * sum(o.EXPONENTS[label]) == len(rs.roots)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_bott_series_matches_oracle_bfs(label):
    J = o.system(label).index_set
    sizes = Counter(length for length, _ in o.affine_bfs(label, J, 4).values())
    assert [sizes[k] for k in range(5)] == o.bott_series(o.EXPONENTS[label], 4)


def test_predicted_counts_of_acceptance_bounds():
    bounds = dict(workloads.ACCEPTANCE)
    assert o.predicted_checks("length", **bounds["length"]) == 134
    assert o.predicted_checks("roundtrip", **bounds["roundtrip"]) == 124
    assert o.predicted_checks("diagram", **bounds["diagram"]) == 66
    assert o.predicted_checks("four-cases", **bounds["four-cases"]) == 66


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_workload_is_correct(workload):
    result = worker(workload, trace=0)
    assert result["correct"], result["errors"]
    assert result["attempted"] > 0
    blocks = workloads.SMOKE_BLOCKS if workload == "query-mix" else 0
    assert result["failed"] == blocks * KNOWN_FAULTS_PER_BLOCK


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_agree(workload):
    plain, traced = worker(workload, trace=0), worker(workload, trace=1)
    assert traced["correct"], traced["errors"]
    for key in ("digest", "attempted", "failed", "kinds"):
        assert plain[key] == traced[key]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_counts_repeat(workload):
    first, second = worker(workload, 1, hash_seed="0"), worker(workload, 1, hash_seed="1")
    counts = [m for m in run.PER_LAYER_METRICS if not m.endswith("self_s")]
    assert {m: first["layers"][m] for m in counts} == {m: second["layers"][m] for m in counts}


def test_equality_tests_are_not_counted():
    # Dict and set lookups compare elements once per hash collision, so
    # anything counted inside __eq__ would vary with PYTHONHASHSEED.
    sys.path.insert(0, str(ROOT / "src"))
    import weylwords as ww
    import weylwords.cli  # noqa: F401  (install() wraps every layer)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(ww)
    x = ww.affine_identity(ww.build_root_system("A2"))
    y = ww.affine_identity(ww.build_root_system("A2"))
    before = list(tracer.calls)
    assert x == y
    assert tracer.calls == before


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER_METRICS
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_run_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_outside_a_checkout():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
