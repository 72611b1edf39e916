"""Fast tests of the benchmark itself, at smoke sizes.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from adjkit import cli, factor, identities, specialize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert set(run.NAMES) == set(workloads.WORKLOADS)
    assert units(SPEC["end_to_end"]) == run.END_TO_END_UNITS
    layer = {k: u for k, (_, u) in layers.Tracer().layer_metrics().items()}
    layer.update({"trace.overhead_frac": "ratio", "trace.coverage": "ratio"})
    assert units(SPEC["per_layer"]) == layer


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_end_to_end(name):
    out = result(bench("--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", ["n4-requests", "modp-n10"])
def test_smoke_traced(name):
    out = result(bench("--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["per_layer"])
    assert metrics["trace.coverage"]["value"] >= run.MIN_COVERAGE
    kernel_calls = sum(v["value"] for k, v in metrics.items()
                       if k.startswith("kernels.") and k.endswith(".calls"))
    if name == "modp-n10":
        assert kernel_calls == 0
    else:
        assert kernel_calls > 0 and metrics["cli.main.self_s"]["value"] > 0


def test_perturbed_quotient_is_counted_as_failed():
    class Perturbed(workloads.N5Sandwich):
        def run(self, alt):
            q = super().run(alt)
            q.entries[1] = q.entries[1] + 1
            return q

    good = run.measure(workloads.N5Sandwich(5, smoke=True), 0)
    bad = run.measure(Perturbed(5, smoke=True), 0)
    assert good["failed"] == 0
    assert bad["failed"] / bad["attempted"] > 0


def test_passing_negative_control_is_counted_as_failed():
    class Lenient(workloads.ModpN10):
        def run(self, op):
            report = super().run(op)
            return dict(report, passed=True)

    out = run.measure(Lenient(5, smoke=True), 0)
    assert out["failed"] == out["attempted"] // len(workloads.MODP_IDENTITIES)


def test_wrong_exit_code_or_output_is_a_failure():
    wl = workloads.N4Requests(5, smoke=True)
    index, op = next((i, op) for i, op in enumerate(wl.ops) if op[0][0] == "gen")
    code, out = wl.run(op)
    assert wl.check(index, op, (code, out))[0]
    assert not wl.check(index, op, (1, out))[0]
    assert not wl.check(index, op, (code, out.replace("x_1_1", "x_1_2", 1)))[0]


def test_nondeterministic_output_is_a_failure():
    class Drifting(workloads.ModpN10):
        calls = 0

        def run(self, op):
            self.calls += 1
            return dict(super().run(op), nonce=self.calls)

    wl = Drifting(5, smoke=True)
    once = len(wl.ops)
    wl.ops = wl.ops * 2
    out = run.measure(wl, 0)
    assert out["failed"] == once


def test_tracer_restores_every_binding():
    before = (cli.main, cli.factor_right, identities.compound_det_check,
              factor.GenericContext.__init__, specialize.sz_check)
    with layers.Tracer() as tracer:
        assert cli.factor_right is not before[1]
        assert cli.factor_right is factor.factor_right
        ctx = factor.GenericContext(2)
        muls = tracer.stats["polyring.mul"][0]
        assert ctx.detX * ctx.detX == ctx.detX.__rmul__(ctx.detX)
    after = (cli.main, cli.factor_right, identities.compound_det_check,
             factor.GenericContext.__init__, specialize.sz_check)
    assert after == before
    assert tracer.fired("factor.context")
    assert tracer.stats["polyring.mul"][0] == muls + 2


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "n4-requests", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
