"""Smoke test of the federation benchmark: every workload and both modes, tiny sizes.

Runs ``run.py --smoke`` as a user would (fresh processes) and checks the
contract other tools rely on: every name in ``BENCHMARK.json`` is printed
with its unit, no operation fails, the byte counts repeat exactly, and the
layer trace degrades to ``null`` + warning when a traced symbol disappears.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
MANIFEST = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}


def smoke(tmp_path: Path, *arguments: str) -> tuple[str, list[dict]]:
    """``(stdout, result documents)`` of one ``run.py --smoke`` invocation."""
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--json", str(out), *arguments],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout, json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, list[dict]]:
    return smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, list[dict]]:
    return smoke(tmp_path_factory.mktemp("traced"), "--trace", "1")


def gate_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_manifest_matches_the_code() -> None:
    assert MANIFEST["command"] == ["python3", "benchmarks/federation/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/federation"]
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS == workloads.REFERENCE_SECONDS
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    code_end_to_end = {
        n: (m.unit, m.better, m.gate) for n, m in run.END_TO_END.items() if n != "write_p50_ms"
    }
    assert {n: (m["unit"], m["better"], m["bound"]) for n, m in END_TO_END.items()} == (
        code_end_to_end
    )
    assert all(m.ceiling <= m.gate <= 0.25 for m in run.END_TO_END.values())
    code_per_layer = {
        name: spec[:2]
        for table in (layers.SPAN_METRICS, layers.COUNTER_METRICS)
        for name, spec in table.items()
    }
    assert {n: (m["unit"], m["better"]) for n, m in PER_LAYER.items()} == code_per_layer
    for name in [*END_TO_END, *PER_LAYER, *workloads.WORKLOADS]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_every_manifest_metric_is_printed_with_its_unit(
    mode: str, request: pytest.FixtureRequest
) -> None:
    stdout, documents = request.getfixturevalue(mode)
    expected = END_TO_END if mode == "untraced" else PER_LAYER
    lines = gate_lines(stdout)
    assert [d["workload"] for d in documents] == list(workloads.WORKLOADS)
    assert len(lines) == len(documents)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(expected)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == expected[name]["unit"]
            assert isinstance(metric["value"], (int, float))
    for name, metric in expected.items():
        # ... and in the report a person reads: name, value, unit.
        printed = re.findall(
            rf"^ +{re.escape(name)} +\S+ +{re.escape(metric['unit'])}\b", stdout, flags=re.M
        )
        assert len(printed) == len(documents), name


def test_no_operation_fails_and_answers_are_verified(
    untraced: tuple[str, list[dict]], traced: tuple[str, list[dict]]
) -> None:
    for document in [*untraced[1], *traced[1]]:
        assert document["correct"] and document["failed"] == 0, document["workload"]
        assert document["verified_queries"] >= 5
        if not document["sizes"]["writes_per_pass"]:
            assert len(set(document["checksums"])) == 1  # read-only passes agree


def test_end_to_end_values_are_never_zero(untraced: tuple[str, list[dict]]) -> None:
    for line in gate_lines(untraced[0]):
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_write_latency_is_reported_on_churn_only(untraced: tuple[str, list[dict]]) -> None:
    reporting = [d["workload"] for d in untraced[1] if "write_p50_ms" in d["metrics"]]
    assert reporting == ["churn-mixed"]
    assert untraced[1][-1]["metrics"]["write_p50_ms"] > 0


def test_every_traced_symbol_resolves_on_this_tree(traced: tuple[str, list[dict]]) -> None:
    assert layers.unresolved_symbols() == []
    for document in traced[1]:
        assert document["warnings"] == []
        assert None not in document["metrics"].values()
        assert document["cpu_shares"]


def test_byte_counts_and_answers_repeat_exactly(
    untraced: tuple[str, list[dict]], tmp_path: Path
) -> None:
    first = untraced[1][-1]
    _, (second,) = smoke(tmp_path, "--workload", first["workload"])  # churn-mixed: writes too
    assert first["metrics"]["bytes_per_query"] == second["metrics"]["bytes_per_query"]
    assert first["checksums"] == second["checksums"]


def test_a_vanished_symbol_nulls_its_layer_and_warns(monkeypatch: pytest.MonkeyPatch) -> None:
    symbols = dict(layers.TRACED_SYMBOLS)
    symbols["channel.send"] = ("repro.distributed.channel.SimulatedChannel.renamed_away",)
    monkeypatch.setattr(layers, "TRACED_SYMBOLS", symbols)
    recorder = layers.Recorder()
    recorder.install()
    recorder.uninstall()
    assert list(recorder.unresolved) == ["channel.send"]
    metrics = layers.span_metrics(recorder, queries=1)
    assert metrics["channel.send_cpu_ms"] is None and metrics["channel.ns_per_byte"] is None
    assert metrics["overlap.search_cpu_ms"] == 0.0  # other layers still measured
    document = {"correct": True, "attempted": 1, "failed": 0, "trace": True, "metrics": metrics}
    gate = json.loads(run.gate_line(document))  # the gate line stays all numbers
    assert gate["metrics"]["channel.send_cpu_ms"]["value"] == 0.0


def test_wrappers_are_removed_after_a_trace() -> None:
    from repro.distributed.channel import SimulatedChannel
    from repro.index.dits import DITSLocalIndex

    before = (SimulatedChannel.send, DITSLocalIndex.build, "build" in vars(DITSLocalIndex))
    recorder = layers.Recorder()
    recorder.install()
    assert SimulatedChannel.send is not before[0]
    recorder.uninstall()
    assert (SimulatedChannel.send, DITSLocalIndex.build, "build" in vars(DITSLocalIndex)) == before


@pytest.mark.parametrize(
    ("base", "change", "better", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.2], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 12.0, 8.0, 11.0], [11.0, 13.0, 9.0, 12.0], "lower", "unresolved"),
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "higher", "worse"),
        ([10.0], [10.5], "lower", "same"),
    ],
)
def test_compare_verdicts(base: list, change: list, better: str, expected: str) -> None:
    assert run.verdict(base, change, better, bound=0.10)[2] == expected


def test_compare_of_a_file_with_itself_passes(
    untraced: tuple[str, list[dict]], tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"runs": untraced[1]}))
    assert run.main(["compare", str(path), str(path)]) == 0
    table = capsys.readouterr().out
    assert "write_p50_ms" in table and "worse" not in table.replace("worsening", "")
    assert table.count("result checksums agree") == len(workloads.WORKLOADS)


def test_compare_fails_past_the_ceiling_and_refuses_other_inputs(
    untraced: tuple[str, list[dict]], tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    def written(name: str, runs: list[dict]) -> str:
        (tmp_path / name).write_text(json.dumps({"runs": runs}))
        return str(tmp_path / name)

    base = written("a.json", untraced[1])
    slower = copy.deepcopy(untraced[1])
    slower[0]["metrics"]["query_p50_ms"] *= 1.12  # ceiling 10 %, gate bound 25 %
    assert run.main(["compare", base, written("slower.json", slower)]) == 1
    assert capsys.readouterr().out.replace("worsening", "").count("worse") == 1
    for key, holder in (("seed", lambda r: r), ("warm_passes", lambda r: r["sizes"])):
        other = copy.deepcopy(untraced[1])
        holder(other[1])[key] += 1
        assert run.main(["compare", base, written("other.json", other)]) == 2
        assert f"NOT COMPARED: the runs differ in {key}" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """Only ``BENCHMARK.json`` and the benchmark's own files: non-zero, no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "benchmarks" / "federation",
        ignore=shutil.ignore_patterns(".cache", "__pycache__"),
    )
    # Whether a copy of the package is installed or on PYTHONPATH must not
    # matter: the benchmark measures the checkout it stands in.
    done = subprocess.run(
        [sys.executable, "benchmarks/federation/run.py", "--workload", "ojsp-portals", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert "nothing to measure" in done.stderr
    assert gate_lines(done.stdout) == []
