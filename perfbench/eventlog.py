"""Executor-side layer metrics from a Spark event log.

The traced run enables ``spark.eventLog`` into a local directory (the UI
and REST API stay off). Each traced wrapper tags its Spark jobs with the
description ``"<layer> call=<id>"``; this module maps every stage to the
description of the job that ran it and collects the per-task metrics the
benchmark reports: executor run time, shuffle bytes written and result
size.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def read_tasks(path: Path) -> dict[str, dict[int, list[dict]]]:
    """``{job description: {stage id: [task metrics]}}`` for successful
    tasks of described jobs, from the finished (no longer ``.inprogress``),
    uncompressed, unrolled log at ``path``."""
    stage_desc: dict[int, str] = {}
    tasks: dict[int, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                desc = (ev.get("Properties") or {}).get("spark.job.description")
                if desc:
                    for sid in ev["Stage IDs"]:
                        stage_desc.setdefault(sid, desc)
            elif kind == "SparkListenerTaskEnd":
                if ev.get("Task End Reason", {}).get("Reason") != "Success":
                    continue
                tm = ev.get("Task Metrics") or {}
                tasks[ev["Stage ID"]].append({
                    "run_s": tm.get("Executor Run Time", 0) / 1000.0,
                    "shuffle_write_bytes": (
                        tm.get("Shuffle Write Metrics") or {}
                    ).get("Shuffle Bytes Written", 0),
                    "result_bytes": tm.get("Result Size", 0),
                })
    out: dict[str, dict[int, list[dict]]] = defaultdict(dict)
    for sid, desc in stage_desc.items():
        if sid in tasks:
            out[desc][sid] = tasks[sid]
    return dict(out)


def layer_metrics(tasks: dict[str, dict[int, list[dict]]], call: int) -> dict:
    """Round-1 and evaluate stage metrics of one traced call. The round-1
    reducers are the job's last stage (GMM per partition); the stage
    before it writes the shuffle."""
    m: dict[str, float] = {}
    r1 = tasks.get(f"mapreduce.round1 call={call}", {})
    if r1:
        reducers = r1[max(r1)]
        run = [t["run_s"] for t in reducers]
        m["mapreduce.round1.task_s_max"] = max(run)
        m["mapreduce.round1.task_s_median"] = statistics.median(run)
        m["mapreduce.round1.result_bytes"] = sum(
            t["result_bytes"] for t in reducers
        )
        m["mapreduce.round1.shuffle_write_bytes"] = sum(
            t["shuffle_write_bytes"] for ts in r1.values() for t in ts
        )
    ev = tasks.get(f"mapreduce.evaluate call={call}", {})
    if ev:
        m["mapreduce.evaluate.task_s_max"] = max(
            t["run_s"] for ts in ev.values() for t in ts
        )
    return m
