"""A/B the end-to-end benchmark between two checkouts, in alternating pairs.

    python scripts/ab_perfbench.py BASE HEAD --workload dse_grid \\
        --seeds 1 2 3 4 5 6 --seconds 6

For each seed, runs ``perfbench/run.py --trace 0`` once in BASE and once in
HEAD (each a checkout directory holding ``perfbench/`` and ``src/``), so
host drift falls on both sides of every pair alike.  The side that runs
first alternates: BASE first on even pair indices (the first seed is pair
0), HEAD first on odd ones, so a warm-up or a drift within a pair does not
favour one side; each run's line names its order.  It then prints one row per
end-to-end metric: the median and quartiles on each side, the change of
the medians, and on how many pairs HEAD was strictly better (the direction
comes from HEAD's ``BENCHMARK.json``).  The exit code is 1 when any run
reads ``correct: false`` or fails to report, else 0.

``setup_s`` times fresh interpreters, so before the first pair both
checkouts' ``src/`` and ``perfbench/`` are byte-compiled with ``python -m
compileall -q`` (with ``PYTHONDONTWRITEBYTECODE`` removed from that
command's environment, since it would leave nothing written): a stale or
missing bytecode cache on one side shows up as a setup difference.

``--no-compile`` measures the other condition, a checkout that has no
bytecode cache and writes none: it skips the compile step, runs every
side with ``PYTHONDONTWRITEBYTECODE=1``, and warns when either checkout
already holds a ``__pycache__`` under ``src/`` or ``perfbench/`` (remove
it, or A/B two fresh copies, for a like-for-like ``setup_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "head")


def compile_checkout(checkout: Path) -> None:
    """Write fresh bytecode for a checkout's ``src/`` and ``perfbench/``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    subprocess.run(command, cwd=checkout, env=env, check=True)


def holds_bytecode(checkout: Path) -> bool:
    """Whether a checkout's ``src/`` or ``perfbench/`` holds a ``__pycache__``."""
    return any(any((checkout / top).rglob("__pycache__")) for top in ("src", "perfbench"))


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, env: dict[str, str] | None = None
) -> dict | None:
    """One untraced perfbench run; its final JSON line, or None."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(done.stderr[-2000:], file=sys.stderr)
        return None


def directions(checkout: Path) -> dict[str, str]:
    """``metric -> "lower" | "higher"`` for the end-to-end metrics."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """The comparison table, one markdown row per metric."""
    rows = [
        "| metric | base median [q1, q3] | head median [q1, q3] | change | head better |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, direction in better.items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        if not all(values[side] for side in SIDES):
            continue
        spread = {side: quartiles(values[side]) for side in SIDES}
        cells = [f"{median:.4g} [{q1:.4g}, {q3:.4g}]" for q1, median, q3 in spread.values()]
        base_median, head_median = spread["base"][1], spread["head"][1]
        change = (head_median - base_median) / base_median * 100 if base_median else 0.0
        sign = -1 if direction == "lower" else 1
        wins = sum(
            sign * (head - base) > 0 for base, head in zip(values["base"], values["head"])
        )
        rows.append(
            f"| {name} | {cells[0]} | {cells[1]} | {change:+.1f}% | "
            f"{wins}/{len(values['head'])} |"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout measured first in even pairs")
    parser.add_argument("head", type=Path, help="checkout measured first in odd pairs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument(
        "--no-compile", action="store_true",
        help="skip byte-compiling; run both sides with PYTHONDONTWRITEBYTECODE=1",
    )
    args = parser.parse_args(argv)

    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    env = None
    if args.no_compile:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        for side, checkout in checkouts.items():
            if holds_bytecode(checkout):
                print(
                    f"warning: --no-compile, but the {side} checkout {checkout} holds a "
                    "__pycache__ under src/ or perfbench/: its setup_s reads that bytecode",
                    file=sys.stderr,
                )
    else:
        for checkout in checkouts.values():
            compile_checkout(checkout)
    ok = True
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for turn, side in enumerate(order, 1):
            result = run_once(checkouts[side], args.workload, seed, args.seconds, env)
            if result is None or not result.get("correct"):
                print(f"{side} seed {seed}: run failed or read correct: false", file=sys.stderr)
                ok = False
                continue
            runs[side].append(result)
            print(
                f"seed {seed} {side} (run {turn} of the pair): "
                f"wall_s {result['metrics']['wall_s']['value']:.4f}",
                file=sys.stderr,
            )
    if ok:
        condition = "no bytecode cache" if args.no_compile else "byte-compiled"
        print(
            f"{args.workload}: {len(args.seeds)} pairs, --seconds {args.seconds:g}, {condition}"
        )
        print("\n".join(summarize(runs, directions(checkouts["head"]))))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
