#!/usr/bin/env python3
"""End-to-end benchmark: three output-checked workloads, timed from outside.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all workloads, seed 0
    python3 benchmarks/e2e/run.py --workload serve_mix --seed 3 --seconds 10
    python3 benchmarks/e2e/run.py --trace               # per-layer metrics
    python3 benchmarks/e2e/run.py --out results/A       # keep result files
    python3 benchmarks/e2e/run.py compare results/A results/B

Every measured run is a child process (``child.py``), started one after
another: a closed loop with one client, no ``--jobs``, and ``REPRO_*``
variables removed from the environment. A workload repeats its child
at least ``MIN_REPS`` times and until about ``--seconds`` have passed,
then reports medians. Wall times are scaled to a reference host speed
measured alongside them (see ``scaled_walls``). The outputs of every
child are checked (see ``README.md``), and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The metric names, units and regression
bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED_DIR = HERE / "expected"
#: Scratch space for caches, exports and child results: inside the
#: checkout (the benchmark writes nowhere else), removed at exit.
SCRATCH_PARENT = ROOT / ".bench_e2e"

#: Every run starts at least this many children (untraced and traced
#: together), however short --seconds is.
MIN_REPS = 4
#: Time of ``child.reference_loop`` at the reference speed. It is about
#: the loop's fastest time on an idle 2.1 GHz Xeon VM, so a scaled wall
#: time there reads about as the wall time of an undisturbed run.
REFERENCE_S = 0.006
#: A run must end well inside three minutes, whatever --seconds says.
RUN_BUDGET_S = 170.0
MAX_REPS = 50

FIG7 = ("--experiment", "fig7", "--quick")
FIG7_SMOKE = FIG7 + ("--n-keys", "4000", "--n-lookups", "30", "--warmup", "20",
                     "--max-configs", "2")
_FIG9 = (
    "--experiment", "fig9", "--n-lookups", "100", "--warmup", "50",
    "--max-configs", "4",
    "--indexes", "RMI", "PGM", "RS", "ART", "BTree", "RobinHash",
    "--no-cache",
)
BUILD_SCALING = _FIG9 + ("--n-keys", "30000")
BUILD_SCALING_SMOKE = _FIG9 + ("--n-keys", "10000")


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli" (python -m repro.bench) or "serve_mix" (library)
    argv: Tuple[str, ...] = ()
    smoke_argv: Tuple[str, ...] = ()
    #: Entry of expected/seed<N>.json holding this workload's digests.
    expected_key: str = ""


WORKLOADS: Dict[str, Workload] = {
    "fig7_cold": Workload("cli", FIG7, FIG7_SMOKE, "fig7"),
    "build_scaling": Workload(
        "cli", BUILD_SCALING, BUILD_SCALING_SMOKE, "build_scaling"
    ),
    "serve_mix": Workload("serve_mix", expected_key="serve_mix"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- child processes ----------------------------------------------------------


@dataclass
class ChildRun:
    """One finished child: its report plus what the kernel says it used."""

    result: Optional[dict]
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout_path: Path
    export_path: Path
    stderr_tail: str = ""

    @property
    def wall_s(self) -> float:
        return self.result["wall_s"]


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


class Session:
    """One invocation's scratch directory, seed, size and deadline."""

    def __init__(self, scratch: Path, seed: int, smoke: bool, deadline: float):
        self.scratch = scratch
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self._n = 0

    def spawn(
        self,
        wl: Workload,
        cli_args: Tuple[str, ...] = (),
        trace: bool = False,
        spans: Optional[Path] = None,
    ) -> ChildRun:
        self._n += 1
        tag = f"{self._n:03d}"
        result_path = self.scratch / f"result-{tag}.json"
        stdout_path = self.scratch / f"stdout-{tag}.txt"
        stderr_path = self.scratch / f"stderr-{tag}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               "--kind", wl.kind, "--seed", str(self.seed),
               "--stdout", str(stdout_path)]
        if self.smoke:
            cmd.append("--smoke")
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *cli_args]
        status, usage, started = self._wait(cmd, stderr_path)
        result = None
        if status == 0 and result_path.exists():
            with open(result_path) as f:
                result = json.load(f)
        tail = ""
        if result is None or result.get("error"):
            tail = "\n".join(stderr_path.read_text().splitlines()[-20:])
            if result is not None:
                tail += "\n" + result["error"]
        export = Path(cli_args[cli_args.index("--save-measurements") + 1]) \
            if "--save-measurements" in cli_args else self.scratch / "none"
        return ChildRun(
            result=result,
            setup_s=(result["setup_done"] - started) if result else 0.0,
            # Linux reports ru_maxrss in KiB.
            peak_rss_mb=usage.ru_maxrss / 1024.0 if usage else 0.0,
            cpu_s=(usage.ru_utime + usage.ru_stime) if usage else 0.0,
            stdout_path=stdout_path,
            export_path=export,
            stderr_tail=tail,
        )

    def _wait(self, cmd, stderr_path):
        """Run ``cmd``; return (exit status, rusage, spawn time).

        ``os.wait4`` gives this child's own peak RSS and CPU time
        (``RUSAGE_CHILDREN`` would be a running maximum over all of
        them). The child leads its own process group, so a timeout
        kills any worker processes it started too.
        """
        with open(stderr_path, "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage, started
                if time.monotonic() > self.deadline:
                    print(f"child timed out: {' '.join(cmd)}", file=sys.stderr)
                    break
                time.sleep(0.02)
        except BaseException:
            _kill_group(proc)
            raise
        _kill_group(proc)
        return -1, None, started


def _kill_group(proc: subprocess.Popen) -> None:
    if proc.returncode is not None:
        return
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)


# -- output checks ------------------------------------------------------------

_HEADER = re.compile(r"^={72}\n\[(?P<id>[^\]\n]+)\] \([0-9.]+s\)\n={72}\n", re.M)


def split_sections(stdout: str) -> Dict[str, str]:
    """Report text per experiment id, without the runner-stat preamble,
    the elapsed-time headers, and trailing ``saved``/``wrote`` lines."""
    marks = list(_HEADER.finditer(stdout))
    sections = {}
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(stdout)
        lines = stdout[m.end():end].split("\n")
        while lines and (not lines[-1].strip()
                         or lines[-1].startswith(("saved ", "wrote "))):
            lines.pop()
        sections[m.group("id")] = "\n".join(lines)
    return sections


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def export_digest(path: Path) -> Optional[str]:
    """Digest of a ``--save-measurements`` export minus ``build_seconds``
    (real wall-clock build times, by design of Fig. 17)."""
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, ValueError):
        return None
    for r in records:
        r.pop("build_seconds", None)
    return digest(json.dumps(records, sort_keys=True, separators=(",", ":")))


@dataclass
class Checked:
    """Outcome of checking one child: op names that passed/failed, and
    the digests it produced (for comparison with other runs)."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    def add(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {why}" if why else name)


def _match(name, value, expected, reference) -> Tuple[bool, str]:
    for label, table in (("expected", expected), ("reference", reference)):
        if table is not None and table.get(name) != value:
            return False, f"digest {value} != {label} {table.get(name)}"
    return True, ""


def check_cli(run: ChildRun, expected: Optional[dict],
              reference: Optional[Checked]) -> Checked:
    """One op per report section, plus one for the measurement export."""
    out = Checked()
    if run.result is None:
        out.add("child", False, "no result (crashed or timed out)")
        return out
    text = run.stdout_path.read_text() if run.stdout_path.exists() else ""
    sections = split_sections(text)
    ref = reference.digests if reference else None
    for exp in run.result["sections"]:
        if exp not in sections or not sections[exp].strip():
            out.add(exp, False, "section missing")
            continue
        out.digests[exp] = digest(sections[exp])
        out.add(exp, *_match(exp, out.digests[exp], expected, ref))
    exp_digest = export_digest(run.export_path)
    if run.result.get("error") or exp_digest is None:
        out.add("export", False, "run failed or export missing")
        return out
    out.digests["export"] = exp_digest
    out.add("export", *_match("export", exp_digest, expected, ref))
    return out


def check_serve(run: ChildRun, expected: Optional[dict],
                reference: Optional[Checked]) -> Checked:
    """One op per simulate/select call: its own conservation check, and
    its digest against the expected table and the first repetition."""
    out = Checked()
    if run.result is None or run.result.get("error"):
        out.add("child", False, "set-up or timed part raised")
        return out
    ref = reference.digests if reference else None
    for op in run.result["ops"]:
        out.digests[op["name"]] = op["digest"]
        if not op["ok"]:
            out.add(op["name"], False, op["detail"])
        else:
            out.add(op["name"], *_match(op["name"], op["digest"], expected, ref))
    return out


# -- one workload -------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled_walls(runs: List[ChildRun]) -> List[float]:
    """Wall time of each repetition's timed part at the reference speed.

    Each child times a fixed loop between segments of its timed part
    (``child.SpeedClock``). A segment's wall time is scaled by
    ``REFERENCE_S`` over the mean of the probes on either side of it.
    """
    return [
        sum(s * 2 * REFERENCE_S / (before + after)
            for s, before, after in r.result["segments"])
        for r in runs
    ]


def run_workload(name: str, session: Session, seconds: float, trace: bool,
                 out_dir: Optional[Path], record: bool) -> dict:
    """Run one workload; return its result record (metrics + checks)."""
    wl = WORKLOADS[name]
    key = wl.expected_key + ("@smoke" if session.smoke else "")
    expected_all = _load_expected(session.seed)
    expected = None if record else expected_all.get(key)
    argv = wl.smoke_argv if session.smoke else wl.argv
    base = argv + ("--seed", str(session.seed))
    scratch = session.scratch
    checks: List[Checked] = []

    def cli_args(i: int) -> Tuple[str, ...]:
        """The CLI arguments of repetition ``i``: a fresh cache each."""
        if wl.kind != "cli":
            return ()
        cache = ("--cache-dir", str(scratch / f"cache-{i}"))
        if "--no-cache" in argv:
            cache = ()
        return base + cache + ("--save-measurements", str(scratch / f"export-{i}.json"))

    def check(run: ChildRun) -> None:
        reference = checks[0] if checks else None
        if wl.kind == "cli":
            checks.append(check_cli(run, expected, reference))
        else:
            checks.append(check_serve(run, expected, reference))
        if checks[-1].failures and run.stderr_tail:
            print(run.stderr_tail, file=sys.stderr)

    run_start = time.monotonic()
    plain: List[ChildRun] = []
    traced: List[ChildRun] = []
    while True:
        i = len(plain) + 1
        started = time.monotonic()
        run = session.spawn(wl, cli_args(i))
        check(run)
        plain.append(run)
        if trace:
            spans = out_dir / name / "spans.jsonl" if out_dir and not traced else None
            run = session.spawn(wl, cli_args(1000 + i), trace=True, spans=spans)
            check(run)
            traced.append(run)
        now = time.monotonic()
        rep_s = now - started
        if not all(r.result for r in plain + traced):
            break  # a child crashed or timed out: more runs add nothing
        if len(plain) >= MAX_REPS or now + 1.5 * rep_s > session.deadline:
            break
        if len(plain + traced) >= MIN_REPS and now + rep_s > run_start + seconds:
            break

    ok_runs = [r for r in plain if r.result]
    attempted = sum(c.attempted for c in checks)
    failures = [f for c in checks for f in c.failures]
    if not ok_runs or (trace and not all(r.result for r in traced)):
        attempted += 1
        failures.append("no timed repetition completed")
    metrics = {
        "scaled_wall_s": _median(scaled_walls(ok_runs)),
        "setup_s": _median([r.setup_s for r in ok_runs]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in ok_runs]),
    }
    if trace and ok_runs and traced and all(r.result for r in traced):
        layers = {k: _median([r.result["layers"][k] for r in traced])
                  for k in traced[0].result["layers"]}
        layers["process.cpu_s"] = _median([r.cpu_s for r in traced])
        layers["process.wall_s"] = _median([r.wall_s for r in traced])
        layers["trace.overhead"] = (
            _median(scaled_walls(traced)) / metrics["scaled_wall_s"] - 1.0
        )
        metrics = layers
    digests = checks[0].digests if checks else {}
    if record:
        _record_expected(session.seed, key, digests)
    return {
        "workload": name,
        "seed": session.seed,
        "smoke": session.smoke,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "reps": len(plain),
        "metrics": metrics,
        "digests": digests,
        "expected_known": expected is not None,
    }


def _expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"seed{seed}.json"


def _load_expected(seed: int) -> dict:
    try:
        with open(_expected_path(seed)) as f:
            return json.load(f)
    except OSError:
        return {}


def _record_expected(seed: int, key: str, digests: Dict[str, str]) -> None:
    table = _load_expected(seed)
    table[key] = dict(sorted(digests.items()))
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(_expected_path(seed), "w") as f:
        json.dump(dict(sorted(table.items())), f, indent=1)
        f.write("\n")


# -- reporting ----------------------------------------------------------------


def emit(record: dict, spec: dict) -> dict:
    """The result object: every declared metric, with its unit."""
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"].get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in declared
        },
    }


def describe(record: dict, spec: dict) -> str:
    lines = [f"{record['workload']} seed={record['seed']}"
             f"{' smoke' if record['smoke'] else ''}"
             f"{' trace' if record['trace'] else ''}: "
             f"{record['reps']} timed repetition(s)"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in record["metrics"].items():
        lines.append(f"  {name:24s} {value:14.6g} {units.get(name, '')}")
    lines.append(
        f"  {'error_rate':24s} {record['failed'] / record['attempted']:14.6g} "
        f"ratio ({record['failed']} of {record['attempted']} ops failed)"
    )
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    if not record["expected_known"] and record["digests"]:
        lines.append("  digests (no expected table for this seed): "
                     + json.dumps(record["digests"], sort_keys=True))
    return "\n".join(lines)


# -- compare ------------------------------------------------------------------


def _load_records(where: str) -> List[dict]:
    path = Path(where)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for p in files:
        with open(p) as f:
            records.append(json.load(f))
    return [r for r in records if not r.get("trace")]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> str:
    """better / worse / same, or unresolved when the run-to-run spread
    is wider than the bound and the two sets overlap."""
    sign = 1.0 if lower_is_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "worse"
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if spread > bound:
        return "unresolved"
    change = sign * (bm - am)
    if am and change / am > bound:
        return "worse"
    if -change > (a3 - a1):
        return "better"
    return "same"


def compare(a_dir: str, b_dir: str, spec: dict) -> int:
    a_runs, b_runs = _load_records(a_dir), _load_records(b_dir)
    rows = [("workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n",
             "change", "verdict")]
    for name in WORKLOADS:
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in a_runs if r["workload"] == name]
            b = [r["metrics"][m["name"]] for r in b_runs if r["workload"] == name]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append((
                name, f"{m['name']} ({m['unit']})",
                f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] {len(a)}",
                f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {len(b)}",
                f"{(qb[1] - qa[1]) / qa[1]:+.1%}" if qa[1] else "-",
                verdict(a, b, m["bound"], m["better"] == "lower"),
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


# -- entry point --------------------------------------------------------------


def _parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the repro CLI and library. "
        "'run.py compare A B' diffs two directories of --out results.",
    )
    p.add_argument("--workload", choices=list(WORKLOADS), default=None,
                   help="one workload (default: all of them, in order)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="timed work per workload before it stops repeating")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics instead")
    p.add_argument("--smoke", action="store_true",
                   help="tiny input sizes, for the self-test")
    p.add_argument("--out", default=None,
                   help="write one result file per workload (and spans "
                   "when tracing) into this directory")
    p.add_argument("--record", action="store_true",
                   help="store this run's digests as the expected ones "
                   "for its seed")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A B", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    args = _parser(spec).parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = Path(args.out).resolve() if args.out else None
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            session = Session(scratch / name, args.seed, args.smoke, deadline)
            session.scratch.mkdir()
            record = run_workload(name, session, args.seconds, bool(args.trace),
                                  out_dir, args.record)
            records.append(record)
            print(describe(record, spec), flush=True)
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                suffix = "-trace" if record["trace"] else ""
                with open(out_dir / f"{name}-seed{args.seed}{suffix}.json", "w") as f:
                    json.dump(record, f, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run is using it
    if len(records) == 1:
        result = emit(records[0], spec)
    else:
        per = [emit(r, spec) for r in records]
        result = {
            "correct": all(p["correct"] for p in per),
            "attempted": sum(p["attempted"] for p in per),
            "failed": sum(p["failed"] for p in per),
            "metrics": {f"{r['workload']}.{k}": v
                        for r, p in zip(records, per)
                        for k, v in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
