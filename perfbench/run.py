"""End-to-end and per-layer benchmark of the tls-scope CLI.

    python3 perfbench/run.py --workload default --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each cycle of a run runs the whole
loop on inputs made from ``(seed, workload)`` (see ``workloads``):

* untraced: ``tls-scope generate``, ``fit`` and ``coupled`` as
  subprocesses, one at a time, with ``TLS_SCOPE_THREADS`` unset, plus
  in-process ``crossing_geometry`` calls.  These give the end-to-end
  metrics.
* traced (the first ``scored_cycles`` cycles): the same commands through
  ``cli.main`` in this process, with :mod:`tracer` wrappers around the
  layer functions.  These give the per-layer metrics, the captured
  results the checker and the ground-truth scorer need, and outputs
  that must be byte-identical to the untraced ones.

``--seconds`` sets the number of cycles (see ``workloads.Workload``);
fresh-interpreter set-up probes are spread over them.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record, with machine facts and per-command span coverage, goes
to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

#: Stop starting cycles once a run has taken this long [s], so that a
#: much slower build still ends in time.
RUN_LIMIT_S = 150.0
#: Timed set-up probes per run, spread over its cycles.
SETUP_PROBES = 5
COMMANDS = ("generate", "fit", "coupled")


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TLS_SCOPE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """(wall s, exit code, peak RSS MB) of one subprocess run to completion."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run: cycles, with set-up probes between them."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.cycle_walls: list[dict[str, float]] = []
        self.geometry: list[float] = []
        self.peak_rss = 0.0
        self.layers: list[dict] = []
        self.coverage: list[dict] = []
        self.score = None
        self.coupled_errors: list[float] = []
        self.setup_walls: list[float] = []
        self.imports: list[float] = []
        self.bare: list[float] = []

    def op(self, failures: list[str]) -> None:
        """Count one attempted operation or check and keep its failures."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)

    # -- set-up ----------------------------------------------------------

    def probe_setup(self, n: int) -> None:
        """``n`` fresh interpreters importing tls_scope.cli, and as many bare ones."""
        code = ("import time; t = time.perf_counter(); import tls_scope.cli; "
                "print(time.perf_counter() - t)")
        for _ in range(n):
            log = self.work / "probe.log"
            wall, rc, rss = run_child([sys.executable, "-c", code], log)
            self.op(self.exit_failures("import probe", rc, log))
            self.peak_rss = max(self.peak_rss, rss)
            if rc == 0:
                self.setup_walls.append(wall)
                self.imports.append(float(log.read_text().split()[-1]))
            self.bare.append(run_child([sys.executable, "-c", "pass"], log)[0])

    @staticmethod
    def exit_failures(command: str, rc: int, log: Path) -> list[str]:
        from checker import check_exit

        failures = check_exit(command, rc)
        if failures:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            failures = [f"{failures[0]}: {' '.join(tail)}"]
        return failures

    # -- cycles ----------------------------------------------------------

    def loop(self) -> None:
        """A fixed number of cycles, with the set-up probes spread over them.

        Importing ``tls_scope.cli`` here first warms the file cache and
        writes the byte-code caches, so no probe pays for that.
        """
        import tls_scope.cli  # noqa: F401
        from workloads import make_inputs

        start = time.perf_counter()
        cycles = max(1, int(self.seconds // self.wl.cycle_s))
        inputs = make_inputs(self.wl, self.seed, cycles, self.work / "inputs")
        k = 0
        while k < cycles and time.perf_counter() - start < RUN_LIMIT_S:
            self.probe_setup(math.ceil(SETUP_PROBES * (k + 1) / cycles)
                             - math.ceil(SETUP_PROBES * k / cycles))
            self.cycle(k, inputs[k], traced=k < self.wl.scored_cycles)
            k += 1
        self.cycles = k

    def cycle(self, k: int, inp, traced: bool) -> None:
        """One cycle: untraced commands, checks, then traced commands."""
        from checker import check_coupled, check_schema

        d = self.work / f"cycle_{k}"
        d.mkdir()
        untraced = d / "untraced"
        argv = self.command_args(inp, untraced)
        walls = {}
        commands = (*COMMANDS[:-1], *["coupled"] * self.wl.coupled_runs)
        for i, command in enumerate(commands):
            log = d / f"{command}.log"
            cmd = [sys.executable, "-m", "tls_scope.cli", *argv[command]]
            wall, rc, rss = run_child(cmd, log)
            self.op(self.exit_failures(command, rc, log))
            self.times[command].append(wall)
            walls.setdefault(command, wall)
            self.peak_rss = max(self.peak_rss, rss)
            # Spread the geometry calls over the cycle, so that one slow
            # stretch of the machine does not hold every sample.
            self.run_geometry(inp.geometry_configs[i::len(commands)], tracer=None)
        for name in ("dataset.csv.meta.json", "ground_truth.json", "fit_report.json",
                     "material_report.json", "coupled_fit.json"):
            self.op(check_schema(untraced / name))
        coupled_failures, err = check_coupled(untraced / "coupled_fit.json")
        self.op(coupled_failures)
        if not coupled_failures:
            self.coupled_errors.append(err)
        self.cycle_walls.append(walls)
        if traced:
            self.traced_cycle(inp, untraced, d / "traced")
        shutil.rmtree(d, ignore_errors=True)

    @staticmethod
    def command_args(inp, out: Path, dataset: Path | None = None) -> dict[str, list[str]]:
        """CLI arguments of each command, writing into ``out``.

        ``fit`` reads ``dataset``, by default the one ``generate`` wrote.
        """
        generate = ["generate", "--seed", str(inp.generate_seed)]
        if inp.generate_config:
            generate += ["--config", str(inp.generate_config)]
        fit = ["fit", str(dataset or out / "dataset.csv")]
        if inp.fit_config:
            fit += ["--config", str(inp.fit_config)]
        coupled = ["coupled", "--config", str(inp.coupled_config)]
        return {c: [*a, "--out", str(out)]
                for c, a in (("generate", generate), ("fit", fit), ("coupled", coupled))}

    def run_geometry(self, paths, tracer) -> list:
        """crossing_geometry on each pair file, checked against the oracle."""
        from checker import check_geometry
        from tls_scope import coupled
        from workloads import load_geometry

        tracers = []
        for path in paths:
            pair, sweep = load_geometry(path)
            tr = tracer() if tracer else None
            t0 = time.perf_counter()
            try:
                with tr or contextlib.nullcontext():
                    v_min, s_min = coupled.crossing_geometry(pair, sweep)
            except Exception as exc:  # a failed operation, reported in the result
                self.op([f"crossing_geometry: {type(exc).__name__}: {exc}"])
                continue
            dt = time.perf_counter() - t0
            self.op(check_geometry(pair, sweep, v_min, s_min))
            if tr:
                tracers.append(tr)
            else:
                self.geometry.append(dt)
        return tracers

    def traced_cli(self, tracer_cls, argv: list[str]):
        """cli.main(argv) in this process under a fresh tracer."""
        from tls_scope import cli

        tr = tracer_cls()
        sink = io.StringIO()
        with tr, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = tr.span("cli.main", cli.main, argv)
            except Exception as exc:  # a failed operation, reported in the result
                rc = f"{type(exc).__name__}: {exc}"
        return tr, rc

    def traced_cycle(self, inp, untraced: Path, traced: Path) -> None:
        """Traced commands of a scored cycle, their checks, and the score.

        The scorer needs the tracks of the traced ``fit``.  Without
        ``--trace`` only ``fit`` runs traced, on the untraced dataset;
        with it every command runs traced and its layer numbers are kept.
        """
        from checker import check_dataset, check_same_bytes
        from tracer import Tracer

        if self.trace:
            argv = self.command_args(inp, traced)
            compared = ("dataset.csv", "fit_report.json", "material_report.json",
                        "coupled_fit.json")
        else:
            argv = {"fit": self.command_args(inp, traced, untraced / "dataset.csv")["fit"]}
            compared = ("fit_report.json", "material_report.json")
        tracers = {}
        for command, args in argv.items():
            tr, rc = self.traced_cli(Tracer, args)
            self.op([] if rc == 0 else [f"traced {command}: {rc}"])
            tracers[command] = tr
        for name in compared:
            self.op(check_same_bytes(untraced / name, traced / name))
        read = tracers["fit"].captured.get("read")
        self.score_cycle(inp, untraced, tracers["fit"].captured.get("analysis"), read)
        if not self.trace:
            return
        simulated = tracers["generate"].captured.get("simulated")
        if simulated is None or read is None:
            self.op(["dataset round trip: write_dataset/read_dataset not observed"])
        else:
            self.op(check_dataset(simulated, traced / "dataset.csv", read=read))
        geometry = self.run_geometry(inp.geometry_configs, tracer=Tracer)
        self.layers.append(self.layer_metrics(tracers, geometry))

    def score_cycle(self, inp, untraced: Path, analysis, ds) -> None:
        import truth

        if analysis is None or ds is None:
            self.op(["scoring: analysis result not observed"])
            return
        try:
            gt = json.loads((untraced / "ground_truth.json").read_text())["tls"]
            report = json.loads((untraced / "fit_report.json").read_text())
            material = json.loads((untraced / "material_report.json").read_text())
            tracks = [[(t.segment, t.bias_index, t.freq) for t in track]
                      for track in analysis.tracks]
            segments = [(s.control, s.bias, s.held) for s in ds.segments]
            sc = truth.score_dataset(gt, segments, ds.freq_ghz, tracks, report["tls"],
                                     material, inp.volume_um3)
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            self.op([f"scoring: {type(exc).__name__}: {exc}"])
            return
        self.op([])
        self.score = sc if self.score is None else self.score + sc

    def layer_metrics(self, tracers: dict, geometry: list) -> dict:
        """Per-layer numbers of one traced cycle, and its span coverage."""
        every = list(tracers.values())

        def total(name):
            return sum(t.total(name) for t in every)

        def count(name):
            return sum(t.counts.get(name, 0) for t in every)

        fits = tracers["fit"]
        calls = fits.calls("hyperbola.fit_hyperbola")
        ok = fits.calls("hyperbola.fit_hyperbola", ok_only=True)
        n_geo = max(len(geometry), 1)
        # The probes taken so far, at least those before this cycle.
        import_s, startup_s = median(self.imports), median(self.bare)
        out = {
            "cli.import_s": import_s,
            "ensemble.generate_ensemble_s": total("ensemble.generate_ensemble"),
            "ensemble.n_tls": count("ensemble.n_tls"),
            "spectro.t1_map_s": total("spectro.t1_map"),
            "spectro.lorentz_terms": count("spectro.lorentz_terms"),
            "dataio.write_dataset_s": total("dataio.write_dataset"),
            "dataio.read_dataset_s": total("dataio.read_dataset"),
            "dataio.csv_bytes": count("dataio.csv_bytes"),
            "traces.extract_traces_s": total("traces.extract_traces"),
            "traces.link_tracks_s": total("traces.link_tracks"),
            "traces.n_traces": count("traces.n_traces"),
            "traces.n_tracks": count("traces.n_tracks"),
            "hyperbola.fit_hyperbola_s": total("hyperbola.fit_hyperbola"),
            "hyperbola.fit_calls": calls,
            "hyperbola.fit_ok_ratio": ok / calls if calls else math.nan,
            "pipeline.analyze_dataset_s": total("pipeline.analyze_dataset"),
            "pipeline.self_s": fits.self_time("pipeline.analyze_dataset"),
            "metrics.material_report_s": total("metrics.material_report"),
            "pairfit.panel_points_s": total("pairfit.panel_points"),
            "pairfit.fit_coupled_pair_s": total("pairfit.fit_coupled_pair"),
            "pairfit.n_points": count("pairfit.n_points"),
            "coupled.crossing_geometry_s":
                sum(t.total("coupled.crossing_geometry") for t in geometry) / n_geo,
            "linalg.eigensolve_calls":
                sum(t.calls("linalg.eigensolve_hermitian") for t in geometry) / n_geo,
            "linalg.eigensolve_s":
                sum(t.total("linalg.eigensolve_hermitian") for t in geometry) / n_geo,
        }
        cycle = len(self.layers)
        overhead = 0.0
        coverage = {}
        for command, tr in tracers.items():
            wall = self.cycle_walls[cycle][command]
            main = next((s for s in tr.spans if s.name == "cli.main"), None)
            layers = tr.children_of(tr.spans.index(main)) if main else {}
            main_s = main.duration if main else math.nan
            uncovered = wall - import_s - sum(layers.values())
            out[f"uncovered.{command}_s"] = uncovered
            overhead += startup_s + import_s + main_s - wall
            coverage[command] = {
                "wall_s": wall,
                "interpreter_start_exit_s": startup_s,
                "cli.import_s": import_s,
                "cli.main_s": main_s,
                "layers_s": layers,
                "uncovered_s": uncovered,
                "missing_targets": tr.missing,
            }
        out["trace.overhead_s"] = overhead
        self.coverage.append(coverage)
        return out

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric of the run by name.

        Command times are the fastest sample of the run, ``loop_s`` is
        their sum, and per-layer numbers are medians over the traced
        cycles; see README.md.
        """
        quality = self.score.metrics() if self.score else {}
        layer_names = self.layers[0] if self.layers else {}
        fastest = {c: min(self.times[c], default=math.nan) for c in COMMANDS}
        return {
            "setup_s": median(self.setup_walls),
            "loop_s": sum(fastest.values()),
            **{f"cli.{c}_s": t for c, t in fastest.items()},
            "geometry_s": min(self.geometry, default=math.nan),
            "peak_rss_mb": self.peak_rss,
            **{name: quality[name] for name in ("recall", "fragmentation", "misclass_rate")
               if name in quality},
            **{name: median([c[name] for c in self.layers if name in c])
               for name in layer_names},
            **{f"metrics.{name}": quality[name] for name in ("p0_rel_err", "dipole_rel_err")
               if name in quality},
            "pairfit.coupled_rel_err": median(self.coupled_errors),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tls_scope" / "cli.py").is_file():
        print(f"error: no tls_scope sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    try:
        run.loop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    values = run.metrics()
    reported = {name: values.get(name, math.nan) for name in units}
    bad = [name for name, v in reported.items() if not math.isfinite(v)]
    if bad:
        run.op([f"metrics not measured: {', '.join(bad)}"])
    facts = machine_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": run.cycles,
        "machine": facts,
        "metrics": values,
        "samples_s": {"setup": run.setup_walls, **run.times, "geometry": run.geometry},
        "per_cycle_layers": run.layers,
        "coverage": run.coverage,
        "confusion": run.score.confusion if run.score else {},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"machine: {facts['nproc']} CPUs, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}")
    print(f"workload {args.workload}, seed {args.seed}, {run.cycles} cycles, "
          f"{run.attempted} operations and checks, {run.failed} failed")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    if args.trace:
        for command, cov in (run.coverage[0].items() if run.coverage else ()):
            spans = ", ".join(f"{k} {v:.3f}" for k, v in sorted(cov["layers_s"].items()))
            print(f"{command}: wall {cov['wall_s']:.3f} s = import {cov['cli.import_s']:.3f}"
                  f" + [{spans}] + uncovered {cov['uncovered_s']:.3f}")
    width = max(len(n) for n in reported)
    for name, value in reported.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _finite(v), "unit": units[name]}
                    for name, v in reported.items()},
    }))
    return 0


def _finite(x):
    """JSON has no NaN: unmeasured values are written as null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


if __name__ == "__main__":
    sys.exit(main())
