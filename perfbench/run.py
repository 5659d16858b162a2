#!/usr/bin/env python3
"""Repo benchmark for the MIRAGE transpiler.

    python3 perfbench/run.py --workload <cold-cli|suite-warm|serve-mix> \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the library, the
`mirage` CLI and the harness (perfbench/CMakeLists.txt) into .bench_build
(or $CARGO_TARGET_DIR); scratch files go to .bench_work. The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it carries the machine fingerprint and sample details.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (a separate, traced run).
"""

import argparse
import hashlib
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# Sources the benchmark builds and reads; without them it refuses to run.
REQUIRED = ["CMakeLists.txt", "src/mirage/pipeline.cc", "FIT_CATALOG.bin",
            "BENCH_lowering.json", "examples/qft8.qasm", "BENCHMARK.json"]
CATALOG = "FIT_CATALOG.bin"
SOCKET = ".bench_work/serve.sock"  # relative: sun_path holds 108 bytes
SERVE_CLIENTS = 2  # the harness's closed-loop clients (kClients)
# Server pool threads: the clients and the pool together fill the cores;
# oversubscribing them makes run-to-run latency swing by a third.
SERVE_THREADS = max(1, (os.cpu_count() or 1) - SERVE_CLIENTS)
SETUP_REPEATS = {"cold-cli": 5, "suite-warm": 3, "serve-mix": 3}

# cold-cli inputs: the README example plus small Table III circuits whose
# QASM form the catalog covers, at the catalog config.
QFT8 = ("qft8", "examples/qft8.qasm", "grid3x3",
        {"trials": 8, "swap-trials": 4, "fwd-bwd": 2, "seed": 20240229,
         "vf2": 1})
CATALOG_OPTIONS = {"trials": 8, "swap-trials": 2, "fwd-bwd": 2, "seed": 179,
                   "vf2": 0}
COLD_TABLE_III = ["bv_n30", "qec9xz_n17", "seca_n11", "qram_n20",
                  "wstate_n27"]


class BenchError(RuntimeError):
    pass


# --- statistics ---------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it -- the 11th-largest sample, at percentile 100*(n-10)/n;
    (100, max) when there are ten samples or fewer."""
    values = sorted(samples)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1]
    return 100.0 * (n - 10) / n, values[-11]


# --- processes ----------------------------------------------------------------

def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary(name):
    sub = {"mirage": "mirage/tools/mirage"}.get(name, name)
    return build_dir() / sub


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("not a mirage checkout: missing " + ", ".join(missing))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])


def run_checked(cmd, **kw):
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, **kw)
    if res.returncode != 0:
        raise BenchError(f"{Path(cmd[0]).name} exited {res.returncode}")


def harness(args, timeout=170):
    """Run the harness to completion; returns its last stdout line as JSON."""
    res = subprocess.run([str(binary("perfbench_harness"))] + args, cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=timeout)
    if res.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {res.returncode}: "
                         f"{res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def harness_timed_setup(args, timeout=170):
    """Run the harness; returns (seconds from spawn to its 'ready' line,
    its final JSON)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(binary("perfbench_harness"))] + args,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"harness {args[0]} exited {proc.returncode}: "
                         f"{err.strip()[-500:]}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def spawn_timed(argv, stdout_path):
    """posix_spawn one process, wait for it; returns (wall s, exit code,
    rusage). stdout goes to `stdout_path`, stderr is discarded."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage


def cpu_ticks():
    """Aggregate /proc/stat CPU ticks (user, nice, system, idle, iowait,
    irq, softirq, steal, ...)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_percent(before, after):
    """Share of CPU time the hypervisor gave to other guests: a run that
    reads high here ran on a contended machine."""
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(sum(delta), 1) if len(delta) > 7 else 0.0


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(seed):
    info = harness(["info"])
    commit = "none"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    return {"nproc": info["nproc"], "compiler": info["compiler"],
            "build_type": info["build_type"], "git_commit": commit,
            "source_sha256": src.hexdigest(),
            "fit_catalog_sha256": sha256_file(ROOT / CATALOG), "seed": seed}


# --- workloads ------------------------------------------------------------------

def cold_inputs():
    inputs = [QFT8]
    for name in COLD_TABLE_III:
        inputs.append((name, f".bench_work/cold/{name}.qasm", "grid8x8",
                       CATALOG_OPTIONS))
    return inputs


def cli_argv(path, topology, options):
    argv = [str(binary("mirage")), "transpile", path, "--topology", topology,
            "--trials", str(options["trials"]),
            "--swap-trials", str(options["swap-trials"]),
            "--fwd-bwd", str(options["fwd-bwd"]),
            "--seed", str(options["seed"]),
            "--lower", "--format", "qasm", "--catalog", CATALOG]
    if not options["vf2"]:
        argv.append("--no-vf2")
    return argv


def check_cli(outputs):
    """Verify one CLI output per input against the in-process reference.
    `outputs` maps input name -> output path."""
    manifest = []
    for name, path, topology, options in cold_inputs():
        manifest.append({"input": path, "output": str(outputs[name]),
                         "topology": topology, "options": options})
    mpath = WORK / "cold" / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    res = harness(["check-cli", "--manifest", str(mpath), "--catalog", CATALOG])
    return {name: r for (name, *_), r in zip(cold_inputs(), res["results"])}


def cold_cli(seed, seconds, trace):
    (WORK / "cold").mkdir(parents=True, exist_ok=True)
    for stale in (WORK / "cold").glob("out-*.qasm"):
        stale.unlink()
    names = ",".join(COLD_TABLE_III)
    setups = []
    for _ in range(SETUP_REPEATS["cold-cli"]):
        t0 = time.perf_counter()
        harness(["prepare", "--out", ".bench_work/cold", "--names", names])
        setups.append(time.perf_counter() - t0)

    inputs = cold_inputs()
    rng = random.Random(seed)
    first_output, first_digest = {}, {}
    ops = []  # (input name, failure reason or "")
    samples, cpu_ms, peak_kb = [], 0.0, 0.0

    def cli_op(name, path, topology, options):
        nonlocal cpu_ms, peak_kb
        out = WORK / "cold" / f"out-{name}-{len(samples)}.qasm"
        wall, code, usage = spawn_timed(cli_argv(path, topology, options), out)
        samples.append(wall * 1e3)
        cpu_ms += (usage.ru_utime + usage.ru_stime) * 1e3
        peak_kb = max(peak_kb, usage.ru_maxrss)
        digest = sha256_file(out)
        first_output.setdefault(name, out)
        if code != 0:
            ops.append((name, f"{name}: exit {code}"))
        elif first_digest.setdefault(name, digest) != digest:
            ops.append((name, f"{name}: output differs from its first run"))
        else:
            ops.append((name, ""))
        if out != first_output[name]:
            out.unlink()
        return wall * 1e3

    start = time.perf_counter()
    rows = []
    if not trace:
        while time.perf_counter() - start < seconds:
            order = list(inputs)
            rng.shuffle(order)
            for item in order:
                if time.perf_counter() - start >= seconds:
                    break
                cli_op(*item)
    else:
        # Each input as a CLI process next to two fresh children: its cold
        # untraced transpile() and its traced cold replay, round after
        # round in seeded order.
        while not rows or time.perf_counter() - start < seconds:
            order = list(inputs)
            rng.shuffle(order)
            for name, path, topology, options in order:
                cli_ms = cli_op(name, path, topology, options)
                args = ["replay-cold", "--input", path, "--topology", topology,
                        "--catalog", CATALOG]
                for k, v in options.items():
                    args += [f"--{k}", str(v)]
                twin = harness(args + ["--untraced"])
                child = harness(args + [
                    "--untraced-ms", repr(twin["transpile_ms"]),
                    "--spans", f".bench_work/spans-cold-{name}.json"])
                ops.append((name, "; ".join(child["reasons"])))
                rows.append((name, cli_ms, child))
    wall_s = time.perf_counter() - start

    # Every op's output is byte-identical to its input's first output, so
    # checking that one against the in-process reference covers them all.
    checks = check_cli(first_output)
    reasons = [why for _, why in ops if why]
    reasons += [f"{n}: {r['reason']}" for n, r in checks.items() if not r["ok"]]
    failed = sum(1 for n, why in ops if why or not checks[n]["ok"])
    result = {"samples": samples, "setups": setups, "wall_s": wall_s,
              "cpu_ms": cpu_ms, "peak_rss_kb": peak_kb,
              "attempted": len(ops), "failed": failed, "reasons": reasons,
              "depth_pulses": sum(r["depth_pulses"] for r in checks.values()),
              "total_pulses": sum(r["total_pulses"] for r in checks.values()),
              "guards_failed": 0}
    if trace:
        result["layers"] = cold_layers(rows)
    return result


def cold_layers(rows):
    """Per-layer metrics of the traced cold-cli run: means over the
    replayed ops, counts summed once over the distinct inputs."""
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    stage = {
        "circuit.parse_ms": "circuit.parse",
        "topology.build_ms": "topology.build",
        "monodromy.coverage_build_ms": "monodromy.coverage_build",
        "decomp.catalog_load_ms": "decomp.catalog_load",
    }
    layers = {k: mean([r[2]["stages"][v] for r in rows])
              for k, v in stage.items()}
    first = {}
    for name, _, child in rows:
        first.setdefault(name, child)
    counts = ("circuit.blocks", "router.heuristic_evals", "router.stall_steps",
              "router.ext_set_builds", "layout.vf2_found", "decomp.new_fits",
              "decomp.fit_evaluations")
    for key in rows[0][2]["layers"]:
        if key in layers:
            continue
        if key in counts:
            layers[key] = sum(c["layers"][key] for c in first.values())
        else:
            layers[key] = mean([r[2]["layers"][key] for r in rows])
    hits = sum(r[2]["coord_hits"] for r in rows)
    misses = sum(r[2]["coord_misses"] for r in rows)
    layers["circuit.coord_cache_hit_ratio"] = (hits / (hits + misses)
                                               if hits + misses else 0.0)
    layers["cli.process_ms"] = mean([r[1] for r in rows])
    # Each side is one ~1 s process; the median of the per-pair
    # differences resists the process-to-process jitter of either side.
    layers["cli.unattributed_ms"] = statistics.median(
        [r[1] - r[2]["stage_sum_ms"] for r in rows])
    return layers


def suite_warm(seed, seconds, trace):
    base = ["suite-warm", "--catalog", CATALOG,
            "--baseline", "BENCH_lowering.json"]
    setups = [harness_timed_setup(base + ["--setup-only"])[0]
              for _ in range(SETUP_REPEATS["suite-warm"] - 1)]
    args = base + ["--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)),
                   "--spans", ".bench_work/spans-suite-warm.json"]
    setup, res = harness_timed_setup(args)
    setups.append(setup)
    res["setups"] = setups
    res["samples"] = res.pop("samples_ms")
    return res


def ping(timeout):
    """Connect and ping until the server answers; False on timeout."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            with socket.socket(socket.AF_UNIX) as s:
                s.connect(SOCKET)
                s.sendall(b'{"op":"ping"}\n')
                if b'"pong"' in s.recv(4096):
                    return True
        except OSError:
            time.sleep(0.002)
    return False


def stop_server(proc):
    try:
        with socket.socket(socket.AF_UNIX) as s:
            s.connect(SOCKET)
            s.sendall(b'{"op":"shutdown"}\n')
            s.recv(4096)
        proc.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()


def start_server():
    """Spawn `mirage serve`; returns (process, seconds until first pong)."""
    sock = ROOT / SOCKET
    if sock.exists():
        sock.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [str(binary("mirage")), "serve", "--socket", SOCKET,
         "--catalog", CATALOG, "--threads", str(SERVE_THREADS)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not ping(60):
        proc.kill()
        proc.wait()
        raise BenchError("mirage serve did not answer ping")
    return proc, time.perf_counter() - t0


def serve_mix(seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    setups = []
    proc = None
    try:
        for i in range(SETUP_REPEATS["serve-mix"]):
            proc, setup = start_server()
            setups.append(setup)
            if i + 1 < SETUP_REPEATS["serve-mix"]:
                stop_server(proc)
        res = harness(["serve-client", "--socket", SOCKET,
                       "--server-pid", str(proc.pid), "--seed", str(seed),
                       "--seconds", str(seconds),
                       "--catalog", CATALOG, "--trace", str(int(trace)),
                       "--spans", ".bench_work/spans-serve-mix.json"])
    finally:
        if proc is not None:
            stop_server(proc)
    if proc.returncode != 0:
        res["failed"] += 1
        res["reasons"].append(f"mirage serve exited {proc.returncode}")
    res["setups"] = setups
    res["samples"] = res.pop("samples_ms")
    if trace:
        res["layers"]["serve.startup_ms"] = statistics.median(setups) * 1e3
    return res


WORKLOADS = {"cold-cli": cold_cli, "suite-warm": suite_warm,
             "serve-mix": serve_mix}


# --- main -----------------------------------------------------------------------

def end_to_end(res):
    samples = res["samples"]
    if not samples:
        raise BenchError("no op completed")
    p, tail_value = tail(samples)
    res.setdefault("detail", {}).update(
        {"samples": len(samples), "tail_percentile": p})
    attempted = max(res["attempted"], 1)
    return {
        "setup_s": statistics.median(res["setups"]),
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": tail_value,
        "throughput_per_s": len(samples) / res["wall_s"],
        "cpu_ms_per_op": res["cpu_ms"] / len(samples),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - res["failed"] / attempted,
        "depth_pulses": res["depth_pulses"],
        "total_pulses": res["total_pulses"],
    }


def selftest():
    build()
    code = subprocess.run([str(binary("perfbench_selftest"))], cwd=ROOT).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "-v",
                         "test_run"], cwd=BENCH_DIR).returncode
    return 0 if code == 0 and py == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        build()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(parents=True, exist_ok=True)
        ticks = cpu_ticks()
        res = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace))
        steal = steal_percent(ticks, cpu_ticks())
        values = end_to_end(res)
        error_rate = res["failed"] / max(res["attempted"], 1)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        # A layer the workload never runs reports 0.
        source = (dict(res["layers"], error_rate=error_rate) if args.trace
                  else values)
        metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in listed}
        detail = dict(res.get("detail", {}), workload=args.workload,
                      attempted=res["attempted"], failed=res["failed"],
                      error_rate=error_rate, steal_percent=steal,
                      failures=res["reasons"][:8],
                      guard_failures=res.get("guard_reasons", []),
                      end_to_end=values,
                      fingerprint=fingerprint(args.seed))
        print(json.dumps(detail))
        correct = res["failed"] == 0 and res["guards_failed"] == 0
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
