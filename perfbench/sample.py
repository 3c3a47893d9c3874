"""One measured kuzlab run in a fresh process.

Usage: python3 sample.py SPEC.json RESULT.json

SPEC names the source tree, the subcommand, the config file, the output
root, whether to trace, and where to write spans. The process times its
set-up (import, parse_config, initial_data), then ``cli.main`` from call to
return, by which time the output directory is written, and reports its
peak resident memory. With tracing on, spans are recorded only around
``cli.main``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import kuzlab.cli
    import kuzlab.config

    if not Path(kuzlab.__file__).resolve().is_relative_to(src):
        print(f"kuzlab imported from {kuzlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    cfg = kuzlab.config.parse_config(Path(spec["config"]).read_text())
    t_parse = time.perf_counter()
    kuzlab.config.initial_data(cfg)
    t_setup = time.perf_counter()
    rss_before_main = _rss_mb()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install("kuzlab")
    argv = [spec["command"], "--config", spec["config"], "--out", spec["out"]]
    t_main = time.perf_counter()
    code = kuzlab.cli.main(argv)
    wall = time.perf_counter() - t_main
    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": t_setup - t0,
        "import_s": t_import - t0,
        "parse_s": t_parse - t_import,
        "initial_data_s": t_setup - t_parse,
        "startup_s": t0 - T_START,
        "rss_before_main_mb": rss_before_main,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        cols = tracer.columns()
        result["layers"] = tracer.summary(cols)
        info = kuzlab.gamma.expand_gamma.cache_info()
        lookups = info.hits + info.misses
        result["layers"]["gamma.expand_hit_ratio"] = info.hits / lookups if lookups else 0.0
        result["spans"] = int(len(cols["dur"]))
        if spec.get("spans"):
            tracer.dump(spec["spans"], cols)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
