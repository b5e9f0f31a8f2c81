"""One child process of the pfhx benchmark.

    child.py run ARGS...                      the pfhx CLI on ARGS, untraced
    child.py setup SPEC.json OUT.json         time import + parse + scenarios
    child.py trace OUT.json TRACE_DIR ARGS... the pfhx CLI on ARGS, traced

``setup`` measures the time from before ``import pfhx`` to after
``parse_config`` plus ``to_scenario`` for every scenario of the configs
listed in SPEC.json (a list of {"config": path, "overrides": {...}}).
"""

import sys


def _setup(spec_path: str, out_path: str) -> int:
    import itertools
    import json
    import time
    from pathlib import Path

    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    import pfhx.cli  # noqa: F401  (the CLI's own imports are part of set-up)
    from pfhx.config import parse_config

    scenarios = 0
    for item in spec:
        cfg = parse_config(Path(item["config"]).read_text(), overrides=item["overrides"])
        names = list(cfg.sweep_axes)
        for combo in itertools.product(*cfg.sweep_axes.values()):
            cfg.to_scenario(**dict(zip(names, combo)))
            scenarios += 1
    elapsed = time.perf_counter() - start
    Path(out_path).write_text(json.dumps({"setup_s": elapsed, "scenarios": scenarios}))
    return 0


def _trace(out_path: str, trace_dir: str, argv: list[str]) -> int:
    import json
    import os
    from pathlib import Path

    import tracer

    os.environ[tracer.TRACE_DIR_ENV] = trace_dir
    os.environ[tracer.OWNER_PID_ENV] = str(os.getpid())
    tr = tracer.install()
    from pfhx.cli import main

    rc = main(argv)
    Path(out_path).write_text(json.dumps({"rc": rc, "trace": tracer.collect(tr, Path(trace_dir))}))
    return rc


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "run":
        from pfhx.cli import main as cli_main

        return cli_main(rest)
    if mode == "setup":
        return _setup(*rest)
    if mode == "trace":
        return _trace(rest[0], rest[1], rest[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
