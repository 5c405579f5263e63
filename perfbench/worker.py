"""Child process of the benchmark, started by run.py.

    python3 perfbench/worker.py setup MODE SEED COEFF_RANGE
        Time `import fanoconic`, plus `instantiate_sections` for m = 2 at
        SEED when MODE is "default" or "perturb", and print
        {"setup_s": seconds}.  MODE "none" times the import alone.

    python3 perfbench/worker.py batch BATCH_JSON [SPANS_JSON]
        Answer every CLI argument list in BATCH_JSON through
        `fanoconic.cli.main`, in this one process, and print a JSON list of
        {"code": exit code, "stdout": output}.  With SPANS_JSON the batch
        runs traced and the spans are written there when it ends.

Set-up imports nothing that fanoconic might import before its clock
starts, so the import is timed as a fresh interpreter pays it.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def setup(mode: str, seed: int, coeff_range: int) -> None:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fanoconic

    if mode != "none":
        fanoconic.instantiate_sections(fanoconic.ConstructionParams(2), seed,
                                       coeff_range=coeff_range,
                                       perturb=mode == "perturb")
    elapsed = time.perf_counter() - start

    import json

    print(json.dumps({"setup_s": elapsed}))


def batch(batch_path: str, spans_path: str | None) -> None:
    sys.path.insert(0, SRC)
    import contextlib
    import io
    import json

    from fanoconic import cli

    with open(batch_path) as fh:
        argvs = json.load(fh)

    def answer_all():
        answers = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            answers.append({"code": code, "stdout": buf.getvalue()})
        return answers

    if spans_path is None:
        answers = answer_all()
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            answers = tracer.run_root(answer_all)
        finally:
            tracer.restore()
        tracer.write(spans_path, trace_id=os.path.basename(spans_path))
    json.dump(answers, sys.stdout)


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "setup":
        setup(argv[1], int(argv[2]), int(argv[3]))
    elif len(argv) in (2, 3) and argv[0] == "batch":
        batch(argv[1], argv[2] if len(argv) == 3 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
