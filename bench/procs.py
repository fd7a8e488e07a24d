"""Child processes of the benchmark: spawn, JSON-line control pipe, stop.

Every program under test runs in a fresh child so interpreter state
never leaks between workloads; the parent talks to it over
stdin/stdout, one JSON object per line.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


class ChildError(RuntimeError):
    pass


def require_checkout_program():
    """The program measured is this checkout's ``src/repro`` -- not a
    copy that happens to be installed or on an inherited path."""
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise ChildError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")


class Child:
    def __init__(self, script, *args, engine=None):
        env = dict(os.environ)
        # The checkout's own program, ahead of anything already on the path.
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        # Same dict/set layout on every start: one noise source less.
        env["PYTHONHASHSEED"] = "0"
        if engine is not None:
            # The engine is chosen the way a user chooses it, before
            # ``repro`` is imported -- never through ``engine=`` keywords.
            env["P4P_SIM_ENGINE"] = engine
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
            text=True,
            bufsize=1,
        )
        self.hello = self.receive()

    def receive(self):
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise ChildError(f"child exited with code {code} before answering")
        message = json.loads(line)
        if "error" in message:
            raise ChildError(message["error"])
        return message

    def send(self, **message):
        self.process.stdin.write(json.dumps(message, separators=(",", ":")) + "\n")
        self.process.stdin.flush()

    def ask(self, **message):
        self.send(**message)
        return self.receive()

    def stop(self):
        """Ask the child to quit; returns its last words (CPU, peak RSS)."""
        last = None
        if self.process.poll() is None:
            try:
                last = self.ask(op="quit")
            except (ChildError, OSError, ValueError):
                pass
        self.kill()
        return last

    def kill(self):
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
