"""Each ``facile`` entry point imports only what it runs.

``facile predict`` and ``facile serve`` run the prediction core, the
decoder and (for ``serve``) the service; none of them needs NumPy, the
baseline analogs, the discovery campaigns, the paper's tables, the
bench harness, the oracle simulator or an HTTP client.  Importing those
would cost every start-up several hundred milliseconds and, in
``serve``, tens of megabytes the shard inherits when it forks.

Each case runs the real command in a subprocess under ``-X importtime``
and reads the modules it imported off the log (``serve`` up to its
``serving`` event).  ``serve`` must also have imported the columnar core
by then: its shards fork from the front end on the first request and
should inherit the core rather than import it while answering.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))

#: Modules (and their submodules) no case may import.
BANNED = ("numpy", "repro.discovery", "repro.baselines", "repro.eval",
          "repro.engine.bench", "repro.sim", "urllib.request",
          "http.client")

START_TIMEOUT_S = 60.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    # The ``serving`` event is an info record: keep the default level.
    env.pop("REPRO_LOG", None)
    return env


def imported(lines):
    """Module names logged by ``-X importtime`` in *lines*."""
    names = []
    for line in lines:
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":
                names.append(name)
    return names


def banned(names):
    return sorted({name for name in names for prefix in BANNED
                   if name == prefix or name.startswith(prefix + ".")})


def _stop(process):
    """Stop the server's whole process group (its shards included)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(process.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            process.communicate(timeout=15)
            return
        except subprocess.TimeoutExpired:
            continue


def serve_imports(*args):
    """Modules ``facile serve --port 0 *args`` imports before its
    ``serving`` event."""
    process = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
         "--port", "0", *args],
        cwd=REPO_ROOT, env=_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    lines = []
    try:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stderr.readline()
            if not line:
                pytest.fail("serve exited before its serving event:\n"
                            + "".join(lines[-20:]))
            lines.append(line)
            if line.startswith("{") and \
                    json.loads(line).get("event") == "serving":
                return imported(lines)
        pytest.fail("no serving event within "
                    f"{START_TIMEOUT_S:.0f} s")
    finally:
        _stop(process)


def test_predict_imports_only_the_core():
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "predict",
         "--hex", "4801d8"],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "add rax, rbx" in result.stdout
    names = imported(result.stderr.splitlines())
    assert "repro.engine.columnar" in names
    assert banned(names) == []


def test_serve_imports_only_the_service():
    names = serve_imports()
    assert "repro.service.server" in names
    assert "repro.engine.columnar" in names
    assert banned(names) == []


def test_serve_warm_imports_only_the_service(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# warm-up blocks\n4801d8\n4829d8,1.00\n")
    names = serve_imports("--warm", str(corpus))
    assert "repro.corpus" in names
    assert banned(names) == []
