"""Fork safety of the compiled kernel: a pooled decode after an inline one.

A forked child inherits the parent's memory but not its threads.  A
compiled kernel that keeps a thread pool alive in the parent (as an
OpenMP runtime does) leaves the child's copy of that pool's state
pointing at threads that do not exist, and the child's first parallel
region blocks forever.  The scenario runs in a fresh interpreter under
a hard timeout, so a regression fails this test instead of hanging
the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.decode import available_backends
from repro.sim.pool import fork_context

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from repro.codes import build_small_code
    from repro.decode import BatchQuantizedZigzagDecoder
    from repro.sim import PersistentPool

    code = build_small_code("1/2", parallelism=12)
    decoder = BatchQuantizedZigzagDecoder(
        code, normalization=0.75, backend="cnative"
    )
    llrs = np.random.default_rng(7).normal(1.0, 1.5, (64, code.n))

    def decode(_):
        return decoder.decode_batch(llrs, max_iterations=6).iterations

    inline = decode(None)
    with PersistentPool(2, label="fork-safety") as pool:
        futures = [pool.submit(decode, i) for i in range(2)]
        pooled = [f.result() for f in futures]
    assert all((p == inline).all() for p in pooled)
    print("ok")
    """
)


@pytest.mark.skipif(
    "cnative" not in available_backends(), reason="no working C compiler"
)
@pytest.mark.skipif(fork_context() is None, reason="needs fork")
def test_pooled_cnative_decode_after_inline_decode():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # A session of its own, so a timeout can kill the pool workers too.
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("pooled cnative decode hung after an inline decode")
    assert proc.returncode == 0, err[-2000:]
    assert out.strip().endswith("ok")
