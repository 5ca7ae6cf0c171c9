"""REPRO010: blocking transport calls carry an explicit deadline.

Each snippet is linted with only REPRO010 selected.  (REPRO008/009, the
rules of the retired issue/wait API, are gone; their ids are not reused.)
"""

import textwrap

from repro.lint import lint_source


def _lint(src, rule, path="src/module.py"):
    return lint_source(textwrap.dedent(src), path=path, rule_ids=[rule])


class TestDeadlineOnWait:  # REPRO010
    def test_transport_recv_without_timeout(self):
        (f,) = _lint(
            """
            def pull(ctx, src):
                return ctx.transport.recv(src)
            """, "REPRO010")
        assert "recv()" in f.message and "timeout=" in f.message

    def test_transport_recv_with_timeout_is_clean(self):
        assert _lint(
            """
            def pull(ctx, src):
                return ctx.transport.recv(src, timeout=ctx.timeout)
            """, "REPRO010") == []

    def test_unique_names_checked_regardless_of_receiver(self):
        # barrier_wait is the transport's whatever the receiver is called;
        # exchange only when the receiver names the transport.
        findings = _lint(
            """
            def sync(t, ctx, out):
                t.barrier_wait()
                t.exchange(out)
                return ctx.transport.exchange(out)
            """, "REPRO010")
        assert [(f.line, f.message.split("(")[0].split()[-1])
                for f in findings] == [(3, "barrier_wait"), (5, "exchange")]

    def test_non_transport_receiver_is_not_gated(self):
        assert _lint(
            """
            def push(conn, payload):
                conn.send(payload)
            """, "REPRO010") == []

    def test_handle_wait_is_not_a_transport_wait(self):
        assert _lint(
            """
            def finish(handle):
                return handle.wait()
            """, "REPRO010") == []

    def test_test_files_are_exempt(self):
        src = """
            def pull(transport):
                return transport.recv(0)
            """
        assert _lint(src, "REPRO010", path="tests/test_transport.py") == []
        assert _lint(src, "REPRO010")
