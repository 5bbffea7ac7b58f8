"""An in-process runner for the ``qspt`` command line.

``CliRunner().invoke(main, args)`` runs ``main(args=args)`` with stdout and
stderr captured, and returns a ``Result``: ``exit_code``, ``stdout``, ``stderr``,
``output`` (both streams, as they were written) and ``exception`` (the
``SystemExit`` of a nonzero exit, or an exception that escaped ``main``).
"""

import io
import sys


class _Tee(io.StringIO):
    """One captured stream, which also writes to the stream both share."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class Result:
    def __init__(self, exit_code, stdout, stderr, output, exception) -> None:
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output
        self.exception = exception

    def __repr__(self) -> str:
        return f"<Result exit_code={self.exit_code} exception={self.exception!r}>"


class CliRunner:
    def invoke(self, cli, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exception = None
        try:
            cli(args=list(args), prog_name="qspt")
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            if exit_code:
                exception = exc
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved
        return Result(exit_code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
