"""Pure terminal evaluation, memoized across runs.

Built on the purity guarantee of :meth:`MacroLegalizer.legalize` (every
call rewinds to the canonical start state), this package memoizes the
legalize-and-place results of an environment across searches, resumes
and separate runs (:class:`TerminalCache`), keyed by
:func:`environment_fingerprint`.
"""

from repro.parallel.cache import TerminalCache, environment_fingerprint

__all__ = [
    "TerminalCache",
    "environment_fingerprint",
]
