"""The flowlint rule battery.

Importing this package registers every rule with
:data:`repro.devtools.lint.engine.REGISTRY`.  Adding a rule = adding a
module here and importing it below.
"""

from repro.devtools.lint.rules import (  # noqa: F401  (registration side effect)
    atomic_commit,
    blocking_async,
    cache_coherence,
    exception_hygiene,
    fault_reporting,
    fold_determinism,
    lock_discipline,
    thread_confinement,
    wire_format,
)
