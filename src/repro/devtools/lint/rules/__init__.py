"""The flowlint rule battery.

Importing this package registers every rule with
:data:`repro.devtools.lint.engine.REGISTRY`.  Adding a rule = adding a
module here and importing it below.
"""

from repro.devtools.lint.rules import (  # noqa: F401  (registration side effect)
    cache_coherence,
    exception_hygiene,
    fold_determinism,
    lock_discipline,
    thread_confinement,
)
