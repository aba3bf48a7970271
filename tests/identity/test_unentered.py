"""The part of the traffic audit that needs no workload run.

``traffic_audit.py`` (CI job ``audit``, minutes) runs every workload to
find which functions none of them enters.  Whether ``unentered.json``
still names real defs, and real parameters that default to ``True`` or
``False``, each with a known reason, is a question for the AST alone, so
it is asked here in tier-1: a deletion that leaves its line behind fails
in seconds instead of in the audit job.
"""

import json

from . import traffic_audit as audit


def _listed() -> dict[str, str]:
    return json.loads(audit.LIST_PATH.read_text())


def test_every_listed_def_exists():
    defined = set(audit.definitions().values())
    assert sorted(name for name in _listed()
                  if not name.endswith(")") and name not in defined) == []


def test_every_listed_parameter_exists_with_a_bool_default():
    forks = audit.forks()
    assert sorted(name for name in _listed()
                  if name.endswith(")") and name not in forks) == []


def test_every_reason_is_known():
    unknown = {name: reason for name, reason in _listed().items()
               if reason not in audit.REASONS}
    assert unknown == {}
