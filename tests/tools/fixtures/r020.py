"""R020 fixture: ledger entries are assembled by build_entry, not inline.

Linted under the synthetic path ``src/repro/obs/demo20.py`` so the
production pass scoping (every non-test repro module except
``repro.obs.ledger`` itself) applies directly. ``.append`` with a dict
literal on a ledger receiver bypasses the schema stamp and the
cost-block normalisation; passing a ``build_entry(...)``
result (or any non-literal expression) is fine.
"""


def bad_inline_entry(ledger, result):
    ledger.append({"schema": 1, "patterns": len(result.patterns)})  # expect: R020


def bad_inline_comprehension(run_ledger, rows):
    run_ledger.append({k: v for k, v in rows})  # expect: R020


def ok_build_entry(ledger, build_entry, result):
    ledger.append(build_entry(result=result))


def ok_prebuilt_name(ledger, entry):
    ledger.append(entry)


def ok_unrelated_list(rows):
    rows.append({"not": "a ledger"})
