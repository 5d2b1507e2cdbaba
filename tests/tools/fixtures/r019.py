"""R019 fixture: collector records flow only through the search recorder.

Linted under the synthetic path ``src/repro/core/demo19.py`` so the
production pass scoping (every non-test repro module outside
``repro.obs.recorder``) applies directly.
"""

from repro.obs import costmodel
from repro.obs.provenance import ProvenanceCollector, active_collector


def bad_inline_construction(pattern):
    ProvenanceCollector().record_pruned(  # expect: R019
        pattern, site="support", level=1, root="A+"
    )


def bad_hoisted_seam_local(pattern, sids):
    prov = active_collector()
    if prov is not None:
        prov.record_emitted(  # expect: R019
            pattern, 3.0, sids, {}, root="A+", level=2
        )


def bad_attribute_receiver(self_like, label):
    self_like.prov.record_pruned_label(  # expect: R019
        label, "interval", 1.0, 2.0
    )


def bad_cost_root(before, after):
    cost = costmodel.active_collector()
    if cost is not None:
        cost.record_root("A+", 0.0, before, after)  # expect: R019


def ok_recorder_event(rec, cand):
    if rec is not None:
        rec.pruned("pair", 2, cand, threshold=3.0)


def ok_snapshot_and_merge(shard_snapshot):
    collector = ProvenanceCollector()
    collector.absorb(shard_snapshot)
    return collector.snapshot()
