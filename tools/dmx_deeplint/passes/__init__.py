"""Deeplint pass registry. Each pass module exposes RULE (its id) and
run(models, ctx) -> [Finding]; lock_order additionally renders the
derived hierarchy document."""

from passes import blocking_under_lock, lock_order, mutex_discipline, \
    status_discipline, vector_dispatch

ALL_PASSES = {
    lock_order.RULE: lock_order,
    blocking_under_lock.RULE: blocking_under_lock,
    status_discipline.RULE: status_discipline,
    vector_dispatch.RULE: vector_dispatch,
    mutex_discipline.RULE: mutex_discipline,
}
