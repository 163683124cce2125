// The crash drills' equality: a recovered replay must match the
// uninterrupted run field for field. ReplayDifference names the first
// field that differs ("" when none does): the report's outcome counters,
// every task outcome, each epoch's exact epsilon spend and budget denials,
// and the engine's final state (worker registry, free-list recycling
// order, RNG state, tree epoch and the whole budget ledger). Timings,
// metrics and the recovery's own counters are not compared.

#pragma once

#include <sstream>
#include <string>

#include "serve/replay.h"

namespace tbf {

inline std::string ReplayDifference(const ReplayReport& got,
                                    const ReplayReport& want) {
  std::ostringstream first;
  const auto check = [&first](bool same, const auto&... where) {
    if (!same && first.tellp() == 0) ((first << where), ...);
  };
  check(got.registered == want.registered, "registered");
  check(got.assigned == want.assigned, "assigned");
  check(got.unassigned == want.unassigned, "unassigned");
  check(got.denied == want.denied, "denied");
  check(got.shed == want.shed, "shed");
  check(got.quarantined == want.quarantined, "quarantined");
  check(got.missed_departures == want.missed_departures, "missed_departures");
  check(got.processed_events == want.processed_events, "processed_events");
  check(got.republishes == want.republishes, "republishes");
  check(got.task_outcomes.size() == want.task_outcomes.size(),
        "task_outcomes.size");
  for (size_t i = 0; i < got.task_outcomes.size() && first.tellp() == 0 &&
                     i < want.task_outcomes.size();
       ++i) {
    const TaskOutcome& g = got.task_outcomes[i];
    const TaskOutcome& w = want.task_outcomes[i];
    check(g.task_id == w.task_id && g.status.code() == w.status.code() &&
              g.worker == w.worker &&
              g.reported_tree_distance == w.reported_tree_distance,
          "task ", i);
  }
  check(got.per_epoch.size() == want.per_epoch.size(), "per_epoch.size");
  for (size_t i = 0; i < got.per_epoch.size() && first.tellp() == 0 &&
                     i < want.per_epoch.size();
       ++i) {
    const EpochStats& g = got.per_epoch[i];
    const EpochStats& w = want.per_epoch[i];
    check(g.epsilon_spent == w.epsilon_spent &&
              g.denied_epoch_budget == w.denied_epoch_budget &&
              g.denied_lifetime_budget == w.denied_lifetime_budget,
          "epoch ", i);
  }
  check(got.final_state.has_value() == want.final_state.has_value(),
        "final_state presence");
  if (first.tellp() != 0 || !got.final_state.has_value()) return first.str();

  const ShardedServerState& g = *got.final_state;
  const ShardedServerState& w = *want.final_state;
  check(g.assigned_tasks == w.assigned_tasks, "state.assigned_tasks");
  check(g.tree_epoch == w.tree_epoch, "state.tree_epoch");
  check(g.rng_state == w.rng_state, "state.rng_state");
  check(g.pool_size == w.pool_size, "state.pool_size");
  check(g.free_index_ids == w.free_index_ids, "state.free_index_ids");
  check(g.workers.size() == w.workers.size(), "state.workers.size");
  for (size_t i = 0; i < g.workers.size() && first.tellp() == 0 &&
                     i < w.workers.size();
       ++i) {
    check(g.workers[i].id == w.workers[i].id &&
              g.workers[i].code == w.workers[i].code &&
              g.workers[i].index_id == w.workers[i].index_id &&
              g.workers[i].shard == w.workers[i].shard,
          "state.worker ", i);
  }
  check(g.ledger.has_value() == w.ledger.has_value(), "state.ledger presence");
  if (first.tellp() != 0 || !g.ledger.has_value()) return first.str();
  check(g.ledger->epoch == w.ledger->epoch, "ledger.epoch");
  check(g.ledger->epoch_spent == w.ledger->epoch_spent, "ledger.epoch_spent");
  check(g.ledger->lifetime_spent == w.ledger->lifetime_spent,
        "ledger.lifetime_spent");
  check(g.ledger->totals.epsilon_spent == w.ledger->totals.epsilon_spent,
        "ledger.epsilon_spent");
  check(g.ledger->totals.charges == w.ledger->totals.charges,
        "ledger.charges");
  check(g.ledger->totals.denied_epoch == w.ledger->totals.denied_epoch,
        "ledger.denied_epoch");
  check(g.ledger->totals.denied_lifetime == w.ledger->totals.denied_lifetime,
        "ledger.denied_lifetime");
  return first.str();
}

}  // namespace tbf
