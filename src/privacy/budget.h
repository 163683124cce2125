// Privacy budget accounting.
//
// The paper analyzes a single report per user. Deployments re-report
// (drivers move, tasks are reposted); each extra report through an
// eps-Geo-I mechanism composes additively (sequential composition of
// differential privacy). EpochBudgetLedger implements the resulting
// admission control: per-user spend is capped by an optional lifetime cap
// that composes across all epochs and, optionally, rate-limited per
// event-time epoch, so a user who burns their per-epoch allowance is
// refused only until the next epoch begins (rollover). A per-user
// lifetime tally is kept only under a lifetime cap, the one thing it
// decides. Without one, per-user lifetime spend is not kept anywhere and
// only the aggregate can be audited: a durable serving directory holds
// its oldest retained checkpoint's ledger total plus the epsilon_charged
// of every later journal record (docs/ROBUSTNESS.md).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace tbf {

/// \brief Sequential composition: total budget of k eps-Geo-I reports.
double ComposedEpsilon(double epsilon_per_report, int reports);

/// \brief Reports permitted under `total_budget` at `epsilon_per_report`
/// (floor; 0 when a single report already exceeds the budget).
int MaxReports(double total_budget, double epsilon_per_report);

/// \brief Epoch-aware per-user budget ledger.
///
/// Charges are admitted only when they fit every configured cap: the
/// per-epoch cap and the lifetime cap. A refused charge records nothing
/// against either. Per-epoch spend is tracked (and exported) whether or
/// not an epoch cap is set; per-user lifetime spend (the lifetime table)
/// only when a lifetime cap is set. BeginEpoch moves accounting to a
/// later epoch and clears every user's per-epoch spend (rollover) —
/// lifetime spend persists. The Totals count every charge either way.
/// Independent ledgers share no state, so a serving engine may keep one
/// per shard (or one global one) without cross-talk.
///
/// Thread-compatible (guard externally if shared across threads).
class EpochBudgetLedger {
 public:
  /// Running totals across all users and epochs — the ledger's own
  /// flight-recorder view, always on (independent of the metrics
  /// switches) so replay reports and tests can rely on it.
  struct Totals {
    double epsilon_spent = 0.0;    ///< sum of admitted charges
    uint64_t charges = 0;          ///< admitted charges
    uint64_t denied_epoch = 0;     ///< refused: per-epoch cap
    uint64_t denied_lifetime = 0;  ///< refused: lifetime cap
  };

  /// Full serializable accounting state (for crash-safe checkpoints).
  /// Spend lists are in first-charge order (the order users first spent
  /// within the epoch / ever); RestoreState keeps that order, so an
  /// uninterrupted and a restored run export identical vectors and
  /// serialization is byte-deterministic without a sort.
  struct State {
    int64_t epoch = 0;
    std::vector<std::pair<std::string, double>> epoch_spent;
    /// The lifetime table: empty when no lifetime cap is set.
    std::vector<std::pair<std::string, double>> lifetime_spent;
    Totals totals;
  };

  /// \param epoch_budget optional maximum epsilon per user within one
  ///   epoch (> 0); unset, only the lifetime cap applies.
  /// \param lifetime_budget optional cumulative cap across all epochs
  ///   (> 0, and at least `epoch_budget` to be satisfiable in one epoch —
  ///   smaller values are allowed but make the epoch cap unreachable).
  /// \param metrics registry receiving the tbf_privacy_* series
  ///   (see docs/OBSERVABILITY.md); nullptr uses the process-wide one.
  explicit EpochBudgetLedger(std::optional<double> epoch_budget,
                             std::optional<double> lifetime_budget = std::nullopt,
                             obs::MetricRegistry* metrics = nullptr);

  // The order lists point into the spend maps' nodes.
  EpochBudgetLedger(const EpochBudgetLedger&) = delete;
  EpochBudgetLedger& operator=(const EpochBudgetLedger&) = delete;

  /// Current epoch index (starts at 0).
  int64_t epoch() const { return epoch_; }

  /// \brief Moves to `epoch`, clearing all per-epoch spend. Jumps forward
  /// over empty epochs are fine; moving backwards fails with
  /// InvalidArgument. Re-entering the current epoch is a no-op.
  Status BeginEpoch(int64_t epoch);

  /// \brief Convenience: BeginEpoch(epoch() + 1).
  void AdvanceEpoch();

  /// \brief Records a spend of `epsilon` for `user`; fails with
  /// FailedPrecondition (recording nothing) when a configured per-epoch or
  /// lifetime cap would be exceeded, and with InvalidArgument when
  /// `epsilon` is not positive and finite.
  Status Charge(const std::string& user, double epsilon);

  /// \brief True when a further spend of `epsilon` would be admitted now.
  bool CanCharge(const std::string& user, double epsilon) const;

  /// \brief Spend of `user` within the current epoch (0 for unknown users).
  double SpentThisEpoch(const std::string& user) const;

  /// \brief Cumulative spend of `user` across all epochs (0 for unknown
  /// users); nullopt when no lifetime cap is set, since the ledger then
  /// keeps no lifetime table and per-user lifetime spend is not kept
  /// (totals() still holds the aggregate).
  std::optional<double> SpentLifetime(const std::string& user) const;

  /// \brief Headroom of `user` under every configured cap (infinite when
  /// none is set).
  double RemainingThisEpoch(const std::string& user) const;

  /// Users in the lifetime table: those with non-zero lifetime spend
  /// when a lifetime cap is set, always 0 without one (no table is kept).
  /// The tbf_privacy_users gauge mirrors it.
  size_t num_users() const { return lifetime_spent_.size(); }

  /// Cumulative admission/denial totals (see Totals).
  const Totals& totals() const { return totals_; }

  /// \brief Largest lifetime spend across all users (0 when no user has
  /// spent); nullopt when no lifetime cap is set (no table is kept).
  std::optional<double> MaxLifetimeSpent() const;

  /// \brief Snapshot of the full accounting state, in first-charge order
  /// (O(users), no sort).
  State ExportState() const;

  /// \brief Restores a state produced by ExportState. Caps are not part of
  /// the state and must match the construction parameters: lifetime rows
  /// for a ledger without a lifetime cap are refused (InvalidArgument).
  /// The registry counters are NOT re-added (a checkpoint resume merges
  /// the saved metrics snapshot separately), only the gauges are
  /// refreshed.
  Status RestoreState(const State& state);

 private:
  std::optional<double> epoch_budget_;
  std::optional<double> lifetime_budget_;
  int64_t epoch_ = 0;
  using SpendMap = std::unordered_map<std::string, double>;
  /// Map nodes in first-charge order. Node pointers survive rehashing and
  /// entries are only ever cleared wholesale (with their list), so the
  /// pointers stay valid for the list's lifetime.
  using SpendOrder = std::vector<const SpendMap::value_type*>;

  // `user`'s entry in `spent` (0 when absent).
  static double Spent(const SpendMap& spent, const std::string& user);
  // Sets `user`'s entry to `total`, appending a first entry to `order`;
  // true when the entry is new.
  static bool Record(SpendMap* spent, SpendOrder* order,
                     const std::string& user, double total);

  SpendMap epoch_spent_;
  SpendMap lifetime_spent_;  // empty unless lifetime_budget_ is set
  SpendOrder epoch_order_;
  SpendOrder lifetime_order_;

  Totals totals_;
  // Registry mirrors of totals_ (Prometheus/JSONL export surface).
  obs::DoubleCounter* epsilon_spent_metric_;
  obs::Counter* charges_metric_;
  obs::Counter* denied_epoch_metric_;
  obs::Counter* denied_lifetime_metric_;
  obs::Gauge* epoch_metric_;
  obs::Gauge* users_metric_;
};

}  // namespace tbf
