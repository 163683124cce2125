#include "privacy/budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault.h"
#include "common/logging.h"

namespace tbf {

double ComposedEpsilon(double epsilon_per_report, int reports) {
  if (reports <= 0) return 0.0;
  return epsilon_per_report * reports;
}

int MaxReports(double total_budget, double epsilon_per_report) {
  if (epsilon_per_report <= 0.0 || total_budget <= 0.0) return 0;
  // Guard the floor against representation error at exact multiples.
  return static_cast<int>(std::floor(total_budget / epsilon_per_report + 1e-12));
}

namespace {

// Cap admission with a relative tolerance, so spends that reach a cap
// exactly are admitted despite representation error at exact multiples.
// An unset cap admits everything.
inline bool FitsCap(double spent, double epsilon,
                    const std::optional<double>& cap) {
  return !cap || spent + epsilon <= *cap * (1.0 + 1e-12);
}

// A chargeable epsilon is strictly positive AND finite. `epsilon <= 0.0`
// alone would let NaN through (every comparison with NaN is false) and
// +inf past it, silently corrupting every subsequent cap check.
inline bool ChargeableEpsilon(double epsilon) {
  return std::isfinite(epsilon) && epsilon > 0.0;
}

}  // namespace

EpochBudgetLedger::EpochBudgetLedger(std::optional<double> epoch_budget,
                                     std::optional<double> lifetime_budget,
                                     obs::MetricRegistry* metrics)
    : epoch_budget_(epoch_budget), lifetime_budget_(lifetime_budget) {
  TBF_CHECK(!epoch_budget || *epoch_budget > 0.0)
      << "epoch budget must be positive";
  TBF_CHECK(!lifetime_budget || *lifetime_budget > 0.0)
      << "lifetime budget must be positive";
  if (metrics == nullptr) metrics = obs::MetricRegistry::Global();
  epsilon_spent_metric_ =
      metrics->FindOrCreateDoubleCounter("tbf_privacy_epsilon_spent_total");
  charges_metric_ = metrics->FindOrCreateCounter("tbf_privacy_charges_total");
  denied_epoch_metric_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_privacy_denials_total", "cause", "epoch"));
  denied_lifetime_metric_ = metrics->FindOrCreateCounter(
      obs::LabeledName("tbf_privacy_denials_total", "cause", "lifetime"));
  epoch_metric_ = metrics->FindOrCreateGauge("tbf_privacy_epoch");
  users_metric_ = metrics->FindOrCreateGauge("tbf_privacy_users");
}

Status EpochBudgetLedger::BeginEpoch(int64_t epoch) {
  if (epoch < epoch_) {
    return Status::InvalidArgument("epochs only move forward: at " +
                                   std::to_string(epoch_) + ", asked for " +
                                   std::to_string(epoch));
  }
  if (epoch > epoch_) {
    epoch_ = epoch;
    epoch_spent_.clear();
    epoch_order_.clear();
    epoch_metric_->Set(epoch);
  }
  return Status::OK();
}

void EpochBudgetLedger::AdvanceEpoch() {
  Status status = BeginEpoch(epoch_ + 1);
  TBF_CHECK(status.ok());
}

Status EpochBudgetLedger::Charge(const std::string& user, double epsilon) {
  if (!ChargeableEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  // Injection site "budget.charge": a scheduled kExhaustBudget refuses the
  // charge exactly as a cap hit would (counted as an epoch denial).
  Status injected = TBF_FAULT_INJECT("budget.charge");
  if (!injected.ok()) {
    ++totals_.denied_epoch;
    denied_epoch_metric_->Add(1);
    return injected;
  }
  const double in_epoch = Spent(epoch_spent_, user);
  if (!FitsCap(in_epoch, epsilon, epoch_budget_)) {
    ++totals_.denied_epoch;
    denied_epoch_metric_->Add(1);
    return Status::FailedPrecondition("epoch budget exhausted for user " + user);
  }
  // Without a lifetime cap there is no table to consult or update.
  const double lifetime = lifetime_budget_ ? Spent(lifetime_spent_, user) : 0.0;
  if (!FitsCap(lifetime, epsilon, lifetime_budget_)) {
    ++totals_.denied_lifetime;
    denied_lifetime_metric_->Add(1);
    return Status::FailedPrecondition("lifetime budget exhausted for user " +
                                      user);
  }
  Record(&epoch_spent_, &epoch_order_, user, in_epoch + epsilon);
  if (lifetime_budget_ &&
      Record(&lifetime_spent_, &lifetime_order_, user, lifetime + epsilon)) {
    users_metric_->Set(static_cast<int64_t>(lifetime_spent_.size()));
  }
  totals_.epsilon_spent += epsilon;
  ++totals_.charges;
  epsilon_spent_metric_->Add(epsilon);
  charges_metric_->Add(1);
  return Status::OK();
}

double EpochBudgetLedger::Spent(const SpendMap& spent,
                                const std::string& user) {
  const auto it = spent.find(user);
  return it == spent.end() ? 0.0 : it->second;
}

bool EpochBudgetLedger::Record(SpendMap* spent, SpendOrder* order,
                               const std::string& user, double total) {
  const auto [it, first] = spent->try_emplace(user, total);
  if (first) {
    order->push_back(&*it);
  } else {
    it->second = total;
  }
  return first;
}

bool EpochBudgetLedger::CanCharge(const std::string& user, double epsilon) const {
  return ChargeableEpsilon(epsilon) &&
         FitsCap(Spent(epoch_spent_, user), epsilon, epoch_budget_) &&
         FitsCap(Spent(lifetime_spent_, user), epsilon, lifetime_budget_);
}

double EpochBudgetLedger::SpentThisEpoch(const std::string& user) const {
  return Spent(epoch_spent_, user);
}

std::optional<double> EpochBudgetLedger::SpentLifetime(
    const std::string& user) const {
  if (!lifetime_budget_) return std::nullopt;
  return Spent(lifetime_spent_, user);
}

double EpochBudgetLedger::RemainingThisEpoch(const std::string& user) const {
  double rest = std::numeric_limits<double>::infinity();
  if (epoch_budget_) rest = *epoch_budget_ - Spent(epoch_spent_, user);
  if (lifetime_budget_) {
    rest = std::min(rest, *lifetime_budget_ - Spent(lifetime_spent_, user));
  }
  return rest > 0.0 ? rest : 0.0;
}

namespace {

template <typename Order>
std::vector<std::pair<std::string, double>> InOrder(const Order& order) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(order.size());
  for (const auto* entry : order) out.emplace_back(entry->first, entry->second);
  return out;
}

// Rebuilds a spend map and its order list from exported rows, refusing
// non-finite or negative spends and repeated users.
template <typename Map, typename Order>
Status LoadSpend(const std::vector<std::pair<std::string, double>>& rows,
                 const char* scope, Map* map, Order* order) {
  map->reserve(rows.size());
  order->reserve(rows.size());
  for (const auto& [user, eps] : rows) {
    if (!std::isfinite(eps) || eps < 0.0) {
      return Status::InvalidArgument(std::string("ledger state: bad ") +
                                     scope + " spend for " + user);
    }
    const auto [it, inserted] = map->emplace(user, eps);
    if (!inserted) {
      return Status::InvalidArgument(std::string("ledger state: repeated ") +
                                     scope + " spend for " + user);
    }
    order->push_back(&*it);
  }
  return Status::OK();
}

}  // namespace

std::optional<double> EpochBudgetLedger::MaxLifetimeSpent() const {
  if (!lifetime_budget_) return std::nullopt;
  double max_spend = 0.0;
  for (const auto& [user, eps] : lifetime_spent_) {
    max_spend = std::max(max_spend, eps);
  }
  return max_spend;
}

EpochBudgetLedger::State EpochBudgetLedger::ExportState() const {
  State state;
  state.epoch = epoch_;
  state.epoch_spent = InOrder(epoch_order_);
  state.lifetime_spent = InOrder(lifetime_order_);
  state.totals = totals_;
  return state;
}

Status EpochBudgetLedger::RestoreState(const State& state) {
  if (!lifetime_budget_ && !state.lifetime_spent.empty()) {
    return Status::InvalidArgument(
        "ledger state: " + std::to_string(state.lifetime_spent.size()) +
        " lifetime spend rows for a ledger without a lifetime cap");
  }
  // Build aside and swap in, so a refused state leaves the ledger as it
  // was. Swapping maps keeps node addresses, so the order lists hold.
  SpendMap epoch_spent, lifetime_spent;
  SpendOrder epoch_order, lifetime_order;
  TBF_RETURN_NOT_OK(
      LoadSpend(state.epoch_spent, "epoch", &epoch_spent, &epoch_order));
  TBF_RETURN_NOT_OK(LoadSpend(state.lifetime_spent, "lifetime",
                              &lifetime_spent, &lifetime_order));
  epoch_ = state.epoch;
  epoch_spent_.swap(epoch_spent);
  lifetime_spent_.swap(lifetime_spent);
  epoch_order_.swap(epoch_order);
  lifetime_order_.swap(lifetime_order);
  totals_ = state.totals;
  epoch_metric_->Set(epoch_);
  users_metric_->Set(static_cast<int64_t>(lifetime_spent_.size()));
  return Status::OK();
}

}  // namespace tbf
