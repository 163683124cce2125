#include "privacy/budget.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tbf {
namespace {

TEST(ComposedEpsilonTest, Additive) {
  EXPECT_DOUBLE_EQ(ComposedEpsilon(0.2, 5), 1.0);
  EXPECT_DOUBLE_EQ(ComposedEpsilon(0.2, 0), 0.0);
  EXPECT_DOUBLE_EQ(ComposedEpsilon(0.2, -3), 0.0);
}

TEST(MaxReportsTest, Floors) {
  EXPECT_EQ(MaxReports(1.0, 0.2), 5);
  EXPECT_EQ(MaxReports(1.0, 0.3), 3);
  EXPECT_EQ(MaxReports(0.1, 0.2), 0);
  EXPECT_EQ(MaxReports(1.0, 0.0), 0);
  EXPECT_EQ(MaxReports(0.0, 0.2), 0);
}

// The lifetime spend of `user` on a ledger that keeps a lifetime table.
double Lifetime(const EpochBudgetLedger& ledger, const std::string& user) {
  const std::optional<double> spent = ledger.SpentLifetime(user);
  EXPECT_TRUE(spent.has_value()) << "no lifetime table";
  return spent.value_or(-1.0);
}

// LedgerTest: an EpochBudgetLedger with only a lifetime cap — the ledger
// a server configured with `lifetime_budget` alone runs.

TEST(LedgerTest, ChargesAndTracks) {
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  EXPECT_TRUE(ledger.Charge("alice", 0.4).ok());
  EXPECT_TRUE(ledger.Charge("alice", 0.4).ok());
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "alice"), 0.8);
  EXPECT_NEAR(ledger.RemainingThisEpoch("alice"), 0.2, 1e-12);
  EXPECT_EQ(ledger.num_users(), 1u);
}

TEST(LedgerTest, RefusesOverspend) {
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  EXPECT_TRUE(ledger.Charge("bob", 0.9).ok());
  Status overspend = ledger.Charge("bob", 0.2);
  EXPECT_EQ(overspend.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overspend.message().find("lifetime budget exhausted"),
            std::string::npos);
  EXPECT_EQ(ledger.totals().denied_lifetime, 1u);
  EXPECT_EQ(ledger.totals().denied_epoch, 0u);
  // A refused charge must not consume anything.
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "bob"), 0.9);
  // A smaller charge still fits.
  EXPECT_TRUE(ledger.Charge("bob", 0.1).ok());
  EXPECT_NEAR(Lifetime(ledger, "bob"), 1.0, 1e-12);
}

TEST(LedgerTest, ExactBudgetIsAdmitted) {
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ledger.Charge("carol", 0.2).ok()) << "report " << i;
  }
  EXPECT_FALSE(ledger.Charge("carol", 0.2).ok());
  // Without an epoch cap, rollover does not restore anything.
  ledger.AdvanceEpoch();
  EXPECT_FALSE(ledger.Charge("carol", 0.2).ok());
}

TEST(LedgerTest, UsersAreIndependent) {
  EpochBudgetLedger ledger(std::nullopt, 0.5);
  EXPECT_TRUE(ledger.Charge("u1", 0.5).ok());
  EXPECT_TRUE(ledger.Charge("u2", 0.5).ok());
  EXPECT_FALSE(ledger.Charge("u1", 0.1).ok());
  EXPECT_EQ(ledger.num_users(), 2u);
}

TEST(LedgerTest, CanChargePredictsCharge) {
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  EXPECT_TRUE(ledger.CanCharge("dave", 1.0));
  EXPECT_FALSE(ledger.CanCharge("dave", 1.1));
  EXPECT_FALSE(ledger.CanCharge("dave", 0.0));
  ASSERT_TRUE(ledger.Charge("dave", 0.7).ok());
  EXPECT_TRUE(ledger.CanCharge("dave", 0.3));
  EXPECT_FALSE(ledger.CanCharge("dave", 0.31));
}

TEST(LedgerTest, RejectsNonPositiveCharge) {
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  EXPECT_EQ(ledger.Charge("eve", 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.Charge("eve", -0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.num_users(), 0u);
}

TEST(LedgerTest, RejectsNonFiniteCharge) {
  // NaN defeats every cap comparison (all comparisons false) and +inf
  // would blow past any cap; both must be refused up front, charging
  // nothing and leaving the user table untouched.
  EpochBudgetLedger ledger(std::nullopt, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ledger.Charge("mallory", nan).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.Charge("mallory", inf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.Charge("mallory", -inf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ledger.CanCharge("mallory", nan));
  EXPECT_FALSE(ledger.CanCharge("mallory", inf));
  EXPECT_EQ(ledger.num_users(), 0u);
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "mallory"), 0.0);
  // The guard must not break legitimate extreme-but-finite charges.
  EXPECT_TRUE(ledger.Charge("mallory", 1e-300).ok());
}

TEST(LedgerTest, UnknownUserHasFullBudget) {
  EpochBudgetLedger ledger(std::nullopt, 2.0);
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "nobody"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.RemainingThisEpoch("nobody"), 2.0);
}

TEST(LedgerDeathTest, RejectsBadLifetimeBudget) {
  EXPECT_DEATH(EpochBudgetLedger(std::nullopt, 0.0), "positive");
}

TEST(EpochLedgerTest, ExhaustedEpochBudgetRefusesUntilRollover) {
  EpochBudgetLedger ledger(0.4);
  EXPECT_TRUE(ledger.Charge("alice", 0.2).ok());
  EXPECT_TRUE(ledger.Charge("alice", 0.2).ok());
  Status refused = ledger.Charge("alice", 0.2);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // A refused charge records nothing.
  EXPECT_DOUBLE_EQ(ledger.SpentThisEpoch("alice"), 0.4);
  EXPECT_DOUBLE_EQ(ledger.totals().epsilon_spent, 0.4);
  EXPECT_DOUBLE_EQ(ledger.RemainingThisEpoch("alice"), 0.0);
  // Rollover restores the per-epoch headroom.
  ledger.AdvanceEpoch();
  EXPECT_EQ(ledger.epoch(), 1);
  EXPECT_TRUE(ledger.Charge("alice", 0.2).ok());
  EXPECT_DOUBLE_EQ(ledger.SpentThisEpoch("alice"), 0.2);
  // The epoch cap alone keeps no lifetime table; the totals compose.
  EXPECT_FALSE(ledger.SpentLifetime("alice").has_value());
  EXPECT_DOUBLE_EQ(ledger.totals().epsilon_spent, 0.6);
}

TEST(EpochLedgerTest, LifetimeCapBindsAcrossEpochs) {
  EpochBudgetLedger ledger(0.4, 0.6);
  EXPECT_TRUE(ledger.Charge("bob", 0.4).ok());
  ledger.AdvanceEpoch();
  // Epoch headroom is 0.4, but the lifetime cap only admits 0.2 more.
  EXPECT_NEAR(ledger.RemainingThisEpoch("bob"), 0.2, 1e-12);
  EXPECT_FALSE(ledger.CanCharge("bob", 0.3));
  EXPECT_FALSE(ledger.Charge("bob", 0.3).ok());
  EXPECT_TRUE(ledger.Charge("bob", 0.2).ok());
  ledger.AdvanceEpoch();
  // Lifetime exhausted: no rollover can help.
  EXPECT_EQ(ledger.Charge("bob", 0.1).code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "bob"), 0.6);
}

TEST(EpochLedgerTest, BeginEpochJumpsForwardButNeverBack) {
  EpochBudgetLedger ledger(1.0);
  ASSERT_TRUE(ledger.Charge("carol", 1.0).ok());
  // Jump over empty epochs (replay traces have gaps).
  EXPECT_TRUE(ledger.BeginEpoch(7).ok());
  EXPECT_EQ(ledger.epoch(), 7);
  EXPECT_DOUBLE_EQ(ledger.SpentThisEpoch("carol"), 0.0);
  EXPECT_TRUE(ledger.Charge("carol", 1.0).ok());
  // Re-entering the current epoch is a no-op, not a reset.
  EXPECT_TRUE(ledger.BeginEpoch(7).ok());
  EXPECT_DOUBLE_EQ(ledger.SpentThisEpoch("carol"), 1.0);
  EXPECT_EQ(ledger.BeginEpoch(6).code(), StatusCode::kInvalidArgument);
}

TEST(EpochLedgerTest, UsersAndLedgersAreIsolated) {
  // One ledger per shard must not cross-talk: exhausting a user on one
  // ledger leaves the same user untouched on another, and users within a
  // ledger are independent.
  EpochBudgetLedger shard0(0.5);
  EpochBudgetLedger shard1(0.5);
  EXPECT_TRUE(shard0.Charge("u", 0.5).ok());
  EXPECT_FALSE(shard0.CanCharge("u", 0.1));
  EXPECT_TRUE(shard1.CanCharge("u", 0.5));
  EXPECT_TRUE(shard1.Charge("u", 0.5).ok());
  EXPECT_TRUE(shard0.Charge("v", 0.5).ok());
  EXPECT_EQ(shard0.ExportState().epoch_spent.size(), 2u);
  EXPECT_EQ(shard1.ExportState().epoch_spent.size(), 1u);
  // Rollover on one ledger does not advance the other.
  shard0.AdvanceEpoch();
  EXPECT_EQ(shard0.epoch(), 1);
  EXPECT_EQ(shard1.epoch(), 0);
  EXPECT_TRUE(shard0.CanCharge("u", 0.5));
  EXPECT_FALSE(shard1.CanCharge("u", 0.1));
}

TEST(EpochLedgerTest, ExactCapsAdmittedDespiteRounding) {
  EpochBudgetLedger ledger(1.0, 2.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ledger.Charge("dave", 0.2).ok()) << "report " << i;
  }
  EXPECT_FALSE(ledger.Charge("dave", 0.2).ok());
  ledger.AdvanceEpoch();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ledger.Charge("dave", 0.2).ok()) << "report " << i;
  }
  // Lifetime cap reached exactly.
  EXPECT_FALSE(ledger.CanCharge("dave", 0.2));
}

TEST(EpochLedgerTest, RejectsNonPositiveCharge) {
  EpochBudgetLedger ledger(1.0);
  EXPECT_EQ(ledger.Charge("eve", 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.Charge("eve", -1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ledger.CanCharge("eve", 0.0));
  EXPECT_EQ(ledger.num_users(), 0u);
}

TEST(EpochLedgerTest, RejectsNonFiniteCharge) {
  EpochBudgetLedger ledger(1.0, 2.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(ledger.Charge("frank", 0.5).ok());
  Status refused = ledger.Charge("frank", nan);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("positive and finite"), std::string::npos);
  EXPECT_EQ(ledger.Charge("frank", inf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.Charge("frank", -inf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ledger.CanCharge("frank", nan));
  // A refused non-finite charge corrupts no accounting: the earlier valid
  // spend is still intact and further valid charges still work.
  EXPECT_DOUBLE_EQ(ledger.SpentThisEpoch("frank"), 0.5);
  EXPECT_DOUBLE_EQ(Lifetime(ledger, "frank"), 0.5);
  EXPECT_TRUE(ledger.Charge("frank", 0.5).ok());
  EXPECT_EQ(ledger.totals().charges, 2u);
}

TEST(EpochLedgerTest, ExportListsUsersInFirstChargeOrderAndRestoreKeepsIt) {
  using Rows = std::vector<std::pair<std::string, double>>;
  obs::MetricRegistry metrics;
  EpochBudgetLedger ledger(1.0, 3.0, &metrics);
  ASSERT_TRUE(ledger.Charge("zoe", 0.5).ok());
  ASSERT_TRUE(ledger.Charge("adam", 0.25).ok());
  ASSERT_TRUE(ledger.Charge("zoe", 0.25).ok());   // a repeat keeps its slot
  EXPECT_FALSE(ledger.Charge("adam", 0.9).ok());  // refused: records nothing
  EXPECT_FALSE(ledger.Charge("ivy", 1.5).ok());   // never charged: not listed
  ASSERT_TRUE(ledger.Charge("mia", 0.5).ok());
  EpochBudgetLedger::State state = ledger.ExportState();
  const Rows first_epoch{{"zoe", 0.75}, {"adam", 0.25}, {"mia", 0.5}};
  EXPECT_EQ(state.epoch_spent, first_epoch);
  EXPECT_EQ(state.lifetime_spent, first_epoch);

  // Rollover restarts the epoch order; the lifetime order persists.
  ASSERT_TRUE(ledger.BeginEpoch(1).ok());
  ASSERT_TRUE(ledger.Charge("mia", 0.5).ok());
  ASSERT_TRUE(ledger.Charge("bob", 0.5).ok());
  ASSERT_TRUE(ledger.Charge("zoe", 0.5).ok());
  state = ledger.ExportState();
  EXPECT_EQ(state.epoch_spent, (Rows{{"mia", 0.5}, {"bob", 0.5}, {"zoe", 0.5}}));
  EXPECT_EQ(state.lifetime_spent, (Rows{{"zoe", 1.25},
                                        {"adam", 0.25},
                                        {"mia", 1.0},
                                        {"bob", 0.5}}));

  // A restore keeps the order, and later first charges append after it
  // exactly as they do in the uninterrupted ledger.
  EpochBudgetLedger restored(1.0, 3.0, &metrics);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  for (EpochBudgetLedger* l : {&ledger, &restored}) {
    ASSERT_TRUE(l->Charge("eve", 0.5).ok());
    ASSERT_TRUE(l->Charge("adam", 0.5).ok());
  }
  const EpochBudgetLedger::State want = ledger.ExportState();
  const EpochBudgetLedger::State got = restored.ExportState();
  EXPECT_EQ(got.epoch_spent, want.epoch_spent);
  EXPECT_EQ(got.lifetime_spent, want.lifetime_spent);
  EXPECT_EQ(got.epoch_spent.back().first, "adam");
  EXPECT_EQ(got.lifetime_spent.back().first, "eve");

  // A state listing a user twice is refused and changes nothing.
  EpochBudgetLedger::State repeated = want;
  repeated.lifetime_spent.emplace_back("zoe", 0.1);
  EXPECT_EQ(restored.RestoreState(repeated).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.ExportState().lifetime_spent, want.lifetime_spent);
}

TEST(EpochLedgerTest, WithoutALifetimeCapNoLifetimeTableIsKept) {
  // The epoch cap alone: per-user lifetime spend decides nothing, so the
  // ledger keeps no table, and every accessor of it says so.
  obs::MetricRegistry metrics;
  EpochBudgetLedger ledger(1.0, std::nullopt, &metrics);
  ASSERT_TRUE(ledger.Charge("zoe", 0.5).ok());
  ASSERT_TRUE(ledger.Charge("adam", 0.25).ok());
  ASSERT_TRUE(ledger.BeginEpoch(1).ok());
  ASSERT_TRUE(ledger.Charge("zoe", 0.75).ok());
  EXPECT_FALSE(ledger.SpentLifetime("zoe").has_value());
  EXPECT_FALSE(ledger.SpentLifetime("nobody").has_value());
  EXPECT_FALSE(ledger.MaxLifetimeSpent().has_value());
  EXPECT_EQ(ledger.num_users(), 0u);
  EXPECT_EQ(metrics.FindOrCreateGauge("tbf_privacy_users")->Value(), 0);
  EXPECT_DOUBLE_EQ(ledger.RemainingThisEpoch("zoe"), 0.25);
  // Every charge is still in the totals and the per-epoch table.
  EXPECT_EQ(ledger.totals().charges, 3u);
  EXPECT_DOUBLE_EQ(ledger.totals().epsilon_spent, 1.5);
  const EpochBudgetLedger::State state = ledger.ExportState();
  EXPECT_TRUE(state.lifetime_spent.empty());
  EXPECT_EQ(state.epoch_spent.size(), 1u);

  // Restore takes the state back, and refuses lifetime rows it cannot
  // hold, changing nothing.
  EpochBudgetLedger restored(1.0, std::nullopt, &metrics);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.ExportState().epoch_spent, state.epoch_spent);
  EpochBudgetLedger::State with_rows = state;
  with_rows.lifetime_spent.emplace_back("zoe", 1.25);
  const Status refused = restored.RestoreState(with_rows);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("without a lifetime cap"),
            std::string::npos)
      << refused.message();
  EXPECT_EQ(restored.ExportState().epoch_spent, state.epoch_spent);

  // Under a lifetime cap the same charges fill the table.
  obs::MetricRegistry capped_metrics;
  EpochBudgetLedger capped(1.0, 10.0, &capped_metrics);
  ASSERT_TRUE(capped.Charge("zoe", 0.5).ok());
  ASSERT_TRUE(capped.Charge("adam", 0.25).ok());
  ASSERT_TRUE(capped.BeginEpoch(1).ok());
  ASSERT_TRUE(capped.Charge("zoe", 0.75).ok());
  EXPECT_DOUBLE_EQ(Lifetime(capped, "zoe"), 1.25);
  EXPECT_DOUBLE_EQ(Lifetime(capped, "nobody"), 0.0);
  EXPECT_EQ(capped.MaxLifetimeSpent(), std::optional<double>(1.25));
  EXPECT_EQ(capped.num_users(), 2u);
  EXPECT_EQ(capped_metrics.FindOrCreateGauge("tbf_privacy_users")->Value(), 2);
}

TEST(EpochLedgerDeathTest, RejectsBadBudgets) {
  EXPECT_DEATH(EpochBudgetLedger(0.0), "positive");
  EXPECT_DEATH(EpochBudgetLedger(1.0, 0.0), "positive");
}

}  // namespace
}  // namespace tbf
