// Analytic oracle layer: each check flags crafted bad records and stays
// quiet on records consistent with the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"
#include "verify/oracle.hpp"

namespace iw::verify {
namespace {

sweep::Scenario test_scenario() {
  sweep::Scenario s;
  s.name = "oracle_unit";
  s.spec.delay_ms = {10.0};
  s.spec.msg_bytes = {16384};
  s.spec.np = {12};
  s.spec.noise_E_percent = {0.0, 10.0};
  s.spec.steps = 12;
  return s;  // 2 points: E = 0 and E = 10
}

/// Builds records consistent with the scenario's expansion and oracles.
std::vector<sweep::SweepRecord> clean_records(const sweep::Scenario& s) {
  std::vector<sweep::SweepRecord> records;
  for (const sweep::SweepPoint& p : sweep::expand(s.spec)) {
    sweep::SweepRecord r;
    r.index = p.index;
    r.delay_ms = p.delay_ms;
    r.msg_bytes = p.msg_bytes;
    r.np = p.np;
    r.ppn = p.ppn;
    r.noise_E_percent = p.noise_E_percent;
    r.workload = to_string(p.workload);
    r.direction = to_string(p.direction);
    r.boundary = to_string(p.boundary);
    r.nic_depth = p.nic_depth;
    r.eager_credits = p.eager_credits;
    r.rdv_flavor = to_string(p.rdv_flavor);
    r.seed = p.exp.cluster.seed;
    r.protocol = "eager";  // 16 KiB is far below the eager limit
    r.v_eq2_ranks_per_sec = 300.0;
    r.v_up_ranks_per_sec = 310.0;  // ~3% off Eq. 2
    r.decay_up_us_per_rank = 5.0 + 20.0 * p.noise_E_percent;
    r.survival_up_hops = p.noise_E_percent > 0.0 ? 4 : 5;
    r.front_r2_up = 0.999;
    r.front_rmse_up_us = 10.0;
    // Texec = 3 ms default; noise lengthens the cycle.
    r.cycle_us = 3500.0 + 20.0 * p.noise_E_percent;
    r.makespan_ms = 50.0;
    r.events_processed = 1000 + p.index;
    r.peak_events_pending = 30;
    records.push_back(r);
  }
  return records;
}

bool has_violation(const OracleReport& report, const std::string& check,
                   const std::string& column) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const OracleViolation& v) {
                       return v.check == check && v.column == column;
                     });
}

TEST(Oracle, CleanRecordsPass) {
  const auto s = test_scenario();
  const OracleReport report = check_oracles(s, clean_records(s));
  EXPECT_TRUE(report.clean()) << (report.violations.empty()
                                      ? ""
                                      : report.violations[0].check + "/" +
                                            report.violations[0].column +
                                            ": " +
                                            report.violations[0].detail);
  EXPECT_EQ(report.records_checked, 2u);
  EXPECT_EQ(report.speed_checks, 2u);
}

TEST(Oracle, SpeedFarFromEq2IsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].v_up_ranks_per_sec = 2.0 * records[0].v_eq2_ranks_per_sec;
  const OracleReport report = check_oracles(s, records);
  EXPECT_TRUE(has_violation(report, "speed_eq2", "v_up_ranks_per_sec"));
  EXPECT_EQ(report.violations[0].record_index, 0u);
}

TEST(Oracle, Eq2SigmaFollowsTheRendezvousFlavor) {
  // 256 KiB bidirectional open-chain points of the crossover catalog:
  // two_sided propagates at sigma = 2, rdma_put at sigma = 1. The simulated
  // speeds pass; a two_sided speed halved to the sigma = 1 value, or an
  // rdma_put speed doubled to the sigma = 2 value, must not.
  const sweep::Scenario* s =
      sweep::find_scenario("eager_rendezvous_crossover");
  ASSERT_NE(s, nullptr);
  const auto all = sweep::expand(s->spec);
  const std::size_t two_sided = 66, rdma_put = 67;
  for (const std::size_t i : {two_sided, rdma_put}) {
    ASSERT_EQ(all[i].msg_bytes, 262144);
    ASSERT_EQ(all[i].direction, workload::Direction::bidirectional);
    ASSERT_EQ(all[i].boundary, workload::Boundary::open);
  }
  ASSERT_EQ(all[two_sided].rdv_flavor, mpi::RendezvousFlavor::two_sided);
  ASSERT_EQ(all[rdma_put].rdv_flavor, mpi::RendezvousFlavor::rdma_put);

  const auto records =
      sweep::run_campaign({all[two_sided], all[rdma_put]}).records;
  ASSERT_EQ(records.size(), 2u);
  const OracleReport clean = check_oracles(*s, records);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.speed_checks, 2u);

  auto halved = records;
  halved[0].v_up_ranks_per_sec *= 0.5;
  EXPECT_TRUE(has_violation(check_oracles(*s, halved), "speed_eq2",
                            "v_up_ranks_per_sec"));

  auto doubled = records;
  doubled[1].v_up_ranks_per_sec *= 2.0;
  EXPECT_TRUE(has_violation(check_oracles(*s, doubled), "speed_eq2",
                            "v_up_ranks_per_sec"));
}

TEST(Oracle, ScatteredFrontSkipsSpeedCheck) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].v_up_ranks_per_sec = 2.0 * records[0].v_eq2_ranks_per_sec;
  records[0].front_r2_up = 0.5;  // below min_front_r2: fit means nothing
  const OracleReport report = check_oracles(s, records);
  EXPECT_FALSE(has_violation(report, "speed_eq2", "v_up_ranks_per_sec"));
  EXPECT_EQ(report.speed_checks, 1u);  // only the untouched record
}

TEST(Oracle, CycleOutsideEq1BandIsFlagged) {
  const auto s = test_scenario();
  auto low = clean_records(s);
  low[0].cycle_us = 0.5 * s.spec.texec.us();  // below the Texec floor
  EXPECT_TRUE(has_violation(check_oracles(s, low), "cycle_eq1", "cycle_us"));

  auto high = clean_records(s);
  high[0].cycle_us = 100.0 * s.spec.texec.us();
  EXPECT_TRUE(has_violation(check_oracles(s, high), "cycle_eq1", "cycle_us"));
}

TEST(Oracle, NonFiniteObservableIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[1].decay_up_us_per_rank =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(has_violation(check_oracles(s, records), "sanity",
                            "decay_up_us_per_rank"));
}

TEST(Oracle, SurvivalBeyondChainIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].survival_up_hops = records[0].np;  // > np-1 is impossible
  EXPECT_TRUE(has_violation(check_oracles(s, records), "sanity",
                            "survival_up_hops"));
}

TEST(Oracle, SeedDriftAgainstExpansionIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].seed += 1;
  EXPECT_TRUE(
      has_violation(check_oracles(s, records), "expansion", "seed"));
}

TEST(Oracle, AxisDriftAgainstExpansionIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[1].delay_ms = 11.0;  // catalog says 10
  EXPECT_TRUE(
      has_violation(check_oracles(s, records), "expansion", "delay_ms"));
}

TEST(Oracle, ProtocolAgainstSizeRuleIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].protocol = "rendezvous";  // 16 KiB must be eager
  EXPECT_TRUE(
      has_violation(check_oracles(s, records), "expansion", "protocol"));
}

TEST(Oracle, IndexBeyondExpansionIsFlagged) {
  const auto s = test_scenario();
  auto records = clean_records(s);
  records[0].index = 999;
  EXPECT_TRUE(
      has_violation(check_oracles(s, records), "expansion", "index"));
}

TEST(Oracle, DampingTrendsEnforcedWhenDeclared) {
  auto s = test_scenario();
  s.oracle.damping_trend_in_noise = true;

  // Clean records respect both trends.
  EXPECT_TRUE(check_oracles(s, clean_records(s)).clean());

  // Cycle shrinking under rising E breaks monotonicity.
  auto faster = clean_records(s);
  faster[1].cycle_us = faster[0].cycle_us * 0.9;
  EXPECT_TRUE(has_violation(check_oracles(s, faster), "cycle_monotone",
                            "cycle_us"));

  // Survival growing well past the noise-free baseline breaks damping.
  auto undamped = clean_records(s);
  undamped[1].survival_up_hops =
      undamped[0].survival_up_hops + s.oracle.survival_slack_hops + 1;
  EXPECT_TRUE(has_violation(check_oracles(s, undamped), "survival_damping",
                            "survival_up_hops"));
}

}  // namespace
}  // namespace iw::verify
