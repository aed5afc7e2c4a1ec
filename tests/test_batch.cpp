// Tests for the batched revised simplex (Ext. E): agreement with the
// single-problem engine, lock-step behavior with uneven finish times, input
// validation, and the modeled occupancy benefit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "lp/generators.hpp"
#include "record/record.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"

namespace gs::simplex {
namespace {

[[nodiscard]] std::vector<lp::LpProblem> make_batch(std::size_t count,
                                                    std::size_t size,
                                                    std::uint64_t seed0) {
  std::vector<lp::LpProblem> batch;
  batch.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    batch.push_back(lp::random_dense_lp(
        {.rows = size, .cols = size, .seed = seed0 + k}));
  }
  return batch;
}

class BatchSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

/// The pivot records of one batch lane, in order.
[[nodiscard]] std::vector<record::DecisionRecord> lane_pivots(
    const record::Recording& rec, std::uint32_t lane) {
  std::vector<record::DecisionRecord> out;
  for (const auto& r : rec.records) {
    if (r.kind == record::RecordKind::kPivot && r.lane == lane) {
      out.push_back(r);
    }
  }
  return out;
}

TEST_P(BatchSizes, AgreesWithIndividualSolves) {
  // Each lane runs the single-LP engine's pivots under the batch engine's
  // only rule, Dantzig, with the same arithmetic: decisions and values
  // match bit for bit, duals included.
  const auto [count, size] = GetParam();
  const auto problems = make_batch(count, size, 100);
  vgpu::Device dev(vgpu::gtx280_model());
  record::Recorder batch_rec;
  SolverOptions batch_opt;
  batch_opt.recorder = &batch_rec;
  BatchRevisedSimplex<double> batch_solver(dev, batch_opt);
  const auto batch_results = batch_solver.solve(problems);
  ASSERT_EQ(batch_results.size(), count);
  for (std::size_t k = 0; k < count; ++k) {
    SCOPED_TRACE(testing::Message() << "lane " << k);
    record::Recorder single_rec;
    SolverOptions opt;
    opt.pricing = PricingRule::kDantzig;
    opt.recorder = &single_rec;
    const auto single = solve(problems[k], Engine::kDeviceRevised, opt);
    ASSERT_EQ(batch_results[k].status, SolveStatus::kOptimal);
    ASSERT_EQ(single.status, SolveStatus::kOptimal);
    const auto lane = lane_pivots(batch_rec.recording(),
                                  static_cast<std::uint32_t>(k));
    const auto ref = lane_pivots(single_rec.recording(), 0);
    ASSERT_EQ(lane.size(), ref.size());
    for (std::size_t t = 0; t < ref.size(); ++t) {
      SCOPED_TRACE(testing::Message() << "pivot " << t);
      EXPECT_EQ(lane[t].entering, ref[t].entering);
      EXPECT_EQ(lane[t].leaving_row, ref[t].leaving_row);
      EXPECT_EQ(lane[t].reduced_cost, ref[t].reduced_cost);
      EXPECT_EQ(lane[t].theta, ref[t].theta);
      EXPECT_EQ(lane[t].pivot_value, ref[t].pivot_value);
    }
    EXPECT_EQ(batch_results[k].stats.iterations, single.stats.iterations);
    EXPECT_EQ(batch_results[k].objective, single.objective);
    EXPECT_EQ(batch_results[k].x, single.x);
    EXPECT_EQ(batch_results[k].y, single.y);
    EXPECT_EQ(batch_results[k].basis, single.basis);
    EXPECT_TRUE(problems[k].is_feasible(batch_results[k].x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BatchSizes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 12},
                                           std::pair<std::size_t, std::size_t>{4, 12},
                                           std::pair<std::size_t, std::size_t>{16, 8},
                                           std::pair<std::size_t, std::size_t>{3, 24}));

TEST(Batch, ProblemsFinishingAtDifferentIterationsStayCorrect) {
  // Mix trivially-optimal-at-origin problems (all costs >= 0) with normal
  // ones: the former finish in 0 iterations, the latter keep pivoting.
  std::vector<lp::LpProblem> problems;
  problems.push_back(lp::random_dense_lp(
      {.rows = 10, .cols = 10, .seed = 1, .cost_lo = -1.0, .cost_hi = -0.1}));
  lp::DenseLpSpec trivial{.rows = 10, .cols = 10, .seed = 2};
  trivial.cost_lo = -0.0;
  trivial.cost_hi = -0.0;
  // cost uniformly 0: origin is optimal with objective 0.
  problems.push_back(lp::random_dense_lp(trivial));
  problems.push_back(lp::random_dense_lp(
      {.rows = 10, .cols = 10, .seed = 3, .cost_lo = -2.0, .cost_hi = -0.5}));

  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  const auto results = solver.solve(problems);
  ASSERT_EQ(results[1].status, SolveStatus::kOptimal);
  EXPECT_NEAR(results[1].objective, 0.0, 1e-12);
  EXPECT_EQ(results[1].stats.iterations, 0u);
  for (std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    const auto single = solve(problems[k], Engine::kDeviceRevised);
    ASSERT_EQ(results[k].status, SolveStatus::kOptimal);
    EXPECT_NEAR(results[k].objective, single.objective, 1e-7);
    EXPECT_GT(results[k].stats.iterations, 0u);
  }
}

TEST(Batch, RejectsShapeMismatch) {
  std::vector<lp::LpProblem> problems;
  problems.push_back(lp::random_dense_lp({.rows = 8, .cols = 8, .seed = 1}));
  problems.push_back(lp::random_dense_lp({.rows = 9, .cols = 8, .seed = 2}));
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  EXPECT_THROW((void)solver.solve(problems), Error);
}

TEST(Batch, RejectsProblemsNeedingPhaseOne) {
  std::vector<lp::LpProblem> problems;
  problems.push_back(lp::transportation(3, 3, 1));  // equality rows
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  EXPECT_THROW((void)solver.solve(problems), Error);
}

TEST(Batch, RejectsEmptyBatch) {
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  EXPECT_THROW((void)solver.solve(std::span<const lp::LpProblem>{}), Error);
}

TEST(Batch, OccupancyMakesBatchingCheaperThanSequentialSolves) {
  // The core claim: K small LPs batched cost (much) less modeled time than
  // K sequential solves, because each fused kernel carries K*m threads.
  constexpr std::size_t kCount = 16;
  const auto problems = make_batch(kCount, 16, 300);

  double sequential = 0.0;
  for (const auto& problem : problems) {
    sequential += solve(problem, Engine::kDeviceRevised).stats.sim_seconds;
  }
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  const auto results = solver.solve(problems);
  const double batched = results.front().stats.sim_seconds;
  for (const auto& r : results) ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LT(batched, sequential / 2.0);
}

TEST(Batch, RoundIsThreeLaunches) {
  // Each problem's entering column is picked inside batch_price and its
  // leaving row inside batch_ftran, so a round is batch_price,
  // batch_ftran and batch_pivot_apply; the inverse expansion and the
  // first BTRAN run once per solve.
  const auto problems = make_batch(16, 24, 600);
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  const auto results = solver.solve(problems);
  std::size_t rounds = 0;
  for (const auto& r : results) {
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    rounds = std::max<std::size_t>(rounds, r.stats.iterations + 1);
  }
  const auto& ds = results.front().stats.device_stats;
  std::set<std::string> kernels;
  for (const auto& [name, rec] : ds.per_kernel) kernels.insert(name);
  EXPECT_EQ(kernels, (std::set<std::string>{"batch_binv_init", "batch_btran",
                                            "batch_price", "batch_ftran",
                                            "batch_pivot_apply"}));
  EXPECT_EQ(ds.per_kernel.at("batch_price").launches, rounds);
  EXPECT_LE(ds.kernel_launches, 3 * rounds + 2);
}

TEST(Batch, ZeroRowProblemsFinish) {
  // With no constraints a problem is optimal at the origin when no cost
  // is negative and unbounded otherwise, and with no variables either it
  // is optimal at 0; each problem's block still runs one lane to publish
  // its decision.
  std::vector<lp::LpProblem> problems(2);
  for (const double cost : {2.0, -2.0}) {
    lp::LpProblem& p = problems[cost > 0.0 ? 0 : 1];
    p.add_variable("x", 1.0);
    p.add_variable("y", cost);
  }
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev);
  const auto results = solver.solve(problems);
  EXPECT_EQ(results[0].status, SolveStatus::kOptimal);
  EXPECT_EQ(results[0].objective, 0.0);
  EXPECT_EQ(results[1].status, SolveStatus::kUnbounded);
  const auto empty = solver.solve(std::vector<lp::LpProblem>(2));
  EXPECT_EQ(empty[0].status, SolveStatus::kOptimal);
  EXPECT_EQ(empty[1].objective, 0.0);
}

TEST(Batch, FloatInstantiationWorks) {
  const auto problems = make_batch(4, 10, 400);
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<float> solver(dev);
  const auto results = solver.solve(problems);
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const auto single = solve(problems[k], Engine::kDeviceRevised);
    ASSERT_EQ(results[k].status, SolveStatus::kOptimal);
    EXPECT_NEAR(results[k].objective, single.objective,
                2e-3 * (1.0 + std::abs(single.objective)));
  }
}

TEST(Batch, HonorsIterationLimit) {
  const auto problems = make_batch(2, 20, 500);
  SolverOptions opt;
  opt.max_iterations = 1;
  vgpu::Device dev(vgpu::gtx280_model());
  BatchRevisedSimplex<double> solver(dev, opt);
  const auto results = solver.solve(problems);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, SolveStatus::kIterationLimit);
    EXPECT_LE(r.stats.iterations, 1u);
  }
}

}  // namespace
}  // namespace gs::simplex
