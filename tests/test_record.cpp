// Recorder tests: gs-record-v1 binary round-trip, replay verification
// (clean round trip + injected-divergence detection at the exact index),
// diff semantics (agreement, the crafted float/double divergence,
// incomparable headers), post-mortem dumps, recording coverage on all four
// engines, and the off-by-default bit-identity guarantee. These exercise
// exactly the API documented in OBSERVABILITY.md ("Recorder").
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "record/record.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "support/error.hpp"

namespace {

using namespace gs;

lp::LpProblem tiny_lp() {
  return lp::random_dense_lp({.rows = 8, .cols = 8, .seed = 7});
}

/// The data/precision_tie.lp witness, built programmatically: objective
/// coefficients differ by 1e-10, far below float resolution. Double enters
/// x2 (reduced cost -1.0000000001); float sees a tie and the deterministic
/// lowest-index tie-break enters x1 — guaranteed divergence at pivot 0.
lp::LpProblem tie_lp() {
  lp::LpProblem p(lp::Objective::kMinimize, "precision_tie");
  const auto x1 = p.add_variable("x1", -1.0);
  const auto x2 = p.add_variable("x2", -1.0000000001);
  p.add_constraint("c1", {{x1, 1.0}}, lp::RowSense::kLe, 1.0);
  p.add_constraint("c2", {{x2, 1.0}}, lp::RowSense::kLe, 1.0);
  p.add_constraint("c3", {{x1, 1.0}, {x2, 1.0}}, lp::RowSense::kLe, 1.5);
  return p;
}

simplex::SolveResult solve_host_recorded(record::Recorder* rec,
                                         const lp::LpProblem& problem,
                                         simplex::SolverOptions opt = {}) {
  opt.recorder = rec;
  return simplex::HostRevisedSimplex(opt).solve(problem);
}

std::size_t count_pivots(const record::Recording& r) {
  std::size_t n = 0;
  for (const auto& d : r.records) {
    if (d.kind == record::RecordKind::kPivot) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Binary format.
// ---------------------------------------------------------------------

TEST(RecordFormat, StreamRoundTripPreservesEverything) {
  record::Recorder rec;
  rec.set_seed(42);
  (void)solve_host_recorded(&rec, tiny_lp());
  const record::Recording& orig = rec.recording();
  ASSERT_FALSE(orig.records.empty());
  ASSERT_FALSE(orig.basis.empty());
  EXPECT_EQ(orig.header.seed, 42u);
  EXPECT_EQ(orig.header.status, "optimal");
  EXPECT_EQ(orig.header.total_records, orig.records.size());

  std::stringstream buf;
  orig.write(buf);
  const record::Recording back = record::Recording::read(buf);
  EXPECT_EQ(back.header, orig.header);
  EXPECT_EQ(back.records, orig.records);
  EXPECT_EQ(back.basis, orig.basis);
}

TEST(RecordFormat, IdenticalRunsGiveByteIdenticalFiles) {
  record::Recorder a, b;
  (void)solve_host_recorded(&a, tiny_lp());
  (void)solve_host_recorded(&b, tiny_lp());
  std::stringstream sa, sb;
  a.recording().write(sa);
  b.recording().write(sb);
  EXPECT_EQ(sa.str(), sb.str()) << "format must carry no timestamps";
}

TEST(RecordFormat, ReadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW((void)record::Recording::read(empty), Error);
  std::stringstream junk("not a gsrec file at all");
  EXPECT_THROW((void)record::Recording::read(junk), Error);
  // A truncated valid stream must also be rejected, not misparsed.
  record::Recorder rec;
  (void)solve_host_recorded(&rec, tiny_lp());
  std::stringstream full;
  rec.recording().write(full);
  const std::string bytes = full.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)record::Recording::read(cut), Error);
}

TEST(RecordFormat, FileRoundTrip) {
  record::Recorder rec;
  (void)solve_host_recorded(&rec, tiny_lp());
  const auto path =
      (std::filesystem::temp_directory_path() / "gs_record_test.gsrec")
          .string();
  rec.recording().write_file(path);
  const record::Recording back = record::Recording::read_file(path);
  EXPECT_EQ(back.records, rec.recording().records);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Engine coverage: all four engines stream comparable decision logs.
// ---------------------------------------------------------------------

TEST(RecordEngines, HostTableauDeviceAllRecord) {
  const auto problem = tiny_lp();

  record::Recorder host_rec;
  const auto host = solve_host_recorded(&host_rec, problem);
  ASSERT_TRUE(host.optimal());
  EXPECT_EQ(host_rec.recording().header.engine, "host-revised");
  EXPECT_EQ(host_rec.recording().header.real_bits, 64u);

  record::Recorder tab_rec;
  simplex::SolverOptions topt;
  topt.recorder = &tab_rec;
  ASSERT_TRUE(simplex::TableauSimplex(topt).solve(problem).optimal());
  EXPECT_EQ(tab_rec.recording().header.engine, "tableau");

  record::Recorder dev_rec, flt_rec;
  simplex::SolverOptions dopt, fopt;
  dopt.recorder = &dev_rec;
  fopt.recorder = &flt_rec;
  vgpu::Device dev_d(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<double>(dev_d, dopt)
                  .solve(problem)
                  .optimal());
  vgpu::Device dev_f(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<float>(dev_f, fopt)
                  .solve(problem)
                  .optimal());
  EXPECT_EQ(dev_rec.recording().header.engine, "device-revised<double>");
  EXPECT_EQ(dev_rec.recording().header.real_bits, 64u);
  EXPECT_EQ(flt_rec.recording().header.engine, "device-revised<float>");
  EXPECT_EQ(flt_rec.recording().header.real_bits, 32u);

  // Same problem -> same digest/shape in every header; every engine logged
  // at least one pivot, a final status, and a basis snapshot per row.
  const auto& h = host_rec.recording().header;
  for (const auto* r : {&host_rec, &tab_rec, &dev_rec, &flt_rec}) {
    const auto& rc = r->recording();
    EXPECT_EQ(rc.header.digest, h.digest);
    EXPECT_EQ(rc.header.m, h.m);
    EXPECT_EQ(rc.header.n, h.n);
    EXPECT_EQ(rc.header.status, "optimal");
    EXPECT_GE(count_pivots(rc), 1u);
    EXPECT_EQ(rc.basis.size(), rc.header.m);
  }

  // Host and device<double> run the same revised algorithm in the same
  // precision: their decision paths must agree pivot-for-pivot.
  const auto dd =
      record::diff(host_rec.recording(), dev_rec.recording());
  EXPECT_TRUE(dd.comparable);
  EXPECT_FALSE(dd.diverged) << dd.describe();

  // The same holds across a corpus, so the host engine checks the device
  // kernels independently of the fused-vs-reference comparison (both of
  // which run the same kernel bodies): pricing rules, a two-phase
  // instance, a pricing sweep over several blocks (n_aug = 512), every
  // pivot combined across three pricing and two ratio blocks (m = 300)
  // under Dantzig and Bland, and the CSR engine under both bases.
  struct Case {
    std::string label;
    lp::LpProblem problem;
    simplex::Engine engine = simplex::Engine::kDeviceRevised;
    simplex::SolverOptions opt{};
  };
  std::vector<Case> corpus;
  for (const std::uint64_t seed : {1u, 5u, 11u}) {
    for (const simplex::PricingRule rule :
         {simplex::PricingRule::kHybrid, simplex::PricingRule::kDantzig,
          simplex::PricingRule::kBland}) {
      Case c{"dense24 seed " + std::to_string(seed) + " " +
                 std::string(to_string(rule)),
             lp::random_dense_lp({.rows = 24, .cols = 24, .seed = seed})};
      c.opt.pricing = rule;
      corpus.push_back(std::move(c));
    }
  }
  corpus.push_back({"transportation", lp::transportation(5, 6, 17)});
  corpus.push_back(
      {"dense256", lp::random_dense_lp({.rows = 256, .cols = 256, .seed = 3})});
  for (const simplex::PricingRule rule :
       {simplex::PricingRule::kDantzig, simplex::PricingRule::kBland}) {
    Case c{"dense300 " + std::string(to_string(rule)),
           lp::random_dense_lp({.rows = 300, .cols = 300, .seed = 3})};
    c.opt.pricing = rule;
    corpus.push_back(std::move(c));
  }
  for (const simplex::BasisScheme basis :
       {simplex::BasisScheme::kExplicitInverse,
        simplex::BasisScheme::kProductForm}) {
    Case c{"sparse40x160 " + std::string(to_string(basis)),
           lp::random_sparse_lp(
               {.rows = 40, .cols = 160, .density = 0.08, .seed = 12}),
           simplex::Engine::kSparseRevised};
    c.opt.basis = basis;
    corpus.push_back(std::move(c));
  }
  for (const Case& c : corpus) {
    record::Recorder host_c, dev_c;
    const auto h = solve_host_recorded(&host_c, c.problem, c.opt);
    simplex::SolverOptions dopt_c = c.opt;
    dopt_c.recorder = &dev_c;
    const auto d = simplex::solve(c.problem, c.engine, dopt_c);
    ASSERT_TRUE(h.optimal()) << c.label;
    ASSERT_TRUE(d.optimal()) << c.label;
    EXPECT_GE(count_pivots(host_c.recording()), 1u) << c.label;
    const auto cd = record::diff(host_c.recording(), dev_c.recording());
    EXPECT_TRUE(cd.comparable) << c.label;
    EXPECT_FALSE(cd.diverged) << c.label << ": " << cd.describe();
  }
}

TEST(RecordEngines, BatchEngineRecordsPerLane) {
  std::vector<lp::LpProblem> batch;
  for (std::uint64_t k = 0; k < 3; ++k) {
    batch.push_back(lp::random_dense_lp({.rows = 6, .cols = 6, .seed = k + 1}));
  }
  record::Recorder rec;
  simplex::SolverOptions opt;
  opt.recorder = &rec;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::BatchRevisedSimplex<double> solver(dev, opt);
  const auto results = solver.solve(batch);
  for (const auto& r : results) ASSERT_TRUE(r.optimal());

  const auto& rc = rec.recording();
  EXPECT_EQ(rc.header.engine, "batch-revised<double>");
  EXPECT_EQ(rc.header.status, "optimal");
  // Every lane contributed pivots; per-lane iteration ordinals are
  // strictly increasing.
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    std::size_t pivots = 0;
    std::uint64_t last_iter = 0;
    for (const auto& d : rc.records) {
      if (d.kind != record::RecordKind::kPivot || d.lane != lane) continue;
      if (pivots > 0) {
        EXPECT_GT(d.iteration, last_iter);
      }
      last_iter = d.iteration;
      ++pivots;
    }
    EXPECT_EQ(pivots, results[lane].stats.iterations) << "lane " << lane;
  }
}

// ---------------------------------------------------------------------
// Replay verification.
// ---------------------------------------------------------------------

TEST(RecordReplay, CleanRoundTripVerifiesEveryDecision) {
  const auto problem = tiny_lp();
  record::Recorder rec;
  const auto first = solve_host_recorded(&rec, problem);
  ASSERT_TRUE(first.optimal());

  record::Recorder replay = record::Recorder::replaying(rec.recording());
  const auto second = solve_host_recorded(&replay, problem);
  EXPECT_FALSE(replay.mismatched())
      << replay.mismatch().describe();
  EXPECT_EQ(replay.verified(), rec.recording().records.size());
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(second.stats.iterations, first.stats.iterations);
}

TEST(RecordReplay, InjectedDivergenceIsCaughtAtTheExactIndex) {
  const auto problem = tiny_lp();
  record::Recorder rec;
  ASSERT_TRUE(solve_host_recorded(&rec, problem).optimal());

  // Tamper with the second pivot in the reference stream: the replayed
  // solve must flag exactly that stream index, with both records intact.
  record::Recording tampered = rec.recording();
  std::size_t idx = tampered.records.size();
  std::size_t pivots_seen = 0;
  for (std::size_t i = 0; i < tampered.records.size(); ++i) {
    if (tampered.records[i].kind != record::RecordKind::kPivot) continue;
    if (++pivots_seen == 2) {
      idx = i;
      break;
    }
  }
  ASSERT_LT(idx, tampered.records.size()) << "need at least two pivots";
  const record::DecisionRecord truth = tampered.records[idx];
  tampered.records[idx].entering += 1;

  record::Recorder replay = record::Recorder::replaying(tampered);
  (void)solve_host_recorded(&replay, problem);
  ASSERT_TRUE(replay.mismatched());
  const auto& mm = replay.mismatch();
  EXPECT_EQ(mm.why, record::ReplayMismatch::Why::kValueMismatch);
  EXPECT_EQ(mm.index, idx);
  EXPECT_EQ(mm.expected, tampered.records[idx]);
  EXPECT_EQ(mm.actual, truth);
  EXPECT_EQ(mm.actual.iteration, truth.iteration)
      << "report names the diverging iteration";
  EXPECT_EQ(replay.verified(), idx) << "every record before it verified";
  EXPECT_FALSE(mm.describe().empty());
}

TEST(RecordReplay, WrongProblemIsRejectedAtTheHeader) {
  record::Recorder rec;
  ASSERT_TRUE(solve_host_recorded(&rec, tiny_lp()).optimal());

  const auto other = lp::random_dense_lp({.rows = 8, .cols = 8, .seed = 8});
  record::Recorder replay = record::Recorder::replaying(rec.recording());
  (void)solve_host_recorded(&replay, other);
  ASSERT_TRUE(replay.mismatched());
  EXPECT_EQ(replay.mismatch().why, record::ReplayMismatch::Why::kHeader);
  EXPECT_EQ(replay.mismatch().index, 0u);
  EXPECT_NE(replay.mismatch().note.find("digest"), std::string::npos);
}

TEST(RecordReplay, WrongEngineIsRejectedAtTheHeader) {
  record::Recorder rec;
  ASSERT_TRUE(solve_host_recorded(&rec, tiny_lp()).optimal());

  record::Recorder replay = record::Recorder::replaying(rec.recording());
  simplex::SolverOptions opt;
  opt.recorder = &replay;
  (void)simplex::TableauSimplex(opt).solve(tiny_lp());
  ASSERT_TRUE(replay.mismatched());
  EXPECT_EQ(replay.mismatch().why, record::ReplayMismatch::Why::kHeader);
}

// ---------------------------------------------------------------------
// Diff.
// ---------------------------------------------------------------------

TEST(RecordDiff, IdenticalPathsAgreeAndTrackFloatDeltas) {
  const auto problem = tiny_lp();
  record::Recorder rec_d, rec_f;
  simplex::SolverOptions dopt, fopt;
  dopt.recorder = &rec_d;
  fopt.recorder = &rec_f;
  vgpu::Device dev_d(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<double>(dev_d, dopt)
                  .solve(problem)
                  .optimal());
  vgpu::Device dev_f(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<float>(dev_f, fopt)
                  .solve(problem)
                  .optimal());

  const auto d = record::diff(rec_d.recording(), rec_f.recording());
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.diverged) << d.describe();
  EXPECT_EQ(d.common, count_pivots(rec_d.recording()));
  // Identical paths, different precision: payload deltas are small but
  // nonzero (this is exactly what Tab. 2's agreement study measures).
  EXPECT_GT(d.max_reduced_cost_delta, 0.0);
  EXPECT_LT(d.max_reduced_cost_delta, 1e-3);
}

TEST(RecordDiff, CraftedTieDivergesAtPivotZeroWithBothCandidates) {
  const auto problem = tie_lp();
  record::Recorder rec_d, rec_f;
  simplex::SolverOptions dopt, fopt;
  dopt.recorder = &rec_d;
  fopt.recorder = &rec_f;
  vgpu::Device dev_d(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<double>(dev_d, dopt)
                  .solve(problem)
                  .optimal());
  vgpu::Device dev_f(vgpu::gtx280_model());
  ASSERT_TRUE(simplex::DeviceRevisedSimplex<float>(dev_f, fopt)
                  .solve(problem)
                  .optimal());

  const auto d = record::diff(rec_d.recording(), rec_f.recording());
  ASSERT_TRUE(d.comparable);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 0u);
  EXPECT_EQ(d.common, 0u);
  ASSERT_TRUE(d.a.has_value());
  ASSERT_TRUE(d.b.has_value());
  EXPECT_EQ(d.a->entering, 1u) << "double enters x2 (d = -1.0000000001)";
  EXPECT_EQ(d.b->entering, 0u) << "float ties and enters x1";
  // The report carries both candidates with their reduced costs/ratios.
  const std::string text = d.describe();
  EXPECT_NE(text.find("diverge at pivot 0"), std::string::npos) << text;
  EXPECT_NE(text.find(record::describe(*d.a)), std::string::npos) << text;
  EXPECT_NE(text.find(record::describe(*d.b)), std::string::npos) << text;
}

TEST(RecordDiff, DifferentProblemsAreNotComparable) {
  record::Recorder a, b;
  ASSERT_TRUE(solve_host_recorded(&a, tiny_lp()).optimal());
  ASSERT_TRUE(
      solve_host_recorded(&b, lp::random_dense_lp(
                                  {.rows = 8, .cols = 8, .seed = 8}))
          .optimal());
  const auto d = record::diff(a.recording(), b.recording());
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.note.empty());
}

// ---------------------------------------------------------------------
// Post-mortem dumps.
// ---------------------------------------------------------------------

TEST(RecordPostMortem, DumpsReplayableWindowOnIterationLimit) {
  const auto path =
      (std::filesystem::temp_directory_path() / "gs_record_pm.gsrec").string();
  std::filesystem::remove(path);

  record::Recorder rec;
  rec.set_post_mortem(path, /*window=*/4);
  simplex::SolverOptions opt;
  opt.recorder = &rec;
  opt.max_iterations = 3;
  const auto result = simplex::HostRevisedSimplex(opt).solve(
      lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 5}));
  ASSERT_EQ(result.status, simplex::SolveStatus::kIterationLimit);
  ASSERT_TRUE(rec.dumped_post_mortem());

  const record::Recording pm = record::Recording::read_file(path);
  EXPECT_TRUE(pm.header.post_mortem);
  EXPECT_LE(pm.records.size(), 4u);
  EXPECT_EQ(pm.header.total_records, rec.recording().records.size());
  EXPECT_EQ(pm.header.first_index,
            rec.recording().records.size() - pm.records.size());
  // The window holds the *last* records of the run, basis included.
  EXPECT_EQ(pm.records.back(), rec.recording().records.back());
  EXPECT_EQ(pm.basis, rec.recording().basis);
  std::filesystem::remove(path);
}

TEST(RecordPostMortem, CleanOptimalSolveDumpsNothing) {
  const auto path =
      (std::filesystem::temp_directory_path() / "gs_record_pm_clean.gsrec")
          .string();
  std::filesystem::remove(path);
  record::Recorder rec;
  rec.set_post_mortem(path);
  ASSERT_TRUE(solve_host_recorded(&rec, tiny_lp()).optimal());
  EXPECT_FALSE(rec.dumped_post_mortem());
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------
// Off by default: no recorder, no model perturbation.
// ---------------------------------------------------------------------

TEST(RecordDisabled, NoRecorderMeansBitIdenticalResultsAndStats) {
  const auto problem = lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 5});

  auto solve_with = [&](record::Recorder* rec) {
    simplex::SolverOptions opt;
    opt.recorder = rec;
    vgpu::Device dev(vgpu::gtx280_model());
    simplex::DeviceRevisedSimplex<double> solver(dev, opt);
    return solver.solve(problem);
  };
  const auto plain = solve_with(nullptr);
  record::Recorder rec;
  const auto recorded = solve_with(&rec);

  ASSERT_TRUE(plain.optimal());
  ASSERT_TRUE(recorded.optimal());
  ASSERT_FALSE(rec.recording().records.empty());

  // Recording must not perturb the model: bit-identical results and stats.
  EXPECT_EQ(plain.objective, recorded.objective);
  EXPECT_EQ(plain.x, recorded.x);
  EXPECT_EQ(plain.stats.iterations, recorded.stats.iterations);
  EXPECT_EQ(plain.stats.sim_seconds, recorded.stats.sim_seconds);
  const auto& a = plain.stats.device_stats;
  const auto& b = recorded.stats.device_stats;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
  EXPECT_EQ(a.total_flops, b.total_flops);
  EXPECT_EQ(a.h2d_count, b.h2d_count);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_count, b.d2h_count);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);

  // Same guarantee for the host engine.
  const auto hplain =
      simplex::HostRevisedSimplex(simplex::SolverOptions{}).solve(problem);
  record::Recorder hrec;
  const auto hrecorded = solve_host_recorded(&hrec, problem);
  EXPECT_EQ(hplain.objective, hrecorded.objective);
  EXPECT_EQ(hplain.stats.iterations, hrecorded.stats.iterations);
  EXPECT_EQ(hplain.stats.sim_seconds, hrecorded.stats.sim_seconds);
}

}  // namespace
