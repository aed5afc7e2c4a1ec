// Hand-built LPs whose phase 1 ends degenerate, shared by the tests that
// exercise the artificial drive-out.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/problem.hpp"

namespace gs::test_lps {

/// All right-hand sides zero on equality rows: phase 1 ends with an
/// artificial basic at level zero, and the drive-out pivots it out. That
/// pivot appends an eta, which the refactor interval must count.
inline lp::LpProblem degenerate_drive_out() {
  lp::LpProblem p(lp::Objective::kMinimize, "degenerate_drive_out");
  std::vector<std::uint32_t> x;
  for (const double cost : {0.0, 2.0, 1.0, -1.0, 2.0, 2.0, 3.0, 1.0}) {
    x.push_back(p.add_variable("x" + std::to_string(x.size()), cost));
  }
  const auto row = [&](std::vector<lp::Term> terms) {
    p.add_constraint("r" + std::to_string(p.num_constraints()),
                     std::move(terms), lp::RowSense::kEq, 0.0);
  };
  row({{x[3], 3.0}, {x[5], 2.0}, {x[6], 2.0}, {x[7], 1.0}});
  row({{x[0], 1.0}, {x[1], 1.0}, {x[2], 3.0}, {x[5], 1.0}, {x[6], 2.0}});
  row({{x[2], 2.0}, {x[4], 3.0}, {x[7], 3.0}});
  row({{x[0], 2.0}, {x[1], -1.0}, {x[2], 1.0}, {x[3], -1.0}, {x[5], 1.0},
       {x[6], 3.0}});
  return p;
}

/// Four zero-rhs equality rows among eight: phase 1 leaves three
/// artificials basic at level zero and the drive-out pivots all three
/// out. Under Devex, phase 2's choices depend on the weights the
/// drive-out leaves, so a drive-out pivot that updated them would pivot
/// differently afterwards.
inline lp::LpProblem devex_drive_out() {
  lp::LpProblem p(lp::Objective::kMinimize, "devex_drive_out");
  std::vector<std::uint32_t> x;
  for (const double cost : {4.0, 4.0, 0.0, 1.0, 4.0, -1.0, -2.0, 0.0, 0.0,
                            1.0, -2.0, 2.0, 2.0, 1.0, 0.0, 0.0}) {
    x.push_back(p.add_variable("x" + std::to_string(x.size()), cost));
  }
  const auto row = [&](std::vector<lp::Term> terms, double rhs) {
    p.add_constraint("r" + std::to_string(p.num_constraints()),
                     std::move(terms), lp::RowSense::kEq, rhs);
  };
  row({{x[4], -3.0}, {x[8], 1.0}}, 0.0);
  row({{x[1], -3.0}, {x[11], -3.0}, {x[15], -1.0}}, 0.0);
  row({{x[1], -3.0}, {x[6], 2.0}, {x[8], 2.0}}, 0.0);
  row({{x[1], 1.0}, {x[8], -3.0}}, 0.0);
  row({{x[3], 1.0}, {x[4], 1.0}, {x[6], 1.0}, {x[8], -1.0}, {x[11], -2.0},
       {x[13], 3.0}, {x[14], 1.0}, {x[15], -2.0}},
      17.0);
  row({{x[1], 2.0}, {x[2], -3.0}, {x[6], -2.0}, {x[8], -2.0}, {x[10], -3.0},
       {x[11], -1.0}, {x[12], -3.0}, {x[15], 1.0}},
      -27.0);
  row({{x[0], 3.0}, {x[1], 2.0}, {x[3], 2.0}, {x[5], 2.0}, {x[6], -2.0},
       {x[7], 1.0}, {x[11], 3.0}, {x[13], -2.0}},
      6.0);
  row({{x[3], -3.0}, {x[4], 1.0}, {x[5], -2.0}, {x[8], -2.0}, {x[13], 2.0},
       {x[14], -2.0}},
      -8.0);
  return p;
}

}  // namespace gs::test_lps
