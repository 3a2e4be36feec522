#include "util/pwl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/diag.hpp"

namespace xtalk::util {
namespace {

TEST(Pwl, ConstantEvaluatesEverywhere) {
  const Pwl w = Pwl::constant(1.5);
  EXPECT_DOUBLE_EQ(w.value_at(-10.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value_at(42.0), 1.5);
}

TEST(Pwl, RampInterpolatesLinearly) {
  const Pwl w = Pwl::ramp(1.0, 0.0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(2.0), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(3.0), 2.0);
  // Constant extrapolation on both sides.
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(5.0), 2.0);
}

TEST(Pwl, TimeAtValueRising) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(2.0, true), 1.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(4.0, true), 2.0);
  EXPECT_TRUE(std::isinf(w.time_at_value(5.0, true)));
}

TEST(Pwl, TimeAtValueFalling) {
  const Pwl w = Pwl::ramp(0.0, 3.0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(w.time_at_value(1.0, false), 2.0);
  EXPECT_TRUE(std::isinf(w.time_at_value(-1.0, false)));
}

TEST(Pwl, TimeAtValueStartsBeyond) {
  const Pwl w = Pwl::ramp(0.0, 1.0, 1.0, 2.0);
  // Already above 0.5 at the start.
  EXPECT_TRUE(std::isinf(-w.time_at_value(0.5, true)));
}

TEST(Pwl, AppendMergesCollinearPoints) {
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 2.0);  // collinear, but the first two points never merge
  w.append(3.0, 3.0);  // collinear: replaces (2, 2)
  w.append(4.0, 4.0);  // collinear: replaces (3, 3)
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.value_at(1.7), 1.7);
  EXPECT_DOUBLE_EQ(w.back().t, 4.0);
}

TEST(Pwl, AppendNeverMergesWithOnlyTwoPoints) {
  // The first two points pin the waveform's start (engine code reads
  // front().t as the first-activity bound); a collinear third sample must
  // not collapse them.
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 2.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.points()[1].t, 1.0);
}

TEST(Pwl, AppendPreservesCouplingStepMicroSwing) {
  // Regression: the old absolute 1e-12 merge tolerance erased
  // small-amplitude features riding on a large DC value — exactly the
  // shape of the near-vertical post-V_trig coupling-step segments — which
  // shifted time_at_value crossings. The tolerance must scale with the
  // local segment swing, not the absolute voltage.
  Pwl w;
  w.append(0.0, 0.2);
  w.append(1e-12, 1.0);
  w.append(2e-12, 1.0 + 8e-13);  // micro-step up: real feature, not noise
  w.append(3e-12, 1.0 + 8e-13);  // flat continuation; old code merged this
                                 // into the previous point (|err| <= 1e-12)
  ASSERT_EQ(w.size(), 4u);
  // The 1.0 + 4e-13 crossing lies in the micro-step segment; with the
  // erroneous merge it would shift from 1.5 ps to 2 ps. (Loose tolerance:
  // 1.0 + 4e-13 itself rounds at the 1e-16 granularity of doubles near 1.)
  EXPECT_NEAR(w.time_at_value(1.0 + 4e-13, true), 1.5e-12, 0.05e-12);
}

TEST(Pwl, AppendKeepsCorners) {
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 1.0);
  w.append(2.0, 1.0);
  w.append(3.0, 4.0);
  EXPECT_EQ(w.size(), 4u);
}

TEST(Pwl, ShiftMovesTimeOnly) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0).shifted(2.5);
  EXPECT_DOUBLE_EQ(w.front().t, 2.5);
  EXPECT_DOUBLE_EQ(w.back().t, 3.5);
  EXPECT_DOUBLE_EQ(w.value_at(3.0), 0.5);
}

TEST(Pwl, ClipFromValueStartsExactlyThere) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 2.0, 2.0);
  const Pwl c = w.clipped_from_value(0.5, true);
  EXPECT_DOUBLE_EQ(c.front().t, 0.5);
  EXPECT_DOUBLE_EQ(c.front().v, 0.5);
  EXPECT_DOUBLE_EQ(c.back().v, 2.0);
}

TEST(Pwl, MonotoneDetection) {
  EXPECT_TRUE(Pwl::ramp(0.0, 0.0, 1.0, 1.0).is_monotone(true));
  EXPECT_FALSE(Pwl::ramp(0.0, 0.0, 1.0, 1.0).is_monotone(false));
  Pwl w;
  w.append(0.0, 0.0);
  w.append(1.0, 2.0);
  w.append(2.0, 1.0);
  EXPECT_FALSE(w.is_monotone(true));
}

TEST(Pwl, MinMaxValues) {
  Pwl w;
  w.append(0.0, 1.0);
  w.append(1.0, -2.0);
  w.append(2.0, 5.0);
  EXPECT_DOUBLE_EQ(w.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(w.max_value(), 5.0);
}

TEST(Pwl, StepHasRequestedRiseTime) {
  const Pwl w = Pwl::step(1.0, 0.0, 3.3, 0.1);
  EXPECT_DOUBLE_EQ(w.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.1), 3.3);
  EXPECT_NEAR(w.value_at(1.05), 1.65, 1e-12);
}

TEST(Pwl, RejectsNonFiniteConstructionInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Pwl::constant(nan), DiagError);
  EXPECT_THROW(Pwl::ramp(0.0, 0.0, 1.0, inf), DiagError);
  EXPECT_THROW(Pwl::ramp(nan, 0.0, 1.0, 1.0), DiagError);
  Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0);
  EXPECT_THROW(w.append(2.0, nan), DiagError);
  EXPECT_THROW(w.append(inf, 2.0), DiagError);
  EXPECT_THROW(Pwl({{0.0, 0.0}, {1.0, nan}}), DiagError);
}

TEST(Pwl, RejectsNonFiniteQueryInputs) {
  const Pwl w = Pwl::ramp(0.0, 0.0, 1.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.value_at(nan), DiagError);
  EXPECT_THROW(w.time_at_value(nan, true), DiagError);
  EXPECT_THROW(w.shifted(nan), DiagError);
  // The guard carries the non-finite diagnostic code.
  try {
    w.value_at(nan);
    FAIL() << "expected DiagError";
  } catch (const DiagError& err) {
    EXPECT_EQ(err.diagnostic().code, DiagCode::kNonFiniteValue);
  }
}

/// An irregularly sampled, non-monotone waveform like a propagated one.
Pwl irregular_waveform() {
  std::vector<PwlPoint> pts;
  double t = 0.25e-9;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({t, std::sin(0.37 * i) + 0.01 * i});
    t += 1e-12 * (1.0 + (i * 7919) % 13);
  }
  return Pwl(std::move(pts));
}

/// Queries `times` through one cursor and checks each against value_at.
void expect_cursor_matches(const Pwl& w, const std::vector<double>& times) {
  PwlCursor cursor(w);
  for (const double t : times) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cursor.value_at(t)),
              std::bit_cast<std::uint64_t>(w.value_at(t)))
        << "t=" << t;
  }
}

TEST(PwlCursor, ForwardRepeatedAndBreakpointQueriesMatchValueAt) {
  const Pwl w = irregular_waveform();
  std::vector<double> times;
  for (const PwlPoint& p : w.points()) {
    times.push_back(p.t);                  // exactly on a breakpoint
    times.push_back(p.t);                  // repeated (Newton retry)
    times.push_back(std::nextafter(p.t, 1.0));
    times.push_back(p.t + 0.3e-12);        // inside a segment
  }
  expect_cursor_matches(w, times);
}

TEST(PwlCursor, BackwardAndJumpingQueriesMatchValueAt) {
  const Pwl w = irregular_waveform();
  const double t0 = w.front().t, t1 = w.back().t;
  std::vector<double> times;
  for (double t = t1; t > t0; t -= 0.77e-12) times.push_back(t);  // backward
  for (int i = 0; i < 200; ++i) {  // scattered in both directions
    times.push_back(t0 + (t1 - t0) * ((i * 37) % 101) / 100.0);
  }
  expect_cursor_matches(w, times);
}

TEST(PwlCursor, OutsideTheSampledRangeMatchesValueAt) {
  const Pwl w = irregular_waveform();
  const double t0 = w.front().t, t1 = w.back().t;
  expect_cursor_matches(w, {-1.0, t0 - 1e-12, t0, std::nextafter(t0, 1.0),
                            0.5 * (t0 + t1), std::nextafter(t1, 0.0), t1,
                            t1 + 1e-12, 1.0, t0 + 1e-13, -1.0});
  expect_cursor_matches(Pwl::constant(0.7), {-1.0, 0.0, 2.0});
  expect_cursor_matches(Pwl::ramp(1.0, 0.0, 2.0, 3.3),
                        {0.5, 1.0, 1.5, 1.5, 2.0, 1.25, 3.0});
}

TEST(PwlCursor, StepHalvingSubStepPatternMatchesValueAt) {
  // The BE solver's access pattern: forward steps of growing size, each
  // attempted more than once; a failed step re-walks [t, t + h] in 2^k
  // sub-steps (earlier times); after a coupling drop time restarts just
  // after the crossing, before the last step's end.
  const Pwl w = irregular_waveform();
  std::vector<double> times;
  double t = w.front().t;
  double h = 1e-12;
  for (int step = 0; t < w.back().t + 5e-12; ++step) {
    const double t_next = t + h;
    times.push_back(t_next);
    times.push_back(t_next);
    if (step % 5 == 2) {
      for (int k = 1; k <= 4; ++k) {
        const int n_sub = 1 << k;
        const double hs = h / n_sub;
        for (int sub = 1; sub <= n_sub; ++sub) {
          times.push_back(t_next - h + hs * sub);
        }
      }
    }
    if (step % 11 == 6) {  // coupling drop: next t_next lies before this one
      t += 0.4 * h + 1e-15;
      h /= 4.0;
    } else {
      t = t_next;
      h = std::min(h * 1.3, 3e-12);
    }
  }
  expect_cursor_matches(w, times);
}

TEST(PwlCursor, NonFiniteQueryThrowsLikeValueAt) {
  const Pwl w = irregular_waveform();
  PwlCursor cursor(w);
  EXPECT_THROW(cursor.value_at(std::numeric_limits<double>::quiet_NaN()),
               DiagError);
  EXPECT_THROW(cursor.value_at(std::numeric_limits<double>::infinity()),
               DiagError);
  EXPECT_THROW(cursor.value_at(-std::numeric_limits<double>::infinity()),
               DiagError);
}

}  // namespace
}  // namespace xtalk::util
