// Piecewise-linear waveforms.
//
// The STA engine propagates one worst-case waveform per net and transition
// direction (paper §4). Waveforms produced by the delay calculator are
// monotone (the coupling model discards the pre-drop glitch exactly so that
// propagated waveforms stay monotone, paper §2), which lets crossing-time
// queries use binary search.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xtalk::util {

/// One (time, value) sample of a piecewise-linear function.
struct PwlPoint {
  double t = 0.0;
  double v = 0.0;
};

/// Linear interpolation on the segment [lo, hi] at time t (lo.t <= t < hi.t).
inline double segment_value(const PwlPoint& lo, const PwlPoint& hi, double t) {
  const double alpha = (t - lo.t) / (hi.t - lo.t);
  return lo.v + alpha * (hi.v - lo.v);
}

/// A piecewise-linear function of time. Constant extrapolation outside the
/// sampled range. Time points are strictly increasing.
class Pwl {
 public:
  Pwl() = default;
  explicit Pwl(std::vector<PwlPoint> points);

  /// A constant function.
  static Pwl constant(double value);
  /// A saturated ramp: value v0 until t0, linear to v1 at t1, then constant.
  static Pwl ramp(double t0, double v0, double t1, double v1);
  /// A one-segment step approximated by a ramp of width `rise`.
  static Pwl step(double t, double v0, double v1, double rise);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<PwlPoint>& points() const { return points_; }
  const PwlPoint& front() const { return points_.front(); }
  const PwlPoint& back() const { return points_.back(); }

  /// Append a sample; t must be strictly greater than the last time.
  /// Collinear middle points are merged to keep waveforms compact.
  void append(double t, double v);

  /// Value at time t (constant extrapolation).
  double value_at(double t) const;

  /// Earliest time at which the function reaches `v`, for a function that is
  /// monotone in the direction implied by rising. Returns negative infinity
  /// if the waveform starts beyond `v`, positive infinity if it never
  /// reaches it.
  double time_at_value(double v, bool rising) const;

  /// True if the samples are non-decreasing (rising) within `tol`.
  bool is_monotone(bool rising, double tol = 1e-12) const;

  /// Shift the whole waveform in time.
  Pwl shifted(double dt) const;

  /// Clip to the sub-waveform starting at the first crossing of `v`
  /// (direction `rising`); the result's first point is exactly (t_cross, v).
  /// Used to implement the paper's "waveforms start with the value of Vth".
  Pwl clipped_from_value(double v, bool rising) const;

  /// Minimum / maximum sampled value.
  double min_value() const;
  double max_value() const;

  /// Human-readable dump (for logs and debugging).
  std::string to_string() const;

 private:
  std::vector<PwlPoint> points_;
};

/// Pwl::value_at for a query sequence that mostly moves forward in time,
/// such as the steps of one backward-Euler solve: the cursor keeps the
/// segment of the previous query and walks from it instead of
/// binary-searching. It picks exactly the segment Pwl::value_at picks
/// (the first point later than t), so the two agree bit for bit; earlier
/// times walk back. The waveform must outlive the cursor and stay unchanged.
class PwlCursor {
 public:
  explicit PwlCursor(const Pwl& w) : w_(&w) {}

  double value_at(double t) {
    const std::vector<PwlPoint>& p = w_->points();
    // Outside the open sampled range (and NaN/Inf): constant extrapolation
    // or the DiagError, exactly as Pwl::value_at.
    if (!(t > p.front().t && t < p.back().t)) return w_->value_at(t);
    while (p[k_].t <= t) ++k_;
    while (p[k_ - 1].t > t) --k_;
    return segment_value(p[k_ - 1], p[k_], t);
  }

 private:
  const Pwl* w_;
  /// Upper end of the last segment used: p[k_-1].t <= t < p[k_].t.
  std::size_t k_ = 1;
};

}  // namespace xtalk::util
