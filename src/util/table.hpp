// Uniform-grid interpolation tables.
//
// The delay calculator follows the paper (§3, after TETA): transistor DC
// behaviour is sampled into tables once per technology and looked up with
// bilinear interpolation during waveform integration. The fine
// discretisation keeps Newton iteration well behaved ("Due to the fine
// discretization of the tables we do not get convergence problems").
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace xtalk::util {

/// 1-D table on a uniform grid with linear interpolation and clamped
/// extrapolation.
class Table1D {
 public:
  Table1D() = default;
  /// Sample f on [x0, x1] with n points (n >= 2).
  Table1D(double x0, double x1, std::size_t n,
          const std::function<double(double)>& f);

  double lookup(double x) const;
  /// Derivative of the interpolant (piecewise constant).
  double derivative(double x) const;

  double x0() const { return x0_; }
  double x1() const { return x1_; }
  std::size_t size() const { return values_.size(); }

 private:
  double x0_ = 0.0;
  double x1_ = 1.0;
  double inv_dx_ = 1.0;
  std::vector<double> values_;
};

/// Value and partial derivatives of a Table2D interpolant at one point.
struct Table2DGrad {
  double v = 0.0;   ///< interpolated value
  double dx = 0.0;  ///< d/dx of the bilinear interpolant
  double dy = 0.0;  ///< d/dy of the bilinear interpolant
};

/// 2-D table on a uniform grid with bilinear interpolation and clamped
/// extrapolation. Axis order: lookup(x, y) with x the slow axis.
///
/// Lookups sit in the innermost loop of the BE/Newton integrator (every
/// Newton iteration evaluates both devices), so they are inline: one finite
/// check, one locate and one 4-corner fetch yield the value and the
/// gradient together.
class Table2D {
 public:
  Table2D() = default;
  /// Sample f on [x0,x1] x [y0,y1] with nx * ny points (each >= 2).
  Table2D(double x0, double x1, std::size_t nx, double y0, double y1,
          std::size_t ny, const std::function<double(double, double)>& f);

  double lookup(double x, double y) const { return lookup_grad(x, y).v; }

  /// Value plus both partial derivatives of the bilinear interpolant.
  /// Non-finite inputs throw DiagError (kNonFiniteValue). Forced inline:
  /// at -O2 GCC keeps it out of line, and lookup() then pays for the
  /// gradient it discards.
  [[gnu::always_inline]] Table2DGrad lookup_grad(double x, double y) const {
    assert(nx_ >= 2 && ny_ >= 2);
    if (!(std::isfinite(x) && std::isfinite(y))) require_finite_point(x, y);
    std::size_t i, j;
    double fx, fy;
    locate(x, x0_, inv_dx_, nx_, i, fx);
    locate(y, y0_, inv_dy_, ny_, j, fy);
    const double v00 = at(i, j), v01 = at(i, j + 1);
    const double v10 = at(i + 1, j), v11 = at(i + 1, j + 1);
    const double a = v00 * (1.0 - fy) + v01 * fy;
    const double b = v10 * (1.0 - fy) + v11 * fy;
    Table2DGrad g;
    g.v = a * (1.0 - fx) + b * fx;
    g.dx = ((v10 - v00) * (1.0 - fy) + (v11 - v01) * fy) * inv_dx_;
    g.dy = ((v01 - v00) * (1.0 - fx) + (v11 - v10) * fx) * inv_dy_;
    return g;
  }

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

 private:
  double at(std::size_t i, std::size_t j) const { return values_[i * ny_ + j]; }
  /// Clamp u into an n-point grid and return (index, fraction).
  static void locate(double u, double u0, double inv_du, std::size_t n,
                     std::size_t& i, double& fu) {
    const double s =
        std::clamp((u - u0) * inv_du, 0.0, static_cast<double>(n - 1));
    i = static_cast<std::size_t>(std::min(s, static_cast<double>(n - 2)));
    fu = s - static_cast<double>(i);
  }
  /// Throws DiagError for whichever of x, y is not finite (out of line:
  /// the error path stays out of the inlined kernel).
  static void require_finite_point(double x, double y);

  double x0_ = 0.0, x1_ = 1.0, y0_ = 0.0, y1_ = 1.0;
  double inv_dx_ = 1.0, inv_dy_ = 1.0;
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<double> values_;
};

}  // namespace xtalk::util
