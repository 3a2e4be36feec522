#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/diag.hpp"

namespace xtalk::util {
namespace {

TEST(Table1D, ReproducesLinearFunctionExactly) {
  const Table1D t(0.0, 10.0, 11, [](double x) { return 3.0 * x + 1.0; });
  for (double x = 0.0; x <= 10.0; x += 0.37) {
    EXPECT_NEAR(t.lookup(x), 3.0 * x + 1.0, 1e-12);
  }
  EXPECT_NEAR(t.derivative(4.2), 3.0, 1e-12);
}

TEST(Table1D, ClampsOutsideRange) {
  const Table1D t(0.0, 1.0, 2, [](double x) { return x; });
  EXPECT_DOUBLE_EQ(t.lookup(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(7.0), 1.0);
}

TEST(Table1D, InterpolatesSmoothFunctionAccurately) {
  const Table1D t(0.0, 3.14159, 400, [](double x) { return std::sin(x); });
  for (double x = 0.1; x < 3.0; x += 0.21) {
    EXPECT_NEAR(t.lookup(x), std::sin(x), 1e-4);
  }
}

TEST(Table2D, ReproducesBilinearFunctionExactly) {
  const Table2D t(0.0, 2.0, 5, 0.0, 4.0, 9,
                  [](double x, double y) { return 2.0 * x - y + x * y; });
  for (double x = 0.0; x <= 2.0; x += 0.19) {
    for (double y = 0.0; y <= 4.0; y += 0.41) {
      EXPECT_NEAR(t.lookup(x, y), 2.0 * x - y + x * y, 1e-10);
    }
  }
}

TEST(Table2D, PartialDerivativesMatchAnalytic) {
  const Table2D t(0.0, 2.0, 5, 0.0, 4.0, 9,
                  [](double x, double y) { return 2.0 * x - y + x * y; });
  // d/dx = 2 + y, d/dy = -1 + x (exact for a bilinear interpolant of a
  // bilinear function, at interior non-grid points).
  const Table2DGrad g = t.lookup_grad(0.7, 1.3);
  EXPECT_NEAR(g.dx, 2.0 + 1.3, 1e-9);
  EXPECT_NEAR(g.dy, -1.0 + 0.7, 1e-9);
  EXPECT_NEAR(g.v, 2.0 * 0.7 - 1.3 + 0.7 * 1.3, 1e-10);
}

/// The three-call route the fused lookup replaced (separate value, d/dx and
/// d/dy evaluations), spelled out with its original operand order. The
/// fused lookup must match it bit for bit, or every delay moves.
struct ReferenceBilinear {
  double x0, x1, y0, y1;
  std::size_t nx, ny;
  double (*f)(double, double);

  double dx() const { return (x1 - x0) / static_cast<double>(nx - 1); }
  double dy() const { return (y1 - y0) / static_cast<double>(ny - 1); }
  double at(std::size_t i, std::size_t j) const {
    return f(x0 + dx() * static_cast<double>(i),
             y0 + dy() * static_cast<double>(j));
  }
  static void locate(double u, double u0, double inv, std::size_t n,
                     std::size_t& i, double& fu) {
    const double s =
        std::clamp((u - u0) * inv, 0.0, static_cast<double>(n - 1));
    i = static_cast<std::size_t>(std::min(s, static_cast<double>(n - 2)));
    fu = s - static_cast<double>(i);
  }
  Table2DGrad eval(double x, double y) const {
    const double inv_dx = 1.0 / dx(), inv_dy = 1.0 / dy();
    std::size_t i, j;
    double fx, fy;
    locate(x, x0, inv_dx, nx, i, fx);
    locate(y, y0, inv_dy, ny, j, fy);
    Table2DGrad g;
    const double a = at(i, j) * (1.0 - fy) + at(i, j + 1) * fy;
    const double b = at(i + 1, j) * (1.0 - fy) + at(i + 1, j + 1) * fy;
    g.v = a * (1.0 - fx) + b * fx;
    const double ax = at(i + 1, j) - at(i, j);
    const double bx = at(i + 1, j + 1) - at(i, j + 1);
    g.dx = (ax * (1.0 - fy) + bx * fy) * inv_dx;
    const double ay = at(i, j + 1) - at(i, j);
    const double by = at(i + 1, j + 1) - at(i + 1, j);
    g.dy = (ay * (1.0 - fx) + by * fx) * inv_dy;
    return g;
  }
};

TEST(Table2D, FusedLookupIsBitwiseTheThreeCallRoute) {
  const ReferenceBilinear ref{
      -0.3, 1.7, 0.1, 2.9, 11, 17,
      [](double x, double y) { return std::exp(x) * std::tanh(y) - x * y; }};
  const Table2D t(ref.x0, ref.x1, ref.nx, ref.y0, ref.y1, ref.ny, ref.f);
  const double gx = ref.dx(), gy = ref.dy();
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < ref.nx; i += 3) {  // grid nodes, incl. last row
    for (std::size_t j = 0; j < ref.ny; j += 4) {
      pts.emplace_back(ref.x0 + gx * static_cast<double>(i),
                       ref.y0 + gy * static_cast<double>(j));
    }
  }
  pts.emplace_back(ref.x1, ref.y1);  // far corner
  for (double x = -0.29; x < 1.7; x += 0.137) {  // interior
    for (double y = 0.13; y < 2.9; y += 0.219) pts.emplace_back(x, y);
  }
  for (const double far : {-50.0, -0.31, 1.71, 1e6}) {  // clamped / outside
    pts.emplace_back(far, 1.0);
    pts.emplace_back(0.5, far);
    pts.emplace_back(far, far);
  }
  pts.emplace_back(-0.0, 0.0);
  for (const auto& [x, y] : pts) {
    const Table2DGrad want = ref.eval(x, y);
    const Table2DGrad got = t.lookup_grad(x, y);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.v),
              std::bit_cast<std::uint64_t>(t.lookup(x, y)))
        << x << "," << y;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.v),
              std::bit_cast<std::uint64_t>(want.v))
        << x << "," << y;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dx),
              std::bit_cast<std::uint64_t>(want.dx))
        << x << "," << y;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dy),
              std::bit_cast<std::uint64_t>(want.dy))
        << x << "," << y;
  }
}

TEST(Table2D, ClampsOutsideGrid) {
  const Table2D t(0.0, 1.0, 3, 0.0, 1.0, 3,
                  [](double x, double y) { return x + y; });
  EXPECT_NEAR(t.lookup(-1.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(t.lookup(2.0, 2.0), 2.0, 1e-12);
}

TEST(Table2D, FineGridInterpolatesSmoothFunction) {
  const Table2D t(0.0, 3.3, 133, 0.0, 3.3, 133, [](double x, double y) {
    return std::sqrt(x + 0.1) * std::log1p(y);
  });
  for (double x = 0.0; x <= 3.3; x += 0.31) {
    for (double y = 0.0; y <= 3.3; y += 0.37) {
      EXPECT_NEAR(t.lookup(x, y), std::sqrt(x + 0.1) * std::log1p(y), 2e-4);
    }
  }
}

TEST(Table1D, RejectsNonFiniteSamplesAtConstruction) {
  EXPECT_THROW(Table1D(0.0, 1.0, 5,
                       [](double x) {
                         return x > 0.5 ? std::numeric_limits<double>::
                                              quiet_NaN()
                                        : x;
                       }),
               DiagError);
  try {
    Table1D(0.0, 1.0, 3, [](double) {
      return std::numeric_limits<double>::infinity();
    });
    FAIL() << "expected DiagError";
  } catch (const DiagError& err) {
    EXPECT_EQ(err.diagnostic().code, DiagCode::kNonFiniteTableEntry);
  }
}

TEST(Table1D, RejectsNonFiniteLookupInputs) {
  const Table1D t(0.0, 1.0, 3, [](double x) { return x; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.lookup(nan), DiagError);
  EXPECT_THROW(t.derivative(nan), DiagError);
  EXPECT_THROW(t.lookup(std::numeric_limits<double>::infinity()), DiagError);
}

TEST(Table2D, RejectsNonFiniteSamplesAndInputs) {
  EXPECT_THROW(Table2D(0.0, 1.0, 3, 0.0, 1.0, 3,
                       [](double x, double y) {
                         return (x > 0.5 && y > 0.5)
                                    ? std::numeric_limits<double>::quiet_NaN()
                                    : x + y;
                       }),
               DiagError);
  const Table2D t(0.0, 1.0, 3, 0.0, 1.0, 3,
                  [](double x, double y) { return x + y; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.lookup(nan, 0.5), DiagError);
  EXPECT_THROW(t.lookup(0.5, nan), DiagError);
  EXPECT_THROW(t.lookup_grad(nan, 0.5), DiagError);
  EXPECT_THROW(t.lookup_grad(0.5, nan), DiagError);
  EXPECT_THROW(
      t.lookup_grad(std::numeric_limits<double>::infinity(), 0.5), DiagError);
  try {
    t.lookup_grad(0.5, nan);
    FAIL() << "expected DiagError";
  } catch (const DiagError& err) {
    EXPECT_EQ(err.diagnostic().code, DiagCode::kNonFiniteValue);
  }
}

}  // namespace
}  // namespace xtalk::util
