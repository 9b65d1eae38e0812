#include "common.h"

#include <cmath>

namespace perfbench {

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), for x < (a + 1) / (a + b + 2).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-13) break;
  }
  return h;
}

/// The regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double q = std::clamp(p / 100.0, 0.0, 1.0);
  if (v.size() == 1 || q == 0.0) return v.front();
  if (q == 1.0) return v.back();
  // Harrell-Davis: order statistic i weighs the Beta((n+1)q, (n+1)(1-q))
  // mass on [(i-1)/n, i/n].
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 1; i <= v.size(); ++i) {
    const double upto = IncompleteBeta(a, b, static_cast<double>(i) / n);
    estimate += (upto - below) * v[i - 1];
    below = upto;
  }
  return estimate;
}

}  // namespace perfbench
