#include "src/core/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include <math.h>  // lgamma_r (POSIX)

namespace fsbench {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::rel_stddev_pct() const {
  return mean() == 0.0 ? 0.0 : 100.0 * stddev() / std::abs(mean());
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  if (values.empty()) {
    return summary;
  }
  RunningStats stats;
  for (double v : values) {
    stats.Add(v);
  }
  std::sort(values.begin(), values.end());
  summary.count = stats.count();
  summary.mean = stats.mean();
  summary.stddev = stats.stddev();
  summary.rel_stddev_pct = stats.rel_stddev_pct();
  summary.min = stats.min();
  summary.max = stats.max();
  summary.median = PercentileSorted(values, 0.5);
  summary.p25 = PercentileSorted(values, 0.25);
  summary.p75 = PercentileSorted(values, 0.75);
  if (summary.count >= 2) {
    const double se = summary.stddev / std::sqrt(static_cast<double>(summary.count));
    summary.ci95_half_width = TCritical(static_cast<double>(summary.count - 1)) * se;
  }
  return summary;
}

namespace {

// Lentz's continued fraction for the incomplete beta (Numerical Recipes
// betacf).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3.0e-14;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) {
    d = kTiny;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEpsilon) {
      break;
    }
  }
  return h;
}

// ln|Gamma(x)|. std::lgamma stores the sign of Gamma(x) in libm's global
// `signgam`, a data race when experiments summarize on parallel workers;
// the reentrant lgamma_r returns the same value and keeps the sign local.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  const double ln_beta =
      LogGamma(a + b) - LogGamma(a) - LogGamma(b) + a * std::log(x) +
      b * std::log(1.0 - x);
  const double front = std::exp(ln_beta);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  assert(df > 0.0);
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double TCritical(double df, double confidence) {
  assert(df > 0.0);
  assert(confidence > 0.0 && confidence < 1.0);
  const double target = 0.5 + confidence / 2.0;  // upper quantile
  double lo = 0.0;
  double hi = 1.0e3;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (StudentTCdf(mid, df) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

WelchResult WelchTTest(const std::vector<double>& a, const std::vector<double>& b) {
  WelchResult result;
  if (a.size() < 2 || b.size() < 2) {
    return result;
  }
  RunningStats sa;
  RunningStats sb;
  for (double v : a) {
    sa.Add(v);
  }
  for (double v : b) {
    sb.Add(v);
  }
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  const double va = sa.variance() / na;
  const double vb = sb.variance() / nb;
  result.mean_diff = sa.mean() - sb.mean();
  const double se = std::sqrt(va + vb);
  if (se == 0.0) {
    result.df = na + nb - 2.0;
    result.p_value = result.mean_diff == 0.0 ? 1.0 : 0.0;
    return result;
  }
  result.t = result.mean_diff / se;
  // Welch–Satterthwaite degrees of freedom.
  result.df = (va + vb) * (va + vb) /
              (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  result.p_value = 2.0 * (1.0 - StudentTCdf(std::abs(result.t), result.df));
  const double tcrit = TCritical(result.df);
  result.ci95_lo = result.mean_diff - tcrit * se;
  result.ci95_hi = result.mean_diff + tcrit * se;
  return result;
}

size_t RunsForRelativePrecision(const Summary& pilot, double target_rel) {
  if (pilot.count < 2 || pilot.mean == 0.0 || target_rel <= 0.0) {
    return 2;
  }
  // Half-width = t* . s / sqrt(n) <= target_rel * mean, using z ~= 1.96 as
  // the asymptotic critical value, then round up and clamp.
  const double s_over_mean = pilot.stddev / std::abs(pilot.mean);
  const double n = std::pow(1.96 * s_over_mean / target_rel, 2.0);
  return std::max<size_t>(2, static_cast<size_t>(std::ceil(n)));
}

}  // namespace fsbench
