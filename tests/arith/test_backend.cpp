#include "spnhbm/arith/backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "spnhbm/util/rng.hpp"

namespace spnhbm::arith {
namespace {

std::vector<std::unique_ptr<ArithBackend>> all_backends() {
  std::vector<std::unique_ptr<ArithBackend>> backends;
  backends.push_back(make_float64_backend());
  backends.push_back(make_cfp_backend(paper_cfp_format()));
  backends.push_back(make_lns_backend(paper_lns_format()));
  backends.push_back(make_posit_backend(paper_posit_format()));
  return backends;
}

TEST(Backend, KindsAndWidths) {
  const auto f64 = make_float64_backend();
  EXPECT_EQ(f64->kind(), FormatKind::kFloat64);
  EXPECT_EQ(f64->width_bits(), 64);

  const auto cfp = make_cfp_backend(paper_cfp_format());
  EXPECT_EQ(cfp->kind(), FormatKind::kCfp);
  EXPECT_EQ(cfp->width_bits(), 30);  // 8 exponent + 22 mantissa, unsigned

  const auto lns = make_lns_backend(paper_lns_format());
  EXPECT_EQ(lns->kind(), FormatKind::kLns);
  EXPECT_EQ(lns->width_bits(), 30);  // 8 integer + 22 fraction
}

TEST(Backend, Float64IsExact) {
  const auto backend = make_float64_backend();
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    const double y = rng.next_double();
    EXPECT_DOUBLE_EQ(backend->decode(backend->add(backend->encode(x),
                                                  backend->encode(y))),
                     x + y);
    EXPECT_DOUBLE_EQ(backend->decode(backend->mul(backend->encode(x),
                                                  backend->encode(y))),
                     x * y);
  }
}

TEST(Backend, AllBackendsAgreeOnProbabilityArithmetic) {
  // Each backend must compute sum-of-products within its own precision.
  Rng rng(13);
  for (const auto& backend : all_backends()) {
    for (int i = 0; i < 200; ++i) {
      const double a = rng.next_uniform(0.05, 0.95);
      const double b = rng.next_uniform(0.05, 0.95);
      const double c = rng.next_uniform(0.05, 0.95);
      const double want = a * b + c;
      const auto got_bits = backend->add(
          backend->mul(backend->encode(a), backend->encode(b)),
          backend->encode(c));
      EXPECT_NEAR(backend->decode(got_bits) / want, 1.0, 1e-4)
          << backend->describe();
    }
  }
}

TEST(Backend, LatenciesArePositiveAndFormatShaped) {
  const auto f64 = make_float64_backend();
  const auto cfp = make_cfp_backend(paper_cfp_format());
  const auto lns = make_lns_backend(paper_lns_format());
  // The prior-work float64 cores are much deeper than the CFP operators —
  // this drives the pipeline-depth difference behind Table I's register
  // counts.
  EXPECT_GT(f64->add_latency_cycles(), cfp->add_latency_cycles());
  EXPECT_GT(f64->mul_latency_cycles(), cfp->mul_latency_cycles());
  // LNS: multiplication is a plain fixed-point add, the cheapest operator.
  EXPECT_EQ(lns->mul_latency_cycles(), 1);
  EXPECT_GT(lns->add_latency_cycles(), lns->mul_latency_cycles());
}

TEST(Backend, PaperFormatsMatchPublishedConfigs) {
  EXPECT_EQ(paper_cfp_format().exponent_bits, 8);
  EXPECT_EQ(paper_cfp_format().mantissa_bits, 22);
  EXPECT_FALSE(paper_cfp_format().has_sign);
  EXPECT_EQ(paper_lns_format().integer_bits, 8);
  EXPECT_EQ(paper_lns_format().fraction_bits, 22);
}

TEST(Backend, FormatKindNames) {
  EXPECT_STREQ(format_kind_name(FormatKind::kFloat64), "float64");
  EXPECT_STREQ(format_kind_name(FormatKind::kCfp), "cfp");
  EXPECT_STREQ(format_kind_name(FormatKind::kLns), "lns");
}

}  // namespace
}  // namespace spnhbm::arith
