#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "evsim/facility.hpp"
#include "evsim/process.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "evsim/stats.hpp"

namespace {

using namespace mcnet::evsim;

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, HandlersCanScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) s.schedule_in(1.0, chain);
  };
  s.schedule_in(1.0, chain);
  s.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(s.run_until(2.5), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  s.schedule_at(2.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Process, DelaySuspendsAndResumes) {
  Scheduler s;
  std::vector<double> times;
  const auto proc = [](Scheduler& sched, std::vector<double>& t) -> Process {
    t.push_back(sched.now());
    co_await delay(sched, 1.5);
    t.push_back(sched.now());
    co_await delay(sched, 2.5);
    t.push_back(sched.now());
  };
  proc(s, times);
  s.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(times[2], 4.0);
}

TEST(Facility, SerialisesUsersFcfs) {
  Scheduler s;
  Facility fac(s, 1);
  std::vector<std::pair<int, double>> service_start;
  const auto user = [](Scheduler& sched, Facility& f, int id, double arrive,
                       std::vector<std::pair<int, double>>& log) -> Process {
    co_await delay(sched, arrive);
    co_await f.acquire();
    log.emplace_back(id, sched.now());
    co_await delay(sched, 10.0);  // service time
    f.release();
  };
  user(s, fac, 0, 0.0, service_start);
  user(s, fac, 1, 1.0, service_start);
  user(s, fac, 2, 2.0, service_start);
  s.run();
  ASSERT_EQ(service_start.size(), 3u);
  EXPECT_EQ(service_start[0].first, 0);
  EXPECT_DOUBLE_EQ(service_start[0].second, 0.0);
  EXPECT_EQ(service_start[1].first, 1);
  EXPECT_DOUBLE_EQ(service_start[1].second, 10.0);
  EXPECT_EQ(service_start[2].first, 2);
  EXPECT_DOUBLE_EQ(service_start[2].second, 20.0);
}

TEST(Facility, MultipleServersRunConcurrently) {
  Scheduler s;
  Facility fac(s, 2);
  std::vector<double> done;
  const auto user = [](Scheduler& sched, Facility& f, std::vector<double>& log) -> Process {
    co_await f.acquire();
    co_await delay(sched, 5.0);
    f.release();
    log.push_back(sched.now());
  };
  for (int i = 0; i < 4; ++i) user(s, fac, done);
  s.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
  EXPECT_DOUBLE_EQ(done[2], 10.0);
  EXPECT_DOUBLE_EQ(done[3], 10.0);
}

TEST(Facility, OverReleaseThrows) {
  Scheduler s;
  Facility fac(s, 1);
  EXPECT_THROW(fac.release(), std::logic_error);
}

TEST(Mailbox, DeliversInOrderAndBlocksReceivers) {
  Scheduler s;
  Mailbox<int> box(s);
  std::vector<int> got;
  const auto receiver = [](Mailbox<int>& mb, std::vector<int>& out) -> Process {
    for (int i = 0; i < 3; ++i) {
      out.push_back(co_await mb.receive());
    }
  };
  receiver(box, got);
  EXPECT_EQ(box.waiting_receivers(), 1u);
  const auto sender = [](Scheduler& sched, Mailbox<int>& mb) -> Process {
    co_await delay(sched, 1.0);
    mb.send(10);
    mb.send(20);
    co_await delay(sched, 1.0);
    mb.send(30);
  };
  sender(s, box);
  s.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Stats, SummaryWelford) {
  Summary sum;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) sum.add(x);
  EXPECT_EQ(sum.count(), 8u);
  EXPECT_DOUBLE_EQ(sum.mean(), 5.0);
  EXPECT_NEAR(sum.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(sum.min(), 2.0);
  EXPECT_DOUBLE_EQ(sum.max(), 9.0);
}

TEST(Stats, StudentTQuantiles) {
  EXPECT_NEAR(student_t_975(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_975(10), 2.228, 1e-3);
  EXPECT_NEAR(student_t_975(30), 2.042, 1e-3);
  EXPECT_NEAR(student_t_975(1000), 1.96, 1e-3);
  EXPECT_TRUE(std::isinf(student_t_975(0)));
}

TEST(Stats, BatchMeansDiscardsWarmupAndConverges) {
  BatchMeans bm(10, /*discard=*/1);
  // Warm-up batch of large values, then steady batches around 5.
  for (int i = 0; i < 10; ++i) bm.add(100.0);
  for (int i = 0; i < 200; ++i) bm.add(5.0 + ((i % 2 == 0) ? 0.01 : -0.01));
  EXPECT_EQ(bm.completed_batches(), 21u);
  EXPECT_EQ(bm.effective_batches(), 20u);
  EXPECT_NEAR(bm.mean(), 5.0, 1e-9);  // warm-up batch excluded
  EXPECT_TRUE(bm.converged(0.05, 10));
}

TEST(Stats, BatchMeansNotConvergedWhenNoisy) {
  BatchMeans bm(5, 0);
  for (int i = 0; i < 30; ++i) bm.add(i % 2 == 0 ? 1.0 : 100.0);
  EXPECT_FALSE(bm.converged(0.05, 3));
}

TEST(Random, SeedDerivationDecorrelates) {
  const std::uint64_t a = derive_seed(1, 0);
  const std::uint64_t b = derive_seed(1, 1);
  const std::uint64_t c = derive_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Random, SampleDestinationsDistinctAndExcludesSource) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const auto dests = rng.sample_destinations(64, 10, 20);
    EXPECT_EQ(dests.size(), 20u);
    std::set<mcnet::topo::NodeId> set(dests.begin(), dests.end());
    EXPECT_EQ(set.size(), 20u) << "duplicates";
    EXPECT_FALSE(set.contains(10u)) << "source sampled";
    for (const auto d : set) EXPECT_LT(d, 64u);
  }
}

TEST(Random, SampleDestinationsFullNetwork) {
  Rng rng(7);
  const auto dests = rng.sample_destinations(16, 3, 15);
  std::set<mcnet::topo::NodeId> set(dests.begin(), dests.end());
  EXPECT_EQ(set.size(), 15u);
  EXPECT_FALSE(set.contains(3u));
  EXPECT_THROW((void)rng.sample_destinations(16, 3, 16), std::invalid_argument);
}

/// The hash-set Floyd sampler sample_destinations_into replaced, kept
/// verbatim as the bit-equality reference.
std::vector<mcnet::topo::NodeId> reference_sample(Rng& rng, std::uint32_t num_nodes,
                                                  mcnet::topo::NodeId source, std::uint32_t k) {
  const std::uint32_t pool = num_nodes - 1;
  std::unordered_set<std::uint32_t> chosen;
  chosen.reserve(k * 2);
  std::vector<mcnet::topo::NodeId> result;
  result.reserve(k);
  for (std::uint32_t j = pool - k; j < pool; ++j) {
    const std::uint32_t t = rng.uniform_int(0, j);
    const std::uint32_t pick = chosen.insert(t).second ? t : j;
    if (pick != t) chosen.insert(j);
    result.push_back(pick >= source ? pick + 1 : pick);
  }
  std::shuffle(result.begin(), result.end(), rng.engine());
  return result;
}

TEST(Random, SampleDestinationsIntoIsBitEqualToTheHashSetSampler) {
  std::vector<mcnet::topo::NodeId> out = {99, 98};  // stale contents are replaced
  for (const std::uint32_t n : {2u, 3u, 16u, 64u, 1024u}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      Rng ref(seed);
      Rng got(seed);
      for (const mcnet::topo::NodeId source : {0u, n / 2, n - 1}) {
        for (const std::uint32_t k : {1u, (n - 1) / 2 + 1, n - 1}) {
          if (k == 0 || k > n - 1) continue;
          const auto want = reference_sample(ref, n, source, k);
          got.sample_destinations_into(n, source, k, out);
          ASSERT_EQ(out, want) << "n=" << n << " source=" << source << " k=" << k;
          // The same draws were consumed: the streams stay in lock-step.
          ASSERT_EQ(ref.uniform_int(0, 1u << 30), got.uniform_int(0, 1u << 30));
        }
      }
    }
  }
}

TEST(Summary, HandlesEdgeCases) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // no samples: defined as zero
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // single sample: zero, not NaN
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(-5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 50.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(BatchMeans, DiscardAtLeastCompletedLeavesNoEffectiveBatches) {
  BatchMeans bm(10, /*discard=*/3);
  for (int i = 0; i < 30; ++i) bm.add(1.0);  // exactly 3 completed batches
  EXPECT_EQ(bm.completed_batches(), 3u);
  EXPECT_EQ(bm.effective_batches(), 0u);
  EXPECT_DOUBLE_EQ(bm.mean(), 0.0);
  EXPECT_TRUE(std::isinf(bm.half_width()));
  EXPECT_FALSE(bm.converged());
}

TEST(BatchMeans, SingleEffectiveBatchHasInfiniteHalfWidth) {
  BatchMeans bm(5, /*discard=*/1);
  for (int i = 0; i < 10; ++i) bm.add(2.0);  // 2 completed, 1 effective
  EXPECT_EQ(bm.effective_batches(), 1u);
  EXPECT_DOUBLE_EQ(bm.mean(), 2.0);
  // One batch mean gives no variance estimate: the half-width must be
  // infinite (unknown), never zero (claiming perfect precision).
  EXPECT_TRUE(std::isinf(bm.half_width()));
  EXPECT_FALSE(bm.converged(0.05, 1));
}

TEST(BatchMeans, ZeroMeanNeverConverges) {
  BatchMeans bm(2, /*discard=*/0);
  for (int i = 0; i < 100; ++i) bm.add(0.0);
  EXPECT_EQ(bm.effective_batches(), 50u);
  EXPECT_DOUBLE_EQ(bm.mean(), 0.0);
  EXPECT_DOUBLE_EQ(bm.half_width(), 0.0);
  // The relative-width rule is undefined at mean zero; converged() must
  // answer false rather than divide by zero.
  EXPECT_FALSE(bm.converged());
}

TEST(BatchMeans, ConvergesOnSteadyData) {
  BatchMeans bm(10, /*discard=*/1);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) bm.add(100.0 + rng.uniform(-1.0, 1.0));
  EXPECT_GE(bm.effective_batches(), 10u);
  EXPECT_NEAR(bm.mean(), 100.0, 0.5);
  EXPECT_TRUE(bm.converged(0.05, 10));
  EXPECT_LT(bm.half_width(), 1.0);
}

TEST(BatchMeans, PartialBatchDoesNotCount) {
  BatchMeans bm(10, /*discard=*/0);
  for (int i = 0; i < 9; ++i) bm.add(1.0);
  EXPECT_EQ(bm.samples(), 9u);
  EXPECT_EQ(bm.completed_batches(), 0u);
  bm.add(1.0);
  EXPECT_EQ(bm.completed_batches(), 1u);
  EXPECT_THROW(BatchMeans(0, 0), std::invalid_argument);
}

/// The batch-means estimator as it was before its mean and half-width were
/// cached: every query recomputes from the stored batch means.  The
/// property test below holds BatchMeans to these bits.
class ReferenceBatchMeans {
 public:
  ReferenceBatchMeans(std::uint32_t batch_size, std::uint32_t discard)
      : batch_size_(batch_size), discard_(discard) {}

  void add(double x) {
    current_sum_ += x;
    if (++current_count_ == batch_size_) {
      batch_means_.push_back(current_sum_ / batch_size_);
      current_sum_ = 0.0;
      current_count_ = 0;
    }
  }
  [[nodiscard]] std::uint32_t effective_batches() const {
    const auto completed = static_cast<std::uint32_t>(batch_means_.size());
    return completed > discard_ ? completed - discard_ : 0;
  }
  [[nodiscard]] double mean() const {
    const std::uint32_t n = effective_batches();
    if (n == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t i = discard_; i < batch_means_.size(); ++i) sum += batch_means_[i];
    return sum / n;
  }
  [[nodiscard]] double half_width() const {
    const std::uint32_t n = effective_batches();
    if (n < 2) return std::numeric_limits<double>::infinity();
    const double m = mean();
    double ss = 0.0;
    for (std::size_t i = discard_; i < batch_means_.size(); ++i) {
      const double d = batch_means_[i] - m;
      ss += d * d;
    }
    const double s2 = ss / (n - 1);
    return student_t_975(n - 1) * std::sqrt(s2 / n);
  }
  [[nodiscard]] bool converged(double rel, std::uint32_t min_batches) const {
    const std::uint32_t n = effective_batches();
    if (n < min_batches) return false;
    const double m = mean();
    if (m == 0.0) return false;
    return half_width() <= rel * std::abs(m);
  }

 private:
  std::uint32_t batch_size_;
  std::uint32_t discard_;
  double current_sum_ = 0.0;
  std::uint32_t current_count_ = 0;
  std::vector<double> batch_means_;
};

TEST(BatchMeans, CachedEstimatesAreBitIdenticalToRecomputation) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, std::uint32_t>> rules = {
      {0.05, 10}, {0.05, 2}, {0.2, 2}, {0.01, 30}, {1.0, 0}, {kInf, 1}};
  struct Stream {
    const char* name;
    std::function<double(Rng&, std::uint64_t)> sample;
  };
  const std::vector<Stream> streams = {
      {"latency-like", [](Rng& r, std::uint64_t) { return 5e-6 + r.exponential(12e-6); }},
      {"uniform", [](Rng& r, std::uint64_t) { return r.uniform(90.0, 110.0); }},
      {"constant", [](Rng&, std::uint64_t) { return 3.7; }},
      {"all-zero", [](Rng&, std::uint64_t) { return 0.0; }},
      {"zero-mean", [](Rng& r, std::uint64_t) { return r.uniform(-1.0, 1.0); }},
      {"alternating", [](Rng&, std::uint64_t i) { return i % 2 == 0 ? 1.0 : -1.0; }},
      {"infinite spike",
       [](Rng& r, std::uint64_t i) { return i == 40 ? kInf : r.uniform(0.0, 1.0); }},
  };
  for (const std::uint32_t batch_size : {1u, 7u, 1000u}) {
    // 500 batches for the small sizes; the reference is O(batches) per
    // query, so the 1000-sample batches stop at 30.
    const std::uint64_t batches = batch_size == 1000 ? 30 : 500;
    for (std::uint32_t discard = 0; discard <= 3; ++discard) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        SCOPED_TRACE(::testing::Message() << streams[s].name << " batch_size=" << batch_size
                                          << " discard=" << discard);
        Rng rng(derive_seed(batch_size * 4 + discard, s));
        BatchMeans bm(batch_size, discard);
        ReferenceBatchMeans ref(batch_size, discard);
        for (std::uint64_t i = 0; i < batches * batch_size; ++i) {
          const double x = streams[s].sample(rng, i);
          bm.add(x);
          ref.add(x);
          ASSERT_EQ(bm.effective_batches(), ref.effective_batches()) << "sample " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(bm.mean()),
                    std::bit_cast<std::uint64_t>(ref.mean()))
              << "sample " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(bm.half_width()),
                    std::bit_cast<std::uint64_t>(ref.half_width()))
              << "sample " << i;
          for (const auto& [rel, min_batches] : rules) {
            ASSERT_EQ(bm.converged(rel, min_batches), ref.converged(rel, min_batches))
                << "sample " << i << " rel=" << rel << " min_batches=" << min_batches;
          }
        }
      }
    }
  }
}

TEST(Random, SampleDestinationsIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(16, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (const auto d : rng.sample_destinations(16, 0, 3)) ++counts[d];
  }
  // Each of the 15 candidates should appear ~ trials * 3 / 15 = 4000 times.
  EXPECT_EQ(counts[0], 0);
  for (int d = 1; d < 16; ++d) {
    EXPECT_NEAR(counts[d], 4000, 400) << "node " << d;
  }
}

}  // namespace
