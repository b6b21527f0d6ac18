// Host-time probes for the traced run.  Every span is opened by benchmark
// code around a call into a layer's public API; nothing inside the library
// is instrumented.  Spans nest (a cached route wraps the algorithm route;
// an allreduce start wraps the sends it issues), so each span also
// reports whether it was outermost: the step loop's self time is its
// duration minus the outermost spans opened inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/router.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls into one layer and the host seconds they took.
struct Layer {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Nesting depth of open spans and the time covered by outermost spans.
struct SpanStack {
  int depth = 0;
  double top_level_s = 0.0;
};

/// Times one call: charges `layer` on destruction and, when `samples` is
/// set, records the call's duration there.
class Span {
 public:
  Span(SpanStack& stack, Layer& layer, std::vector<double>* samples = nullptr)
      : stack_(stack), layer_(layer), samples_(samples), t0_(Clock::now()) {
    ++stack_.depth;
  }
  ~Span() {
    const double d = seconds_since(t0_);
    --stack_.depth;
    ++layer_.calls;
    layer_.seconds += d;
    if (stack_.depth == 0) stack_.top_level_s += d;
    if (samples_ != nullptr) samples_->push_back(d);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  SpanStack& stack_;
  Layer& layer_;
  std::vector<double>* samples_;
  Clock::time_point t0_;
};

/// What a TimedRouter records.  `specs`, `worms` and `route_samples` are
/// filled only by a detailed TimedRouter.
struct RouterProbe {
  Layer route;
  Layer specs;
  std::uint64_t worms = 0;             // worm specs produced
  std::vector<double> route_samples;  // per route() call, seconds
};

/// Router decorator that times route() of the router it wraps and forwards
/// everything else unchanged.  A detailed one also records each route()
/// call's duration and times specs().
class TimedRouter final : public mcnet::mcast::Router {
 public:
  TimedRouter(std::unique_ptr<mcnet::mcast::Router> inner, SpanStack& stack, RouterProbe& probe,
              bool detailed)
      : inner_(std::move(inner)), stack_(stack), probe_(probe), detailed_(detailed) {}

  [[nodiscard]] mcnet::mcast::MulticastRoute route(
      const mcnet::mcast::MulticastRequest& request) const override {
    const Span span(stack_, probe_.route, detailed_ ? &probe_.route_samples : nullptr);
    return inner_->route(request);
  }
  [[nodiscard]] std::vector<mcnet::worm::WormSpec> specs(
      const mcnet::mcast::MulticastRoute& route) const override {
    if (!detailed_) return inner_->specs(route);
    const Span span(stack_, probe_.specs);
    std::vector<mcnet::worm::WormSpec> out = inner_->specs(route);
    probe_.worms += out.size();
    return out;
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] mcnet::mcast::Algorithm algorithm() const override {
    return inner_->algorithm();
  }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const mcnet::topo::Topology& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

 private:
  std::unique_ptr<mcnet::mcast::Router> inner_;
  SpanStack& stack_;
  RouterProbe& probe_;
  bool detailed_;
};

}  // namespace perfbench
