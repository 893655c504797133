#pragma once
// Spans recorded from the benchmark's own code around every call it makes
// into a layer of the program. Each thread owns one SpanLog, so recording
// takes no lock; logs are merged when the run ends. A disabled log costs
// one branch per span.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { bench, service, core, apec, kernel, vgpu, minimpi };
inline constexpr std::size_t kLayerCount = 7;
const char* layer_name(Layer layer);

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;   ///< kNoSpan for a root
  std::uint64_t request = 0; ///< shared by every span of one request
  Layer layer = Layer::bench;
  const char* name = "";     ///< static string
  std::int64_t t0_ns = 0;    ///< steady clock
  std::int64_t t1_ns = 0;
  double seconds() const { return 1e-9 * static_cast<double>(t1_ns - t0_ns); }
};

std::int64_t now_ns();

class SpanLog {
 public:
  /// `log_id` makes span ids unique across the logs of one run. Spans past
  /// `capacity` are counted as dropped, not recorded.
  SpanLog(bool enabled, std::uint32_t log_id, std::size_t capacity);

  /// Turning a log on reserves its capacity, so recording never allocates.
  void set_enabled(bool on);

  /// Open a span; returns its id (kNoSpan when disabled or full).
  SpanId open(Layer layer, const char* name, SpanId parent,
              std::uint64_t request);
  void close(SpanId id);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::uint32_t log_id_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, const char* name,
             SpanId parent = kNoSpan, std::uint64_t request = 0)
      : log_(log), id_(log.open(layer, name, parent, request)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  SpanId id() const { return id_; }

 private:
  SpanLog& log_;
  SpanId id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children. Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerTimes {
  double self_s[kLayerCount] = {};
  double root_s = 0.0;  ///< summed duration of the root spans
  double share(Layer layer) const {
    return root_s > 0.0 ? self_s[static_cast<std::size_t>(layer)] / root_s
                        : 0.0;
  }
};

/// Per-layer self time over the trees whose root span is named `root_name`.
LayerTimes layer_times(const std::vector<Span>& spans, const char* root_name);

/// Tracing overhead from a run whose untraced and traced stretches
/// alternate: the median over pairs (untraced_rates[i], traced_rates[i]) of
/// (untraced - traced) / untraced, on rates where higher is better. Pairing
/// neighbouring stretches keeps the host's drift out of the difference.
/// Pairs past the shorter list are ignored; no pair at all throws.
double paired_overhead(const std::vector<double>& untraced_rates,
                       const std::vector<double>& traced_rates);

/// Write spans as CSV (id,parent,request,layer,name,t0_ns,t1_ns).
void write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
