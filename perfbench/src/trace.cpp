#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::bench: return "bench";
    case Layer::service: return "service";
    case Layer::core: return "core";
    case Layer::apec: return "apec";
    case Layer::kernel: return "kernel";
    case Layer::vgpu: return "vgpu";
    case Layer::minimpi: return "minimpi";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog(bool enabled, std::uint32_t log_id, std::size_t capacity)
    : enabled_(enabled), log_id_(log_id), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

void SpanLog::set_enabled(bool on) {
  enabled_ = on;
  if (on) spans_.reserve(capacity_);
}

SpanId SpanLog::open(Layer layer, const char* name, SpanId parent,
                     std::uint64_t request) {
  if (!enabled_) return kNoSpan;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  // Index + 1 in the low word, so kNoSpan never names a real span.
  const SpanId id = (static_cast<SpanId>(log_id_) << 32) | (spans_.size() + 1);
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.layer = layer;
  s.name = name;
  s.t0_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void SpanLog::close(SpanId id) {
  if (id == kNoSpan) return;
  spans_[(id & 0xffffffffu) - 1].t1_ns = now_ns();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != kNoSpan) children[spans[i].parent].push_back(i);

  std::vector<double> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      iv.clear();
      for (std::size_t c : it->second) {
        const std::int64_t a = std::max(spans[c].t0_ns, s.t0_ns);
        const std::int64_t b = std::min(spans[c].t1_ns, s.t1_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t end = s.t0_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t from = std::max(a, end);
        if (b > from) {
          covered += b - from;
          end = b;
        }
      }
    }
    self[i] = 1e-9 * static_cast<double>(s.t1_ns - s.t0_ns - covered);
  }
  return self;
}

LayerTimes layer_times(const std::vector<Span>& spans, const char* root_name) {
  std::unordered_map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  auto root_of = [&](std::size_t i) {
    while (spans[i].parent != kNoSpan) {
      auto it = index.find(spans[i].parent);
      if (it == index.end()) break;
      i = it->second;
    }
    return i;
  };

  const std::vector<double> self = self_times(spans);
  LayerTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t r = root_of(i);
    if (std::strcmp(spans[r].name, root_name) != 0) continue;
    out.self_s[static_cast<std::size_t>(spans[i].layer)] += self[i];
    if (r == i) out.root_s += spans[i].seconds();
  }
  return out;
}

double paired_overhead(const std::vector<double>& untraced_rates,
                       const std::vector<double>& traced_rates) {
  const std::size_t n = std::min(untraced_rates.size(), traced_rates.size());
  std::vector<double> diffs;
  for (std::size_t i = 0; i < n; ++i)
    diffs.push_back((untraced_rates[i] - traced_rates[i]) / untraced_rates[i]);
  return median(std::move(diffs));
}

void write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,parent,request,layer,name,t0_ns,t1_ns\n";
  for (const Span& s : spans)
    out << s.id << ',' << s.parent << ',' << s.request << ','
        << layer_name(s.layer) << ',' << s.name << ',' << s.t0_ns << ','
        << s.t1_ns << '\n';
}

}  // namespace perfbench
