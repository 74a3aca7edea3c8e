#include "bench/e2e/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/e2e/timed_store.h"
#include "src/common/histogram.h"

namespace obladi::e2e {
namespace {

// Most span names already carry their layer ("epoch.close"); the per-RPC
// spans are named by message type alone, on both the client ("rpc") and
// the server ("server"), so those get their category prefixed.
std::string SpanKey(const ObsEvent& ev) {
  if (std::strchr(ev.name, '.') != nullptr || ev.category == nullptr) {
    return ev.name;
  }
  return std::string(ev.category) + "." + ev.name;
}

}  // namespace

SpanReduction::SpanReduction(const std::vector<ObsEvent>& events, uint64_t t0_ns,
                             uint64_t t1_ns)
    : t0_ns_(t0_ns) {
  for (const ObsEvent& ev : events) {
    if (ev.kind == ObsEvent::Kind::kSpan && ev.name != nullptr && ev.ts_ns >= t0_ns &&
        ev.ts_ns < t1_ns) {
      by_name_[SpanKey(ev)].push_back(ev);
    }
  }
}

SpanSummary SpanReduction::Summary(std::initializer_list<const char*> names) const {
  Histogram durations;
  SpanSummary out;
  for (const char* name : names) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      continue;
    }
    for (const ObsEvent& ev : it->second) {
      durations.Record(ev.dur_ns);
      out.arg_sum += ev.arg;
    }
  }
  const HistogramSummary h = durations.Summary();
  out.count = h.count;
  out.total_ms = static_cast<double>(h.sum) / 1e6;
  out.mean_ms = h.mean / 1e6;
  out.p50_ms = static_cast<double>(h.p50) / 1e6;
  out.p99_ms = static_cast<double>(h.p99) / 1e6;
  return out;
}

std::vector<std::string> SpanReduction::LedgerRows() const {
  auto closes = by_name_.find("epoch.close");
  if (closes == by_name_.end() || closes->second.size() < 2) {
    return {};
  }
  std::vector<std::pair<uint64_t, uint64_t>> ends;  // (close end, closed epoch)
  for (const ObsEvent& ev : closes->second) {
    ends.emplace_back(ev.ts_ns + ev.dur_ns, ev.arg);
  }
  std::sort(ends.begin(), ends.end());

  struct Row {
    std::map<std::string, std::pair<size_t, double>> spans;  // name -> (count, ms)
    uint64_t round_trips = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_recv = 0;
  };
  std::vector<Row> rows(ends.size());
  for (const auto& [name, events] : by_name_) {
    const bool net = name.rfind("net.", 0) == 0;
    const bool recv = name == kNetSpans.read;
    const bool sent = name == kNetSpans.write || name == kNetSpans.wal_append ||
                      name == kNetSpans.wal_append_sync;
    for (const ObsEvent& ev : events) {
      // Row i covers (end of close i-1, end of close i].
      auto it = std::lower_bound(ends.begin(), ends.end(), std::make_pair(ev.ts_ns, uint64_t{0}));
      const size_t i = static_cast<size_t>(it - ends.begin());
      if (i == 0 || i == ends.size()) {
        continue;
      }
      Row& row = rows[i];
      auto& [count, ms] = row.spans[name];
      ++count;
      ms += static_cast<double>(ev.dur_ns) / 1e6;
      if (net) {
        ++row.round_trips;
        row.bytes_recv += recv ? ev.arg : 0;
        row.bytes_sent += sent ? ev.arg : 0;
      }
    }
  }

  std::vector<std::string> out;
  for (size_t i = 1; i < rows.size(); ++i) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"epoch\":%llu,\"start_ms\":%.3f,\"wall_ms\":%.3f,\"round_trips\":%llu,"
                  "\"bytes_sent\":%llu,\"bytes_recv\":%llu,\"spans\":{",
                  static_cast<unsigned long long>(ends[i].second),
                  static_cast<double>(ends[i - 1].first - t0_ns_) / 1e6,
                  static_cast<double>(ends[i].first - ends[i - 1].first) / 1e6,
                  static_cast<unsigned long long>(rows[i].round_trips),
                  static_cast<unsigned long long>(rows[i].bytes_sent),
                  static_cast<unsigned long long>(rows[i].bytes_recv));
    std::string line = head;
    bool first = true;
    for (const auto& [name, stat] : rows[i].spans) {
      char cell[160];
      std::snprintf(cell, sizeof(cell), "%s\"%s\":[%zu,%.4f]", first ? "" : ",", name.c_str(),
                    stat.first, stat.second);
      line += cell;
      first = false;
    }
    line += "}}";
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace obladi::e2e
