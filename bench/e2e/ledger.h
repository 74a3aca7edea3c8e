// Reduction of the traced pass's spans — the program's own (epoch, oram,
// sched, wal, server, rpc) and the benchmark's (proxy.*, net.*, storage.*,
// recorded by SessionKv, the collector and the timing decorators) — into
// per-name summaries for the per-layer metrics, and into the per-epoch
// ledger.
#ifndef OBLADI_BENCH_E2E_LEDGER_H_
#define OBLADI_BENCH_E2E_LEDGER_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace obladi::e2e {

struct SpanSummary {
  size_t count = 0;
  double total_ms = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t arg_sum = 0;  // payload bytes, for the decorator spans
};

class SpanReduction {
 public:
  // Keeps the spans that started in [t0_ns, t1_ns).
  SpanReduction(const std::vector<ObsEvent>& events, uint64_t t0_ns, uint64_t t1_ns);

  // Summary over the union of the spans with any of `names`. A span is named
  // by its own name when that carries a layer ("epoch.close"), else by
  // "<category>.<name>" ("rpc.ReadSlots", "server.ReadSlots").
  SpanSummary Summary(std::initializer_list<const char*> names) const;

  // One JSON object per epoch, in close order. Epoch E's window runs from
  // the end of the previous epoch.close span to the end of E's own; every
  // span, round trip and byte is charged to the window its span started in.
  // Spans before the first close or after the last one are left out.
  std::vector<std::string> LedgerRows() const;

 private:
  std::map<std::string, std::vector<ObsEvent>> by_name_;
  uint64_t t0_ns_;
};

}  // namespace obladi::e2e

#endif  // OBLADI_BENCH_E2E_LEDGER_H_
