#include "src/shard/sharded_oram_set.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/shard/shard_store_view.h"

namespace obladi {

struct ShardedOramSet::PlanRendezvous {
  explicit PlanRendezvous(size_t participants) : expected(participants) {}
  std::mutex mu;
  std::condition_variable cv;
  const size_t expected;
  size_t arrived = 0;
  std::vector<std::pair<uint32_t, BatchPlan>> plans;
  Status result;  // first planning failure, then the hook's status
  bool done = false;
};

ShardedOramSet::ShardedOramSet(const ShardLayout& layout, const ShardedOramOptions& options,
                               std::shared_ptr<BucketStore> store,
                               std::shared_ptr<Encryptor> encryptor, uint64_t seed)
    : layout_(layout), options_(options), router_(layout.num_shards) {
  std::vector<std::shared_ptr<BucketStore>> views;
  views.reserve(layout_.num_shards);
  for (uint32_t s = 0; s < layout_.num_shards; ++s) {
    if (layout_.num_shards == 1) {
      views.push_back(store);  // no translation overhead in the K=1 path
    } else {
      views.push_back(std::make_shared<ShardStoreView>(
          store, layout_.bucket_offset(s), layout_.shard_config.num_buckets()));
    }
  }
  Construct(std::move(views), std::move(encryptor), seed);
}

ShardedOramSet::ShardedOramSet(const ShardLayout& layout, const ShardedOramOptions& options,
                               std::vector<std::shared_ptr<BucketStore>> shard_stores,
                               std::shared_ptr<Encryptor> encryptor, uint64_t seed)
    : layout_(layout), options_(options), router_(layout.num_shards) {
  Construct(std::move(shard_stores), std::move(encryptor), seed);
}

void ShardedOramSet::Construct(std::vector<std::shared_ptr<BucketStore>> shard_stores,
                               std::shared_ptr<Encryptor> encryptor, uint64_t seed) {
  RingOramOptions per_shard = options_.oram;
  if (layout_.num_shards > 1) {
    per_shard.io_threads =
        std::max<size_t>(2, options_.oram.io_threads / layout_.num_shards);
  }
  shards_.reserve(layout_.num_shards);
  for (uint32_t s = 0; s < layout_.num_shards; ++s) {
    // Distinct per-shard seeds: shards must draw independent leaves.
    uint64_t shard_seed = seed ^ (0x9e3779b97f4a7c15ull * (s + 1));
    shards_.push_back(std::make_unique<RingOram>(layout_.ConfigForShard(s), per_shard,
                                                 shard_stores[s], encryptor, shard_seed));
    // Runs under the running batch's batch_mu_, which guards both members.
    shards_[s]->SetBatchPlannedHook([this, s](const BatchPlan& plan) {
      // The plan is what the shard ORAM will actually issue, padding
      // included — the right place to assert the padded shape.
      if (watchdog_ != nullptr) {
        watchdog_->ObserveShardBatch(s, plan.requests.size());
      }
      return rendezvous_ != nullptr ? Arrive(s, &plan, Status::Ok()) : Status::Ok();
    });
  }
  if (layout_.num_shards > 1) {
    coordinator_ = std::make_unique<ThreadPool>(layout_.num_shards);
  }
}

Status ShardedOramSet::RunOnShards(const std::function<Status(uint32_t)>& fn) {
  if (layout_.num_shards == 1) {
    Status st = fn(0);
    RecordShardOutcome(0, st.ok());
    return st;
  }
  std::vector<Status> results(layout_.num_shards, Status::Ok());
  coordinator_->ParallelFor(layout_.num_shards, [&](size_t s) {
    results[s] = fn(static_cast<uint32_t>(s));
  });
  for (uint32_t s = 0; s < layout_.num_shards; ++s) {
    RecordShardOutcome(s, results[s].ok());
  }
  for (const Status& st : results) {
    OBLADI_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

void ShardedOramSet::RecordShardOutcome(uint32_t shard, bool ok) {
  std::lock_guard<std::mutex> lk(health_mu_);
  if (shard_healthy_.size() != layout_.num_shards) {
    shard_healthy_.assign(layout_.num_shards, 1);
    shard_failures_.assign(layout_.num_shards, 0);
  }
  shard_healthy_[shard] = ok ? 1 : 0;
  if (!ok) {
    shard_failures_[shard]++;
  }
}

std::vector<uint8_t> ShardedOramSet::ShardHealthSnapshot() const {
  std::lock_guard<std::mutex> lk(health_mu_);
  if (shard_healthy_.size() != layout_.num_shards) {
    return std::vector<uint8_t>(layout_.num_shards, 1);
  }
  return shard_healthy_;
}

std::vector<uint64_t> ShardedOramSet::ShardFailuresSnapshot() const {
  std::lock_guard<std::mutex> lk(health_mu_);
  if (shard_failures_.size() != layout_.num_shards) {
    return std::vector<uint64_t>(layout_.num_shards, 0);
  }
  return shard_failures_;
}

Status ShardedOramSet::Initialize(const std::vector<Bytes>& values) {
  if (values.size() > layout_.global_capacity) {
    return Status::InvalidArgument("more initial values than global capacity");
  }
  // Split the global dense id space into per-shard dense slices. Local slots
  // beyond the last global id (when K does not divide N) load as empty
  // blocks: they are mapped and evictable but never addressed.
  std::vector<std::vector<Bytes>> per_shard(layout_.num_shards);
  for (auto& v : per_shard) {
    v.resize(layout_.shard_capacity());
  }
  for (BlockId g = 0; g < values.size(); ++g) {
    per_shard[router_.ShardOf(g)][router_.LocalId(g)] = values[g];
  }
  return RunOnShards(
      [&](uint32_t s) { return shards_[s]->Initialize(per_shard[s]); });
}

StatusOr<std::vector<Bytes>> ShardedOramSet::ReadBatch(const std::vector<BlockId>& ids) {
  return ReadBatchImpl(ids, nullptr);
}

StatusOr<std::vector<Bytes>> ShardedOramSet::ReadBatch(const std::vector<BlockId>& ids,
                                                       const EarlyResultFn& early) {
  return ReadBatchImpl(ids, early ? &early : nullptr);
}

StatusOr<std::vector<Bytes>> ShardedOramSet::ReadBatchImpl(const std::vector<BlockId>& ids,
                                                           const EarlyResultFn* early) {
  const uint32_t k = layout_.num_shards;
  std::vector<std::vector<BlockId>> sub(k);
  std::vector<std::vector<size_t>> result_slot(k);
  for (uint32_t s = 0; s < k; ++s) {
    sub[s].reserve(options_.read_quota);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidBlockId) {
      continue;  // global padding; the per-shard padding below subsumes it
    }
    uint32_t s = router_.ShardOf(ids[i]);
    if (sub[s].size() >= options_.read_quota) {
      return Status::ResourceExhausted("shard read sub-batch quota exceeded");
    }
    sub[s].push_back(router_.LocalId(ids[i]));
    result_slot[s].push_back(i);
  }
  // Pad every sub-batch to the fixed quota: the adversary sees exactly
  // read_quota path reads per shard per batch, independent of routing skew.
  for (uint32_t s = 0; s < k; ++s) {
    sub[s].resize(options_.read_quota, kInvalidBlockId);
  }

  std::lock_guard<std::mutex> batch_lk(batch_mu_);
  PlanRendezvous rendezvous(k);
  rendezvous_ = plan_hook_ ? &rendezvous : nullptr;
  std::vector<StatusOr<std::vector<Bytes>>> shard_results(
      k, StatusOr<std::vector<Bytes>>(Status::Internal("not run")));
  Status st = RunOnShards([&](uint32_t s) {
    // Translate a shard-local early answer to the global batch index.
    // Only real (non-padding) requests occupy the dense prefix of sub[s],
    // so every fire's local index has a result_slot mapping.
    RingOram::EarlyResultFn shard_early = [&, s](size_t j, const Bytes& value) {
      if (j < result_slot[s].size()) {
        (*early)(result_slot[s][j], value);
      }
    };
    shard_results[s] = RunSubBatch(s, sub[s], early != nullptr ? &shard_early : nullptr);
    return shard_results[s].ok() ? Status::Ok() : shard_results[s].status();
  });
  rendezvous_ = nullptr;
  OBLADI_RETURN_IF_ERROR(st);

  std::vector<Bytes> results(ids.size());
  for (uint32_t s = 0; s < k; ++s) {
    for (size_t j = 0; j < result_slot[s].size(); ++j) {
      results[result_slot[s][j]] = std::move((*shard_results[s])[j]);
    }
  }
  return results;
}

StatusOr<std::vector<Bytes>> ShardedOramSet::ReplayShardBatch(uint32_t shard,
                                                              const BatchPlan& plan) {
  if (shard >= layout_.num_shards) {
    return Status::InvalidArgument("replay plan names an unknown shard");
  }
  // Replayed batches skip the plan hook (the plan is already logged), so
  // feed the watchdog here — the crash epoch still owes every shard its
  // full complement of shaped sub-batches.
  if (watchdog_ != nullptr) {
    watchdog_->ObserveShardBatch(shard, plan.requests.size());
  }
  return shards_[shard]->ReplayReadBatch(plan);
}

Status ShardedOramSet::ReadShardDummyBatch(uint32_t shard) {
  if (shard >= layout_.num_shards) {
    return Status::InvalidArgument("unknown shard");
  }
  std::lock_guard<std::mutex> batch_lk(batch_mu_);
  PlanRendezvous rendezvous(1);
  rendezvous_ = plan_hook_ ? &rendezvous : nullptr;
  std::vector<BlockId> dummies(options_.read_quota, kInvalidBlockId);
  auto result = RunSubBatch(shard, dummies, nullptr);
  rendezvous_ = nullptr;
  return result.ok() ? Status::Ok() : result.status();
}

StatusOr<std::vector<Bytes>> ShardedOramSet::RunSubBatch(uint32_t shard,
                                                         const std::vector<BlockId>& ids,
                                                         const RingOram::EarlyResultFn* early) {
  auto result = early != nullptr ? shards_[shard]->ReadBatch(ids, *early)
                                 : shards_[shard]->ReadBatch(ids);
  if (!result.ok() && rendezvous_ != nullptr) {
    (void)Arrive(shard, nullptr, result.status());
  }
  return result;
}

Status ShardedOramSet::Arrive(uint32_t shard, const BatchPlan* plan, const Status& failure) {
  PlanRendezvous& rv = *rendezvous_;
  std::unique_lock<std::mutex> lk(rv.mu);
  if (rv.done) {
    return rv.result;  // failed after its plan arrived; the batch is decided
  }
  if (plan != nullptr) {
    rv.plans.emplace_back(shard, *plan);
  } else if (rv.result.ok()) {
    rv.result = failure;
  }
  if (++rv.arrived < rv.expected) {
    rv.cv.wait(lk, [&] { return rv.done; });
    return rv.result;
  }
  if (rv.result.ok()) {
    // Every participant is parked on the cv; the plans are this thread's.
    lk.unlock();
    std::sort(rv.plans.begin(), rv.plans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Status st = plan_hook_(rv.plans);
    lk.lock();
    rv.result = st;
  }
  rv.done = true;
  rv.cv.notify_all();
  return rv.result;
}

void ShardedOramSet::AdvanceWriteSchedule(size_t per_shard_bumps) {
  Status st = RunOnShards([&](uint32_t s) {
    shards_[s]->AdvanceWriteSchedule(per_shard_bumps);
    if (watchdog_ != nullptr) {
      watchdog_->ObserveShardAdvance(s, per_shard_bumps);
    }
    return Status::Ok();
  });
  (void)st;  // schedule advancement cannot fail
}

void ShardedOramSet::AdvanceShardWriteSchedule(uint32_t shard, size_t bumps) {
  if (shard < layout_.num_shards) {
    shards_[shard]->AdvanceWriteSchedule(bumps);
    if (watchdog_ != nullptr) {
      watchdog_->ObserveShardAdvance(shard, bumps);
    }
  }
}

Status ShardedOramSet::ApplyWriteValues(const std::vector<std::pair<BlockId, Bytes>>& writes) {
  const uint32_t k = layout_.num_shards;
  std::vector<std::vector<std::pair<BlockId, Bytes>>> sub(k);
  for (const auto& [id, value] : writes) {
    uint32_t s = router_.ShardOf(id);
    if (sub[s].size() >= options_.write_quota) {
      return Status::ResourceExhausted("shard write batch quota exceeded");
    }
    sub[s].emplace_back(router_.LocalId(id), value);
  }
  return RunOnShards([&](uint32_t s) { return shards_[s]->ApplyWriteValues(sub[s]); });
}

Status ShardedOramSet::FinishEpoch() {
  // Epoch boundary: the watchdog checks this epoch's per-shard tallies
  // before any shard advances.
  if (watchdog_ != nullptr) {
    watchdog_->ObserveEpochClose();
  }
  return RunOnShards([&](uint32_t s) { return shards_[s]->FinishEpoch(); });
}

Status ShardedOramSet::BeginRetire() {
  OBS_SPAN("shard", "shard.begin_retire");
  if (watchdog_ != nullptr) {
    watchdog_->ObserveEpochClose();
  }
  return RunOnShards([&](uint32_t s) { return shards_[s]->BeginRetire(); });
}

Status ShardedOramSet::AwaitRetireDurable() {
  // Sequential, NOT RunOnShards: every shard's flush is already in flight
  // (BeginRetire handed encrypt+submit to each shard's own pool), each wait
  // is a plain block on that shard's completion count, and the retirement
  // stage needs the last completion either way. Parking K blocking waits on
  // the coordinator pool would starve the next epoch's batch fan-outs.
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status st = shard->AwaitRetireDurable();
    if (!st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

void ShardedOramSet::CollectRetired() {
  for (auto& shard : shards_) {
    shard->CollectRetired();
  }
}

size_t ShardedOramSet::RetiringGenerations() const {
  size_t depth = 0;
  for (const auto& shard : shards_) {
    depth = std::max(depth, shard->RetiringGenerations());
  }
  return depth;
}

size_t ShardedOramSet::InflightBlocks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->InflightBlocks();
  }
  return total;
}

Status ShardedOramSet::TruncateStaleVersions() {
  // NOT RunOnShards: the retirement stage calls this while the next epoch's
  // batch fan-outs occupy the coordinator pool. Sharing that pool would
  // deadlock — truncate tasks that win pool slots block on shard locks held
  // by running sub-batches, which wait in their batch's plan rendezvous for
  // peer sub-batches that sit queued behind those truncate tasks.
  if (layout_.num_shards == 1) {
    return shards_[0]->TruncateStaleVersions();
  }
  std::vector<Status> results(layout_.num_shards, Status::Ok());
  std::vector<std::thread> workers;
  workers.reserve(layout_.num_shards);
  for (uint32_t s = 0; s < layout_.num_shards; ++s) {
    workers.emplace_back([&, s] { results[s] = shards_[s]->TruncateStaleVersions(); });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (const Status& st : results) {
    OBLADI_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

void ShardedOramSet::SetBatchPlannedHook(BatchPlannedFn hook) {
  std::lock_guard<std::mutex> batch_lk(batch_mu_);
  plan_hook_ = std::move(hook);
}

void ShardedOramSet::SetWatchdog(TraceShapeWatchdog* watchdog) {
  std::lock_guard<std::mutex> batch_lk(batch_mu_);
  watchdog_ = watchdog;
}

std::vector<RingOram*> ShardedOramSet::shard_ptrs() {
  std::vector<RingOram*> out;
  out.reserve(shards_.size());
  for (auto& s : shards_) {
    out.push_back(s.get());
  }
  return out;
}

Status ShardedOramSet::RestoreShardState(uint32_t shard, PositionMap position_map,
                                         std::vector<BucketMeta> metas, Stash stash,
                                         uint64_t access_count, uint64_t evict_count,
                                         EpochId epoch) {
  if (shard >= layout_.num_shards) {
    return Status::InvalidArgument("unknown shard");
  }
  return shards_[shard]->RestoreState(std::move(position_map), std::move(metas),
                                      std::move(stash), access_count, evict_count, epoch);
}

uint64_t ShardedOramSet::access_count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->access_count();
  }
  return total;
}

uint64_t ShardedOramSet::evict_count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->evict_count();
  }
  return total;
}

RingOramStats ShardedOramSet::stats() const {
  RingOramStats agg;
  for (const auto& s : shards_) {
    RingOramStats st = s->stats();
    agg.logical_accesses += st.logical_accesses;
    agg.physical_slot_reads += st.physical_slot_reads;
    agg.physical_bucket_writes += st.physical_bucket_writes;
    agg.planned_bucket_rewrites += st.planned_bucket_rewrites;
    agg.evictions += st.evictions;
    agg.early_reshuffles += st.early_reshuffles;
    agg.buffered_bucket_skips += st.buffered_bucket_skips;
    agg.retiring_bucket_skips += st.retiring_bucket_skips;
    agg.xor_path_reads += st.xor_path_reads;
    agg.stash_cache_skips += st.stash_cache_skips;
    agg.early_results += st.early_results;
    agg.flush_plan_us += st.flush_plan_us;
    agg.materialize_us += st.materialize_us;
    agg.write_drain_us += st.write_drain_us;
  }
  return agg;
}

std::vector<RingOramStats> ShardedOramSet::per_shard_stats() const {
  std::vector<RingOramStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.push_back(s->stats());
  }
  return out;
}

void ShardedOramSet::ResetStats() {
  for (auto& s : shards_) {
    s->ResetStats();
  }
}

Status ShardedOramSet::CheckInvariants() const {
  for (const auto& s : shards_) {
    OBLADI_RETURN_IF_ERROR(s->CheckInvariants());
  }
  return Status::Ok();
}

}  // namespace obladi
