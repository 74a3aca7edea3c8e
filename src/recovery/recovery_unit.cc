#include "src/recovery/recovery_unit.h"

#include "src/common/clock.h"
#include "src/common/serde.h"
#include "src/obs/trace.h"

namespace obladi {

RecoveryUnit::RecoveryUnit(RecoveryConfig config, std::shared_ptr<LogStore> log,
                           std::shared_ptr<Encryptor> encryptor)
    : config_(config), log_(std::move(log)), encryptor_(std::move(encryptor)) {}

Status RecoveryUnit::AppendRecordLocked(RecordType type, const Bytes& plaintext_payload,
                                        uint64_t* seq_out) {
  uint64_t seq = record_seq_++;
  BinaryWriter aad;
  aad.PutU64(seq);
  Bytes ciphertext = encryptor_->Encrypt(plaintext_payload, aad.bytes());
  BinaryWriter w(ciphertext.size() + 16);
  w.PutU8(type);
  w.PutU64(seq);
  w.PutBytes(ciphertext);
  // Fused durable append (kLogAppendSync over the wire): the record is
  // synced when this returns, in the same round trip that carried it. The
  // trade vs the old append-under-lock + sync-off-lock split: one round
  // trip per record instead of two, at the cost of holding mu_ across the
  // sync — concurrent appenders no longer overlap their syncs. Since
  // ShardedOramSet's per-batch plan rendezvous hands each global batch's K
  // sub-plans to one LogReadBatchPlans call (one record per batch),
  // appenders are rarely concurrent and the round-trip cut wins on the
  // batch critical path.
  StatusOr<uint64_t> lsn(0ull);
  {
    // The fused durable append is the log's fsync-equivalent: the one WAL
    // operation worth seeing on the epoch critical path in a trace.
    OBS_SPAN_ARG("wal", "wal.append_sync", type);
    lsn = log_->AppendSync(w.Take());
  }
  if (!lsn.ok()) {
    return lsn.status();
  }
  if (type == kFullCheckpoint) {
    last_full_lsn_ = *lsn;
  }
  *seq_out = seq;
  return Status::Ok();
}

Status RecoveryUnit::FinishAppendUnlocked(uint64_t seq) {
  // The record is already durable (AppendRecordLocked fuses the sync).
  // Appendix A: the write counts as complete only once the trusted counter
  // reflects it; recovery uses the counter to detect rollback. Advance is
  // monotonic, so out-of-order finishes cannot regress it.
  if (trusted_counter_ != nullptr) {
    return trusted_counter_->Advance(seq + 1);
  }
  return Status::Ok();
}

Status RecoveryUnit::LogReadBatchPlans(
    const std::vector<std::pair<uint32_t, BatchPlan>>& plans) {
  if (!config_.enabled || plans.empty()) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lk(mu_);
  // Ordering rule (pipelined epochs, depth-D form): this plan may enter the
  // log only while fewer than pipeline_window_ checkpoints are pending, so a
  // crash leaves at most D epochs of plans past the last durable checkpoint
  // — exactly the window recovery replays. Wait for the retirement stage to
  // land (or abandon) the oldest pending checkpoint.
  gate_cv_.wait(lk, [&] {
    return checkpoints_pending_ < pipeline_window_ || !gate_error_.ok();
  });
  OBLADI_RETURN_IF_ERROR(gate_error_);
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(plans.size()));
  for (const auto& [shard, plan] : plans) {
    w.PutU32(shard);
    w.PutBytes(plan.Serialize());
  }
  uint64_t seq = 0;
  OBLADI_RETURN_IF_ERROR(AppendRecordLocked(kReadBatchPlan, w.Take(), &seq));
  lk.unlock();
  // The fused append already synced; only the trusted counter runs off-lock.
  return FinishAppendUnlocked(seq);
}

Bytes RecoveryUnit::BuildDeltaPayload(const std::vector<RingOram*>& shards) {
  BinaryWriter w;
  w.PutU64(shards[0]->epoch());
  w.PutU32(static_cast<uint32_t>(shards.size()));
  for (RingOram* oram : shards) {
    w.PutU64(oram->access_count());
    w.PutU64(oram->evict_count());

    // Position-map delta, padded to the worst case so the record size does
    // not reveal how many requests in the epoch were real (§8). The pad is
    // per shard: each shard executes at most R*read_quota + write_quota real
    // accesses per epoch.
    Bytes delta = oram->position_map().SerializeDelta();
    BinaryReader peek(delta);
    uint32_t real_entries = peek.GetU32();
    BinaryWriter padded;
    size_t total =
        config_.posmap_delta_pad_entries > real_entries && config_.posmap_delta_pad_entries != 0
            ? config_.posmap_delta_pad_entries
            : real_entries;
    padded.PutU32(static_cast<uint32_t>(total));
    padded.PutRaw(delta.data() + 4, delta.size() - 4);
    for (size_t i = real_entries; i < total; ++i) {
      padded.PutU64(kInvalidBlockId);
      padded.PutU32(kInvalidLeaf);
    }
    w.PutBytes(padded.Take());

    // Metadata (permutations, valid maps, versions) of buckets touched this
    // epoch. The set of touched buckets is public information — it is
    // exactly the adversary-visible physical access set — so its count needs
    // no pad.
    std::vector<BucketIndex> dirty = oram->TakeDirtyBuckets();
    w.PutU32(static_cast<uint32_t>(dirty.size()));
    const auto& metas = oram->bucket_metas();
    for (BucketIndex b : dirty) {
      w.PutU32(b);
      metas[b].Serialize(w);
    }

    // Full stash, padded to the analytic bound.
    w.PutBytes(oram->stash().SerializePadded(oram->config().max_stash_blocks,
                                             oram->config().block_payload_size));
  }
  w.PutBytes(metadata_delta_ ? metadata_delta_() : Bytes{});
  return w.Take();
}

Bytes RecoveryUnit::BuildFullPayload(const std::vector<RingOram*>& shards) {
  BinaryWriter w;
  w.PutU64(shards[0]->epoch());
  w.PutU32(static_cast<uint32_t>(shards.size()));
  for (RingOram* oram : shards) {
    w.PutU64(oram->access_count());
    w.PutU64(oram->evict_count());
    w.PutBytes(oram->position_map().SerializeFull());
    const auto& metas = oram->bucket_metas();
    w.PutU32(static_cast<uint32_t>(metas.size()));
    for (const auto& m : metas) {
      m.Serialize(w);
    }
    w.PutBytes(oram->stash().SerializePadded(oram->config().max_stash_blocks,
                                             oram->config().block_payload_size));
    // Full image supersedes all dirty tracking so far.
    oram->TakeDirtyBuckets();
    oram->position_map().ClearDirty();
  }
  w.PutBytes(metadata_full_ ? metadata_full_() : Bytes{});
  return w.Take();
}

Status RecoveryUnit::LogFullCheckpoint(const std::vector<RingOram*>& shards) {
  if (!config_.enabled) {
    return Status::Ok();
  }
  // Serialize the shards *before* taking mu_: payload building acquires each
  // RingOram's internal lock, and a running read batch logs its plan via
  // LogReadBatchPlans (which takes mu_) while holding that lock — holding mu_
  // across the build would invert the order.
  Bytes payload = BuildFullPayload(shards);
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t seq = 0;
  OBLADI_RETURN_IF_ERROR(AppendRecordLocked(kFullCheckpoint, payload, &seq));
  epochs_since_full_ = 0;
  // Older records are superseded; reclaim the log.
  OBLADI_RETURN_IF_ERROR(log_->Truncate(last_full_lsn_));
  lk.unlock();
  return FinishAppendUnlocked(seq);
}

StatusOr<RecoveryUnit::PendingCheckpoint> RecoveryUnit::CaptureEpochCommit(
    const std::vector<RingOram*>& shards) {
  PendingCheckpoint cp;
  if (!config_.enabled) {
    return cp;  // valid=false: AppendCaptured is a no-op
  }
  // As in LogFullCheckpoint: build the payload outside mu_. Epoch closes are
  // serialized by the proxy, so reading the interval counter first and
  // updating it at append time cannot interleave with another capture.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (checkpoints_pending_ >= pipeline_window_) {
      return Status::FailedPrecondition("checkpoint window full: oldest still pending");
    }
    OBLADI_RETURN_IF_ERROR(gate_error_);
    cp.full = epochs_since_full_ + 1 >= config_.full_checkpoint_interval;
  }
  cp.payload = cp.full ? BuildFullPayload(shards) : BuildDeltaPayload(shards);
  cp.valid = true;
  std::lock_guard<std::mutex> lk(mu_);
  ++checkpoints_pending_;  // gate plan records once the window fills
  return cp;
}

Status RecoveryUnit::AppendCaptured(PendingCheckpoint checkpoint) {
  if (!checkpoint.valid) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!gate_error_.ok()) {
    // A pending checkpoint older than this one was abandoned: appending this
    // one would put checkpoint N+1 in the log with N missing, corrupting the
    // replay window. Count it off and refuse; only Recover() resets the gate.
    if (checkpoints_pending_ > 0) {
      --checkpoints_pending_;
    }
    gate_cv_.notify_all();
    return gate_error_;
  }
  uint64_t seq = 0;
  Status st;
  if (checkpoint.full) {
    st = AppendRecordLocked(kFullCheckpoint, checkpoint.payload, &seq);
    if (st.ok()) {
      epochs_since_full_ = 0;
      st = log_->Truncate(last_full_lsn_);
    }
  } else {
    st = AppendRecordLocked(kEpochDelta, checkpoint.payload, &seq);
    if (st.ok()) {
      ++epochs_since_full_;
    }
  }
  if (!st.ok() && gate_error_.ok()) {
    // The checkpoint never reached the log: plans appended after it would
    // break the ordering rule, so the gate stays broken until recovery.
    gate_error_ = st;
  }
  // The gate opens at *append* time: the log's order now has the checkpoint
  // before any subsequently appended plan, which is what the ordering rule
  // protects (append order survives a crash; the sync below only bounds the
  // loss window). Clients still learn nothing early — the retirement stage
  // releases commit decisions only after this returns, i.e. after the sync.
  if (checkpoints_pending_ > 0) {
    --checkpoints_pending_;
  }
  gate_cv_.notify_all();
  lk.unlock();
  OBLADI_RETURN_IF_ERROR(st);
  return FinishAppendUnlocked(seq);
}

void RecoveryUnit::AbandonPendingCheckpoint(Status reason) {
  std::lock_guard<std::mutex> lk(mu_);
  if (gate_error_.ok()) {
    gate_error_ = reason.ok() ? Status::Unavailable("epoch checkpoint abandoned") : reason;
  }
  if (checkpoints_pending_ > 0) {
    --checkpoints_pending_;
  }
  gate_cv_.notify_all();
}

void RecoveryUnit::SetPipelineWindow(size_t window) {
  std::lock_guard<std::mutex> lk(mu_);
  pipeline_window_ = window == 0 ? 1 : window;
  gate_cv_.notify_all();
}

Status RecoveryUnit::LogEpochCommit(const std::vector<RingOram*>& shards) {
  auto cp = CaptureEpochCommit(shards);
  if (!cp.ok()) {
    return cp.status();
  }
  return AppendCaptured(std::move(*cp));
}

StatusOr<RecoveryUnit::RecoveredState> RecoveryUnit::Recover() {
  std::lock_guard<std::mutex> lk(mu_);
  // A crash mid-retirement leaves captured-but-unappended checkpoints and a
  // broken gate; recovery starts the log ordering over.
  checkpoints_pending_ = 0;
  gate_error_ = Status::Ok();
  gate_cv_.notify_all();
  RecoveredState state;
  Stopwatch total;

  Stopwatch fetch;
  // With a replicated WAL, recovery must not replay a lagging replica's
  // shortened history: drive catch-up first so the read below sees every
  // acknowledged record (no-op on unreplicated logs). Failure is fine —
  // ReadAll fails over to a replica holding the full acknowledged prefix.
  (void)log_->TryHealReplicas();
  auto records = log_->ReadAll();
  if (!records.ok()) {
    return records.status();
  }
  state.breakdown.log_fetch_us = fetch.ElapsedMicros();
  state.breakdown.log_records = records->size();
  if (records->empty()) {
    return state;  // nothing durable yet: fresh start
  }

  // Decrypt and index the records; find the last full checkpoint.
  struct Parsed {
    RecordType type;
    Bytes payload;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(records->size());
  ptrdiff_t last_full = -1;
  uint64_t max_seq = 0;
  bool saw_any = false;
  for (const Bytes& rec : *records) {
    BinaryReader r(rec);
    auto type = static_cast<RecordType>(r.GetU8());
    uint64_t seq = r.GetU64();
    Bytes ct = r.GetBytes();
    BinaryWriter aad;
    aad.PutU64(seq);
    // MAC-mode encryptors authenticate the sequence binding here, so a
    // malicious server cannot reorder or substitute records.
    auto pt = encryptor_->Decrypt(ct, aad.bytes());
    if (!pt.ok()) {
      return pt.status();
    }
    if (saw_any && seq <= max_seq) {
      return Status::IntegrityViolation("log records out of sequence");
    }
    max_seq = seq;
    saw_any = true;
    parsed.push_back(Parsed{type, std::move(*pt)});
    if (type == kFullCheckpoint) {
      last_full = static_cast<ptrdiff_t>(parsed.size()) - 1;
    }
  }
  // Resume the sequence after the recovered prefix so future records extend
  // it monotonically.
  record_seq_ = saw_any ? max_seq + 1 : 0;
  if (trusted_counter_ != nullptr) {
    auto expected = trusted_counter_->Read();
    if (!expected.ok()) {
      return expected.status();
    }
    if (record_seq_ < *expected) {
      return Status::IntegrityViolation("storage served a rolled-back log");
    }
  }
  if (last_full < 0) {
    return Status::DataLoss("log contains no full checkpoint");
  }

  // Rebuild from the full checkpoint.
  {
    BinaryReader r(parsed[static_cast<size_t>(last_full)].payload);
    state.epoch = r.GetU64();
    uint32_t num_shards = r.GetU32();
    state.shards.resize(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      ShardState& shard = state.shards[s];
      shard.access_count = r.GetU64();
      shard.evict_count = r.GetU64();
      Stopwatch pos;
      Bytes posmap_bytes = r.GetBytes();
      shard.position_map = PositionMap::DeserializeFull(posmap_bytes);
      state.breakdown.pos_us += pos.ElapsedMicros();
      Stopwatch perm;
      uint32_t n = r.GetU32();
      shard.metas.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        shard.metas[i] = BucketMeta::Deserialize(r);
      }
      state.breakdown.perm_us += perm.ElapsedMicros();
      Stopwatch stash_sw;
      shard.stash = Stash::Deserialize(r.GetBytes());
      state.breakdown.stash_us += stash_sw.ElapsedMicros();
    }
    state.metadata_full = r.GetBytes();
  }

  // Apply newer epoch deltas in order; collect read plans logged after the
  // last committed epoch (the crashed epoch's prefix).
  for (size_t i = static_cast<size_t>(last_full) + 1; i < parsed.size(); ++i) {
    Parsed& p = parsed[i];
    if (p.type == kReadBatchPlan) {
      // One record per global batch: count shard-tagged sub-plans.
      BinaryReader r(p.payload);
      uint32_t count = r.GetU32();
      for (uint32_t i = 0; i < count; ++i) {
        PendingPlan pending;
        pending.shard = r.GetU32();
        pending.plan = BatchPlan::Deserialize(r.GetBytes());
        if (pending.shard >= state.shards.size()) {
          return Status::IntegrityViolation("logged plan names an unknown shard");
        }
        state.pending_plans.push_back(std::move(pending));
      }
      continue;
    }
    if (p.type == kFullCheckpoint) {
      return Status::Internal("unexpected full checkpoint after the last one");
    }
    // Epoch delta: every plan logged before a committed epoch belongs to that
    // epoch — drop them, they are durable in the checkpoint.
    state.pending_plans.clear();
    BinaryReader r(p.payload);
    state.epoch = r.GetU64();
    uint32_t num_shards = r.GetU32();
    if (num_shards != state.shards.size()) {
      return Status::IntegrityViolation("epoch delta shard count mismatch");
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      ShardState& shard = state.shards[s];
      shard.access_count = r.GetU64();
      shard.evict_count = r.GetU64();
      Stopwatch pos;
      Bytes delta = r.GetBytes();
      shard.position_map.ApplyDelta(delta);
      state.breakdown.pos_us += pos.ElapsedMicros();
      Stopwatch perm;
      uint32_t dirty = r.GetU32();
      for (uint32_t d = 0; d < dirty; ++d) {
        BucketIndex b = r.GetU32();
        shard.metas[b] = BucketMeta::Deserialize(r);
      }
      state.breakdown.perm_us += perm.ElapsedMicros();
      Stopwatch stash_sw;
      shard.stash = Stash::Deserialize(r.GetBytes());
      state.breakdown.stash_us += stash_sw.ElapsedMicros();
    }
    state.metadata_deltas.push_back(r.GetBytes());
  }

  for (ShardState& shard : state.shards) {
    shard.position_map.ClearDirty();
  }
  state.has_state = true;
  state.breakdown.replayed_batches = state.pending_plans.size();
  state.breakdown.total_us = total.ElapsedMicros();
  return state;
}

}  // namespace obladi
