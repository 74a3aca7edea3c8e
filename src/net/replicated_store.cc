#include "src/net/replicated_store.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <utility>

namespace obladi {

namespace {

// Bound on heal rounds per pass: each round either drains work or races a
// concurrent writer; a live workload can keep re-dirtying forever, and the
// retire loop will kick the next pass, so give up rather than spin.
constexpr int kMaxHealRounds = 4096;

// WAL catch-up buffer cap: once the ordered op tail a lagging replica still
// needs exceeds this many bytes, that replica is marked dead instead of
// stalling trim forever.
constexpr size_t kMaxPendingLogBytes = 64ull << 20;

// Max ops replayed per locked-snapshot round during WAL catch-up.
constexpr size_t kLogReplayChunk = 256;

template <typename T>
bool AnyRetryable(const StatusOr<T>& result) {
  return !result.ok() && IsReplicaRetryable(result.status());
}

template <typename T>
bool AnyRetryable(const std::vector<StatusOr<T>>& results) {
  return std::any_of(results.begin(), results.end(),
                     [](const StatusOr<T>& r) { return AnyRetryable(r); });
}

// Per-replica outcomes of one write fan-out, counted toward its quorum.
struct QuorumTally {
  uint32_t oks = 0;
  Status first_error = Status::Ok();
  std::vector<size_t> failed;  // failed retriably: demote these

  // Records one replica's answer; true if it acked.
  bool Add(size_t replica, const Status& s) {
    if (s.ok()) {
      oks++;
      return true;
    }
    if (first_error.ok()) {
      first_error = s;
    }
    if (IsReplicaRetryable(s)) {
      failed.push_back(replica);
    }
    return false;
  }
  Status Outcome(uint32_t quorum, const char* unreached) const {
    if (oks >= quorum) {
      return Status::Ok();
    }
    return first_error.ok() ? Status::Unavailable(unreached) : first_error;
  }
};

// The answer of a batched read no replica could take.
template <typename T>
std::function<std::vector<StatusOr<T>>()> NoReplica(size_t n) {
  return [n] { return std::vector<StatusOr<T>>(n, Status::Unavailable("no current replica")); };
}

}  // namespace

// --- ReplicaSet -------------------------------------------------------------

// The per-replica fields the health core reads and writes; each store
// extends them with its own catch-up state.
template <typename S>
struct ReplicaBase {
  using Store = S;
  std::shared_ptr<Store> store;
  ReplicaHealth health = ReplicaHealth::kCurrent;
  uint64_t lag_start_epoch = 0;
  // A heal pass is in flight for this replica (K shard views share one
  // replica set and may all kick TryHealReplicas; only one pass runs).
  bool healing = false;
};

// Methods named *Locked expect `mu` held; the others take it themselves.
template <typename Replica>
class ReplicaSet {
 public:
  using Store = typename Replica::Store;
  template <typename Result>
  using Done = std::function<void(Result)>;

  ReplicaSet(std::vector<std::shared_ptr<Store>> stores, uint32_t write_quorum)
      : quorum(std::clamp<uint32_t>(write_quorum, 1,
                                    static_cast<uint32_t>(std::max<size_t>(stores.size(), 1)))) {
    replicas.reserve(stores.size());
    for (auto& store : stores) {
      Replica r;
      r.store = std::move(store);
      replicas.push_back(std::move(r));
    }
  }

  int PrimaryIndexLocked() const {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i].health == ReplicaHealth::kCurrent) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // The current replicas, in index order: a write fan-out's targets.
  std::vector<size_t> CurrentLocked() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i].health == ReplicaHealth::kCurrent) {
        out.push_back(i);
      }
    }
    return out;
  }

  // Demote `index` to lagging after a retryable failure. Unless
  // `demote_last`, the last current replica is never demoted: someone has
  // to keep serving (errors then propagate), and idempotent state has
  // nothing a demotion would protect. WAL appends and truncates pass
  // `demote_last` — the LSN bookkeeping cannot keep serving past a missed
  // op. Returns true if a current replica remains to fail over to.
  bool DemoteLocked(size_t index, bool count_failover, bool demote_last) {
    if (replicas[index].health != ReplicaHealth::kCurrent) {
      // Someone demoted it concurrently; report whether a target remains.
      return PrimaryIndexLocked() >= 0;
    }
    if (!demote_last && CurrentLocked().size() <= 1) {
      return false;
    }
    const bool was_primary = PrimaryIndexLocked() == static_cast<int>(index);
    Replica& r = replicas[index];
    r.health = ReplicaHealth::kLagging;
    r.lag_start_epoch = epoch_;
    generation_++;
    // Demoting the primary is a failover no matter which path noticed the
    // outage first — a quorum write fan-out demoting it moves reads exactly
    // as a failed read would.
    if (count_failover || was_primary) {
      failovers_++;
    }
    return PrimaryIndexLocked() >= 0;
  }

  // A caught-up lagging replica rejoins the current set.
  void PromoteLocked(size_t index) {
    Replica& r = replicas[index];
    const uint64_t lag = LagEpochsLocked(r);
    r.health = ReplicaHealth::kCurrent;
    resyncs_++;
    resync_epochs_ += lag > 0 ? lag : 1;
    generation_++;
  }

  // Excludes a replica for good (it lost acknowledged data, or fell past
  // what replay can restore); heal passes skip it.
  void KillLocked(size_t index) {
    if (replicas[index].health != ReplicaHealth::kDead) {
      replicas[index].health = ReplicaHealth::kDead;
      generation_++;
    }
  }

  int PrimaryIndex() {
    std::lock_guard<std::mutex> lk(mu);
    return PrimaryIndexLocked();
  }

  ReplicationStats Stats() {
    std::lock_guard<std::mutex> lk(mu);
    ReplicationStats out;
    out.failovers = failovers_;
    out.resyncs = resyncs_;
    out.resync_epochs = resync_epochs_;
    out.generation = generation_;
    int primary = PrimaryIndexLocked();
    out.replicas.reserve(replicas.size());
    for (size_t i = 0; i < replicas.size(); ++i) {
      ReplicaInfo info;
      info.index = static_cast<uint32_t>(i);
      info.primary = static_cast<int>(i) == primary;
      info.health = replicas[i].health;
      info.lag_epochs = LagEpochsLocked(replicas[i]);
      info.stats = replicas[i].store->network_stats();
      out.replicas.push_back(info);
    }
    return out;
  }

  void NoteEpochRetired(EpochId epoch) {
    std::lock_guard<std::mutex> lk(mu);
    epoch_ = std::max<uint64_t>(epoch_, epoch);
  }

  // Runs `heal` for each lagging replica no other pass is healing, under
  // that replica's healing flag; returns the first error.
  Status HealEach(const std::function<Status(size_t)>& heal) {
    Status first = Status::Ok();
    for (size_t i = 0; i < replicas.size(); ++i) {
      {
        std::lock_guard<std::mutex> lk(mu);
        Replica& r = replicas[i];
        if (r.health != ReplicaHealth::kLagging || r.healing) {
          continue;
        }
        r.healing = true;
      }
      Status s = heal(i);
      {
        std::lock_guard<std::mutex> lk(mu);
        replicas[i].healing = false;
      }
      if (!s.ok() && first.ok()) {
        first = s;
      }
    }
    return first;
  }

  // Read failover, the one path every read entry point takes. `submit`
  // issues the read against the primary and answers through its callback
  // (inline for blocking calls). A retryable answer demotes the primary and
  // re-issues at the next one, at most once per replica plus one; `done`
  // gets the first other answer, or the last replica's once the replicas
  // or the retries run out. `none` is the answer when no replica is current.
  template <typename Result>
  void Read(std::function<void(Store&, Done<Result>)> submit, std::function<Result()> none,
            Done<Result> done) {
    Submit(std::make_shared<ReadCall<Result>>(
               ReadCall<Result>{std::move(submit), std::move(none), std::move(done)}),
           0);
  }

  // Read for a blocking per-replica call.
  template <typename Result>
  Result ReadSync(const std::function<Result(Store&)>& call, std::function<Result()> none) {
    std::optional<Result> out;
    Read<Result>([&call](Store& store, Done<Result> done) { done(call(store)); },
                 std::move(none), [&out](Result result) { out = std::move(result); });
    return std::move(*out);
  }

  const uint32_t quorum;  // write_quorum clamped to [1, R]
  // Guards the replicas and the counters below, plus each owning store's
  // own bookkeeping.
  mutable std::mutex mu;
  std::vector<Replica> replicas;  // fixed size after construction

 private:
  template <typename Result>
  struct ReadCall {
    std::function<void(Store&, Done<Result>)> submit;
    std::function<Result()> none;
    Done<Result> done;
  };

  template <typename Result>
  void Submit(std::shared_ptr<ReadCall<Result>> call, size_t attempt) {
    std::shared_ptr<Store> primary;
    int p = -1;
    {
      std::lock_guard<std::mutex> lk(mu);
      p = PrimaryIndexLocked();
      if (p >= 0) {
        primary = replicas[static_cast<size_t>(p)].store;
      }
    }
    if (p < 0) {
      call->done(call->none());
      return;
    }
    call->submit(*primary, [this, call, attempt, p](Result result) {
      if (AnyRetryable(result)) {
        bool again = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          again = DemoteLocked(static_cast<size_t>(p), /*count_failover=*/true,
                               /*demote_last=*/false) &&
                  attempt < replicas.size();
        }
        if (again) {
          Submit(call, attempt + 1);
          return;
        }
      }
      call->done(std::move(result));
    });
  }

  uint64_t LagEpochsLocked(const Replica& r) const {
    if (r.health == ReplicaHealth::kCurrent) {
      return 0;
    }
    return epoch_ > r.lag_start_epoch ? epoch_ - r.lag_start_epoch : 0;
  }

  uint64_t epoch_ = 0;
  uint64_t failovers_ = 0;
  uint64_t resyncs_ = 0;
  uint64_t resync_epochs_ = 0;
  uint64_t generation_ = 0;
};

// --- ReplicatedBucketStore --------------------------------------------------

struct ReplicatedBucketStore::Replica : ReplicaBase<BucketStore> {
  // Buckets whose state on this replica is stale (missed writes/truncates
  // while lagging). Epoch replay rebuilds exactly these.
  std::set<BucketIndex> dirty;
};

ReplicatedBucketStore::ReplicatedBucketStore(std::vector<std::shared_ptr<BucketStore>> replicas,
                                             ReplicatedStoreOptions options)
    : set_(std::make_unique<ReplicaSet<Replica>>(std::move(replicas), options.write_quorum)) {
  live_.resize(set_->replicas.empty() ? 0 : set_->replicas[0].store->num_buckets());
}

ReplicatedBucketStore::~ReplicatedBucketStore() = default;

int ReplicatedBucketStore::PrimaryIndexForTest() {
  return set_->PrimaryIndex();
}

void ReplicatedBucketStore::RecordWriteLocked(BucketIndex bucket, uint32_t version,
                                              uint32_t slot_count) {
  if (bucket < live_.size()) {
    live_[bucket][version] = slot_count;
  }
}

void ReplicatedBucketStore::RecordTruncateLocked(BucketIndex bucket, uint32_t keep_from_version) {
  if (bucket < live_.size()) {
    auto& versions = live_[bucket];
    versions.erase(versions.begin(), versions.lower_bound(keep_from_version));
  }
}

StatusOr<Bytes> ReplicatedBucketStore::ReadSlot(BucketIndex bucket, uint32_t version,
                                                SlotIndex slot) {
  return set_->ReadSync<StatusOr<Bytes>>(
      [&](BucketStore& store) { return store.ReadSlot(bucket, version, slot); },
      [] { return StatusOr<Bytes>(Status::Unavailable("no current replica")); });
}

std::vector<StatusOr<Bytes>> ReplicatedBucketStore::ReadSlotsBatch(
    const std::vector<SlotRef>& refs) {
  return set_->ReadSync<std::vector<StatusOr<Bytes>>>(
      [&](BucketStore& store) { return store.ReadSlotsBatch(refs); },
      NoReplica<Bytes>(refs.size()));
}

std::vector<StatusOr<PathXorResult>> ReplicatedBucketStore::ReadPathsXor(
    const std::vector<PathSlots>& paths, uint32_t header_bytes, uint32_t trailer_bytes) {
  return set_->ReadSync<std::vector<StatusOr<PathXorResult>>>(
      [&](BucketStore& store) { return store.ReadPathsXor(paths, header_bytes, trailer_bytes); },
      NoReplica<PathXorResult>(paths.size()));
}

void ReplicatedBucketStore::ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) {
  const size_t n = refs.size();
  set_->Read<std::vector<StatusOr<Bytes>>>(
      [refs = std::move(refs)](BucketStore& store, ReadSlotsDone answer) {
        store.ReadSlotsBatchAsync(refs, std::move(answer));
      },
      NoReplica<Bytes>(n), std::move(done));
}

void ReplicatedBucketStore::ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                                              uint32_t trailer_bytes, ReadPathsXorDone done) {
  const size_t n = paths.size();
  set_->Read<std::vector<StatusOr<PathXorResult>>>(
      [paths = std::move(paths), header_bytes, trailer_bytes](BucketStore& store,
                                                              ReadPathsXorDone answer) {
        store.ReadPathsXorAsync(paths, header_bytes, trailer_bytes, std::move(answer));
      },
      NoReplica<PathXorResult>(n), std::move(done));
}

struct ReplicatedBucketStore::FanOutCtx {
  std::mutex mu;  // guards pending and tally
  size_t pending = 0;
  QuorumTally tally;
  std::vector<BucketImage> images;
  std::vector<TruncateRef> truncates;
  WriteBucketsDone done;
};

Status ReplicatedBucketStore::FinishWriteLocked(const FanOutCtx& ctx) {
  if (--writes_in_flight_ == 0) {
    writes_cv_.notify_all();
  }
  for (size_t i : ctx.tally.failed) {
    // Demotion may be refused for the last current replica; either way the
    // replica's copy of these buckets is now suspect, so if it did get
    // demoted (now or concurrently) the marks below queue the rebuild.
    set_->DemoteLocked(i, /*count_failover=*/false, /*demote_last=*/false);
  }
  // Mark the touched buckets dirty on every still-lagging replica AFTER the
  // wire writes have landed, never before they are issued: a heal pass that
  // overlapped this write either sees writes_in_flight_ > 0 and defers
  // promotion, or runs after this point and finds the bucket dirty — either
  // way it must replay the bucket against the post-write live_ index before
  // the replica can rejoin the write set.
  for (Replica& r : set_->replicas) {
    if (r.health != ReplicaHealth::kLagging) {
      continue;
    }
    for (const BucketImage& image : ctx.images) {
      r.dirty.insert(image.bucket);
    }
    for (const TruncateRef& ref : ctx.truncates) {
      r.dirty.insert(ref.bucket);
    }
  }
  Status out = ctx.tally.Outcome(set_->quorum, "write quorum not reached");
  if (out.ok()) {
    for (const BucketImage& image : ctx.images) {
      RecordWriteLocked(image.bucket, image.version, static_cast<uint32_t>(image.slots.size()));
    }
    for (const TruncateRef& ref : ctx.truncates) {
      RecordTruncateLocked(ref.bucket, ref.keep_from_version);
    }
  }
  return out;
}

void ReplicatedBucketStore::FanOutWrite(std::vector<BucketImage> images,
                                        std::vector<TruncateRef> truncates, const WriteSend& send,
                                        WriteBucketsDone done) {
  std::vector<size_t> targets;
  {
    std::lock_guard<std::mutex> lk(set_->mu);
    targets = set_->CurrentLocked();
    if (!targets.empty()) {
      writes_in_flight_++;
    }
  }
  if (targets.empty()) {
    done(Status::Unavailable("no current replica"));
    return;
  }
  auto ctx = std::make_shared<FanOutCtx>();
  ctx->pending = targets.size();
  ctx->images = std::move(images);
  ctx->truncates = std::move(truncates);
  ctx->done = std::move(done);
  for (size_t i : targets) {
    send(*set_->replicas[i].store, ctx->images, ctx->truncates, [this, ctx, i](Status s) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lk(ctx->mu);
        ctx->tally.Add(i, s);
        last = --ctx->pending == 0;
      }
      if (!last) {
        return;
      }
      Status out;
      {
        std::lock_guard<std::mutex> lk(set_->mu);
        out = FinishWriteLocked(*ctx);
      }
      ctx->done(std::move(out));
    });
  }
}

Status ReplicatedBucketStore::WriteBucketsBatch(std::vector<BucketImage> images) {
  Status out;
  FanOutWrite(
      std::move(images), {},
      [](BucketStore& store, const std::vector<BucketImage>& batch,
         const std::vector<TruncateRef>&, WriteBucketsDone answer) {
        answer(store.WriteBucketsBatch(batch));
      },
      [&out](Status s) { out = std::move(s); });
  return out;
}

Status ReplicatedBucketStore::WriteBucket(BucketIndex bucket, uint32_t version,
                                          std::vector<Bytes> slots) {
  std::vector<BucketImage> images;
  images.push_back(BucketImage{bucket, version, std::move(slots)});
  return WriteBucketsBatch(std::move(images));
}

Status ReplicatedBucketStore::TruncateBucketsBatch(const std::vector<TruncateRef>& refs) {
  Status out;
  FanOutWrite(
      {}, refs,
      [](BucketStore& store, const std::vector<BucketImage>&,
         const std::vector<TruncateRef>& batch, WriteBucketsDone answer) {
        answer(store.TruncateBucketsBatch(batch));
      },
      [&out](Status s) { out = std::move(s); });
  return out;
}

Status ReplicatedBucketStore::TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) {
  return TruncateBucketsBatch({TruncateRef{bucket, keep_from_version}});
}

void ReplicatedBucketStore::WriteBucketsBatchAsync(std::vector<BucketImage> images,
                                                   WriteBucketsDone done) {
  FanOutWrite(
      std::move(images), {},
      [](BucketStore& store, const std::vector<BucketImage>& batch,
         const std::vector<TruncateRef>&, WriteBucketsDone answer) {
        store.WriteBucketsBatchAsync(batch, std::move(answer));
      },
      std::move(done));
}

bool ReplicatedBucketStore::SupportsAsyncBatches() const {
  for (const Replica& r : set_->replicas) {
    if (!r.store->SupportsAsyncBatches()) {
      return false;
    }
  }
  return !set_->replicas.empty();
}

size_t ReplicatedBucketStore::num_buckets() const {
  return set_->replicas.empty() ? 0 : set_->replicas[0].store->num_buckets();
}

ReplicationStats ReplicatedBucketStore::replication_stats() {
  return set_->Stats();
}

void ReplicatedBucketStore::NoteEpochRetired(EpochId epoch) {
  set_->NoteEpochRetired(epoch);
}

Status ReplicatedBucketStore::TryHealReplicas() {
  return set_->HealEach([this](size_t index) { return HealReplica(index); });
}

Status ReplicatedBucketStore::HealReplica(size_t index) {
  std::shared_ptr<BucketStore> healer = set_->replicas[index].store;
  for (int round = 0; round < kMaxHealRounds; ++round) {
    std::set<BucketIndex> batch;
    {
      std::lock_guard<std::mutex> lk(set_->mu);
      Replica& r = set_->replicas[index];
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      batch.swap(r.dirty);
    }
    if (batch.empty()) {
      // Nothing to replay; prove the replica is reachable before promoting,
      // so a still-partitioned node can't re-enter the write set. The probe
      // is a READ — a mutating probe would grow file-backed replicas on
      // every promotion attempt and fail outright on an empty store. Any
      // definitive answer (including NotFound when no version is live yet)
      // is the replica speaking; only transport-level failures keep it
      // lagging. Prefer a known-live slot so the common case exercises the
      // real read path.
      SlotRef probe_ref{0, 0, 0};
      {
        std::lock_guard<std::mutex> lk(set_->mu);
        for (size_t b = 0; b < live_.size(); ++b) {
          if (!live_[b].empty()) {
            probe_ref = SlotRef{static_cast<BucketIndex>(b), live_[b].begin()->first, 0};
            break;
          }
        }
      }
      StatusOr<Bytes> probe = healer->ReadSlot(probe_ref.bucket, probe_ref.version,
                                               probe_ref.slot);
      if (!probe.ok() && IsReplicaRetryable(probe.status())) {
        return probe.status();
      }
      std::unique_lock<std::mutex> lk(set_->mu);
      Replica& r = set_->replicas[index];
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      // A write whose wire phase is still in flight may yet re-dirty this
      // replica (dirty marks land only in FinishWriteLocked, after the
      // replica stores have the data) — wait it out before judging the
      // dirty set, or a write that raced this heal pass would be stranded
      // on a freshly promoted primary.
      writes_cv_.wait(lk, [this] { return writes_in_flight_ == 0; });
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      if (!r.dirty.empty()) {
        continue;  // raced a concurrent write; another round
      }
      set_->PromoteLocked(index);
      return Status::Ok();
    }
    Status replay = Status::Ok();
    for (BucketIndex bucket : batch) {
      // Snapshot the bucket's live version set; shadow paging means
      // replaying exactly these versions (plus the matching truncation
      // floor) reproduces the committed state. Races with live traffic are
      // fine: any concurrent write/truncate re-marks the bucket dirty.
      std::map<uint32_t, uint32_t> versions;
      {
        std::lock_guard<std::mutex> lk(set_->mu);
        if (bucket < live_.size()) {
          versions = live_[bucket];
        }
      }
      uint32_t floor = versions.empty() ? UINT32_MAX : versions.begin()->first;
      replay = healer->TruncateBucket(bucket, floor);
      if (!replay.ok()) {
        break;
      }
      for (const auto& [version, slot_count] : versions) {
        std::vector<SlotRef> refs;
        refs.reserve(slot_count);
        for (uint32_t s = 0; s < slot_count; ++s) {
          refs.push_back(SlotRef{bucket, version, static_cast<SlotIndex>(s)});
        }
        std::vector<StatusOr<Bytes>> slots = ReadSlotsBatch(refs);  // primary, with failover
        std::vector<Bytes> image;
        image.reserve(slot_count);
        bool version_gone = false;
        for (StatusOr<Bytes>& slot : slots) {
          if (!slot.ok()) {
            if (slot.status().code() == StatusCode::kNotFound) {
              version_gone = true;  // retired meanwhile; the truncate re-dirtied us
              break;
            }
            replay = slot.status();
            break;
          }
          image.push_back(std::move(*slot));
        }
        if (!replay.ok()) {
          break;
        }
        if (version_gone) {
          continue;
        }
        replay = healer->WriteBucket(bucket, version, std::move(image));
        if (!replay.ok()) {
          break;
        }
      }
      if (!replay.ok()) {
        break;
      }
    }
    if (!replay.ok()) {
      std::lock_guard<std::mutex> lk(set_->mu);
      for (BucketIndex bucket : batch) {
        set_->replicas[index].dirty.insert(bucket);
      }
      return replay;
    }
  }
  return Status::Internal("bucket replica catch-up did not converge");
}

// --- ReplicatedLogStore -----------------------------------------------------

struct ReplicatedLogStore::Replica : ReplicaBase<LogStore> {
  // Global index (ops_base_-relative deque offsetting) of the next op this
  // replica needs. Current replicas always sit at the buffer end.
  uint64_t next_op = 0;
  // The op at next_op is an append whose fate is unknown (the transport
  // failed after send). Catch-up probes NextLsn() before replaying.
  bool ambiguous = false;
};

ReplicatedLogStore::ReplicatedLogStore(std::vector<std::shared_ptr<LogStore>> replicas,
                                       ReplicatedStoreOptions options)
    : set_(std::make_unique<ReplicaSet<Replica>>(std::move(replicas), options.write_quorum)) {
  for (const Replica& r : set_->replicas) {
    next_lsn_ = std::max(next_lsn_, r.store->NextLsn());
  }
}

ReplicatedLogStore::~ReplicatedLogStore() = default;

int ReplicatedLogStore::PrimaryIndexForTest() {
  return set_->PrimaryIndex();
}

size_t ReplicatedLogStore::BufferedBytesForTest() {
  std::lock_guard<std::mutex> lk(set_->mu);
  return ops_bytes_;
}

void ReplicatedLogStore::TrimOpsLocked() {
  auto min_live_cursor = [&] {
    uint64_t min_cursor = ops_base_ + ops_.size();
    for (const Replica& r : set_->replicas) {
      if (r.health != ReplicaHealth::kDead) {
        min_cursor = std::min(min_cursor, r.next_op);
      }
    }
    return min_cursor;
  };
  auto trim_to = [&](uint64_t cursor) {
    while (ops_base_ < cursor && !ops_.empty()) {
      ops_bytes_ -= ops_.front().record.size();
      ops_.pop_front();
      ops_base_++;
    }
  };
  trim_to(min_live_cursor());
  // A replica too far behind would pin the buffer forever; past the byte
  // cap it is unsalvageable by replay and gets excluded instead.
  while (ops_bytes_ > kMaxPendingLogBytes) {
    size_t victim = set_->replicas.size();
    uint64_t lowest = UINT64_MAX;
    for (size_t i = 0; i < set_->replicas.size(); ++i) {
      const Replica& r = set_->replicas[i];
      if (r.health == ReplicaHealth::kLagging && r.next_op < lowest) {
        lowest = r.next_op;
        victim = i;
      }
    }
    if (victim == set_->replicas.size()) {
      break;
    }
    set_->KillLocked(victim);
    trim_to(min_live_cursor());
  }
}

Status ReplicatedLogStore::FanOut(Op* op, bool fused_sync) {
  // The op is buffered for lagging replicas — and an append takes its LSN —
  // in the same set_->mu section that picks the targets, so every replica
  // sees ops in buffer order. io_mu_ (held by the caller, not set_->mu) is
  // what spans the wire phase: see the member comment.
  std::vector<std::pair<size_t, std::shared_ptr<LogStore>>> targets;
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lk(set_->mu);
    for (size_t i : set_->CurrentLocked()) {
      targets.emplace_back(i, set_->replicas[i].store);
    }
    if (targets.empty()) {
      return Status::Unavailable("no current log replica");
    }
    if (op != nullptr) {
      if (!op->truncate) {
        op->lsn_or_upto = next_lsn_++;
        ops_bytes_ += op->record.size();
      }
      ops_.push_back(*op);
      end = ops_base_ + ops_.size();
    }
  }
  const bool append = op != nullptr && !op->truncate;
  QuorumTally tally;
  std::vector<size_t> acked;
  std::vector<size_t> diverged;
  for (auto& [i, store] : targets) {
    Status s;
    if (append) {
      StatusOr<uint64_t> got = fused_sync ? store->AppendSync(op->record)
                                          : store->Append(op->record);
      s = got.status();
      if (got.ok() && *got != op->lsn_or_upto) {
        // The replica assigned a different LSN: it lost or gained records
        // relative to the acknowledged history and cannot be replay-healed.
        diverged.push_back(i);
        s = Status::DataLoss("log replica LSN divergence");
      }
    } else {
      s = op == nullptr ? store->Sync() : store->Truncate(op->lsn_or_upto);
    }
    if (tally.Add(i, s)) {
      acked.push_back(i);
    }
  }
  {
    std::lock_guard<std::mutex> lk(set_->mu);
    for (size_t i : diverged) {
      set_->KillLocked(i);
    }
    for (size_t i : tally.failed) {
      // A missed append or truncate must demote even the last current
      // replica (the LSN bookkeeping cannot keep serving past a missed op);
      // Sync carries no record, so the cursor stays exact and the last
      // replica keeps serving — catch-up re-Syncs before promoting. Only an
      // append is in doubt (at-most-once; truncation is idempotent): flag
      // the cursor so catch-up probes NextLsn() before replaying. A read
      // path may have demoted the replica while our send was in flight —
      // the in-doubt op still sits at its cursor, so the flag is set on any
      // lagging replica, not just one demoted here.
      set_->DemoteLocked(i, /*count_failover=*/false, /*demote_last=*/op != nullptr);
      if (append && set_->replicas[i].health == ReplicaHealth::kLagging) {
        set_->replicas[i].ambiguous = true;
      }
    }
    if (op != nullptr) {
      for (size_t i : acked) {
        set_->replicas[i].next_op = end;
      }
      TrimOpsLocked();
    }
  }
  return tally.Outcome(set_->quorum, op == nullptr  ? "log sync quorum not reached"
                                    : op->truncate ? "log truncate quorum not reached"
                                                   : "log append quorum not reached");
}

StatusOr<uint64_t> ReplicatedLogStore::AppendImpl(Bytes record, bool fused_sync) {
  // Appends fully serialize with each other on io_mu_ — the LSN each replica
  // assigns must match the send order — but observers (NextLsn,
  // replication_stats) and heal bookkeeping never stall behind a slow
  // replica's transport deadline.
  std::lock_guard<std::mutex> io(io_mu_);
  Op op{false, 0, std::move(record)};
  OBLADI_RETURN_IF_ERROR(FanOut(&op, fused_sync));
  return op.lsn_or_upto;
}

StatusOr<uint64_t> ReplicatedLogStore::Append(Bytes record) {
  return AppendImpl(std::move(record), /*fused_sync=*/false);
}

StatusOr<uint64_t> ReplicatedLogStore::AppendSync(Bytes record) {
  return AppendImpl(std::move(record), /*fused_sync=*/true);
}

Status ReplicatedLogStore::Sync() {
  std::lock_guard<std::mutex> io(io_mu_);
  return FanOut(nullptr, /*fused_sync=*/false);
}

Status ReplicatedLogStore::Truncate(uint64_t upto_lsn) {
  std::lock_guard<std::mutex> io(io_mu_);
  Op op{true, upto_lsn, {}};
  return FanOut(&op, /*fused_sync=*/false);
}

StatusOr<std::vector<Bytes>> ReplicatedLogStore::ReadAll() {
  return set_->ReadSync<StatusOr<std::vector<Bytes>>>(
      [](LogStore& store) { return store.ReadAll(); },
      [] { return StatusOr<std::vector<Bytes>>(Status::Unavailable("no current log replica")); });
}

uint64_t ReplicatedLogStore::NextLsn() const {
  std::lock_guard<std::mutex> lk(set_->mu);
  return next_lsn_;
}

ReplicationStats ReplicatedLogStore::replication_stats() {
  return set_->Stats();
}

void ReplicatedLogStore::NoteEpochRetired(EpochId epoch) {
  set_->NoteEpochRetired(epoch);
}

Status ReplicatedLogStore::TryHealReplicas() {
  return set_->HealEach([this](size_t index) { return HealReplica(index); });
}

Status ReplicatedLogStore::HealReplica(size_t index) {
  std::shared_ptr<LogStore> store = set_->replicas[index].store;
  for (int round = 0; round < kMaxHealRounds; ++round) {
    std::vector<Op> chunk;
    bool ambiguous = false;
    uint64_t cursor = 0;
    {
      // Taking io_mu_ first is a barrier against the wire phase of a
      // concurrent append/truncate: by the time we snapshot, any op this
      // replica was sent directly (before a mid-flight demotion) has been
      // fully applied to its cursor/ambiguous state, so replay can never
      // deliver an op a stale direct send also carries (a duplicate would
      // read as LSN divergence and falsely kill the replica). Released
      // before the replay RPCs — while the replica lags, replay is the only
      // sender, so appends continue unblocked.
      std::lock_guard<std::mutex> io(io_mu_);
      std::lock_guard<std::mutex> lk(set_->mu);
      Replica& r = set_->replicas[index];
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      cursor = r.next_op;
      ambiguous = r.ambiguous;
      const uint64_t end = ops_base_ + ops_.size();
      size_t take = static_cast<size_t>(
          std::min<uint64_t>(end - cursor, ambiguous ? 1 : kLogReplayChunk));
      chunk.reserve(take);
      for (size_t k = 0; k < take; ++k) {
        chunk.push_back(ops_[static_cast<size_t>(cursor - ops_base_) + k]);
      }
    }
    if (ambiguous) {
      // The op at the cursor is an append whose fate is unknown. Probe the
      // replica's next LSN to decide whether it landed. Sync() first: it is
      // the cheap reachability check, and RemoteLogStore::NextLsn() answers
      // 0 when unreachable, which must not read as "did not land".
      OBLADI_RETURN_IF_ERROR(store->Sync());
      uint64_t next = store->NextLsn();
      std::lock_guard<std::mutex> lk(set_->mu);
      Replica& r = set_->replicas[index];
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      if (chunk.empty() || chunk[0].truncate) {
        r.ambiguous = false;  // the in-doubt op was already trimmed/resolved
        continue;
      }
      const uint64_t lsn = chunk[0].lsn_or_upto;
      if (next > lsn) {
        if (r.next_op == cursor) {
          r.next_op = cursor + 1;  // it landed
        }
        r.ambiguous = false;
        TrimOpsLocked();
      } else if (next == lsn) {
        r.ambiguous = false;  // it did not land; replay will reissue it
      } else {
        set_->KillLocked(index);
        return Status::DataLoss("log replica lost acknowledged records");
      }
      continue;
    }
    if (chunk.empty()) {
      // Caught up. Make everything durable, then promote — unless new ops
      // raced in, in which case another round replays them first.
      OBLADI_RETURN_IF_ERROR(store->Sync());
      std::lock_guard<std::mutex> lk(set_->mu);
      Replica& r = set_->replicas[index];
      if (r.health != ReplicaHealth::kLagging) {
        return Status::Ok();
      }
      if (r.next_op != ops_base_ + ops_.size() || r.ambiguous) {
        continue;
      }
      set_->PromoteLocked(index);
      TrimOpsLocked();
      return Status::Ok();
    }
    size_t applied = 0;
    Status err = Status::Ok();
    for (const Op& op : chunk) {
      if (op.truncate) {
        err = store->Truncate(op.lsn_or_upto);
        if (!err.ok()) {
          break;
        }
      } else {
        StatusOr<uint64_t> got = store->Append(op.record);
        if (!got.ok()) {
          err = got.status();
          std::lock_guard<std::mutex> lk(set_->mu);
          Replica& r = set_->replicas[index];
          r.next_op = cursor + applied;
          r.ambiguous = true;  // this replayed append is now the in-doubt op
          return err;
        }
        if (*got != op.lsn_or_upto) {
          std::lock_guard<std::mutex> lk(set_->mu);
          set_->KillLocked(index);
          return Status::DataLoss("log replica LSN divergence during catch-up");
        }
      }
      applied++;
    }
    {
      std::lock_guard<std::mutex> lk(set_->mu);
      set_->replicas[index].next_op = cursor + applied;
      TrimOpsLocked();
    }
    if (!err.ok()) {
      return err;
    }
  }
  return Status::Internal("log replica catch-up did not converge");
}

}  // namespace obladi
